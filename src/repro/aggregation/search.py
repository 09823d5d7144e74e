"""Pluggable local-search neighbourhoods on the incremental Kemeny-delta engine.

Local Kemenization historically meant one fixed neighbourhood — adjacent
transpositions.  The :class:`~repro.aggregation.incremental.KemenyDeltaEngine`
prices far richer moves at the same asymptotic cost (an O(window) block move,
an O(n) vectorised scoring of *all* block moves of one candidate), so this
module turns the neighbourhood into a strategy object and implements three:

``adjacent-swap``
    Today's behaviour — bubble passes on the engine's carry-run sweep,
    bit-identical to
    :func:`repro.aggregation.local_search.local_kemenization_reference`.

``insertion``
    Variable-neighbourhood descent over block moves (insertion moves): run
    the cheap adjacent-swap descent to convergence, then one pass of
    best-improvement insertion moves — each candidate's full target row
    scored in a single vectorised gather
    (:meth:`KemenyDeltaEngine.best_move`) — and drop back to the adjacent
    descent whenever an insertion move lands.  Because the first phase *is*
    the adjacent-swap strategy (identical trajectory, identical pass
    accounting) and every later move strictly improves the objective, the
    insertion result is **never worse than the adjacent-swap result** for
    the same input and pass budget — the dominance guarantee the strategy
    ablation asserts on every grid cell.  A converged insertion search is
    locally optimal for *all* block moves, which strictly generalise
    adjacent swaps.  The from-scratch
    :func:`insertion_local_search_reference` is retained as the semantic
    ground truth; the property tests assert both produce the identical
    ranking and ``benchmarks/test_perf_insertion.py`` gates the speedup.

``combined``
    The reverse schedule: greedy best-improvement insertion passes from the
    raw seed until converged, then a final adjacent-swap polish.  Exploring
    the large neighbourhood first takes different trajectories than
    ``insertion`` (occasionally better, occasionally worse — it carries no
    dominance guarantee), which is exactly what makes it a useful third arm
    of the ablation.

Strategies are stateless and picklable (the ablation experiment ships them
through a process pool); obtain one with :func:`get_strategy` and run it with
:meth:`NeighborhoodStrategy.search` or the :func:`local_search` convenience
wrapper.  :class:`~repro.aggregation.local_search.LocalSearchKemenyAggregator`
accepts ``strategy=...`` and the registry forwards constructor keywords, so
``get_aggregator("local-kemeny", strategy="insertion")`` works end to end.

Each schedule is implemented once, here.  A strategy touches the engine only
through ``n_candidates``, ``sweep_adjacent()``, ``best_move(candidate)`` and
``apply_move(candidate, target)``, so the fairness-preserving repair
(:func:`repro.fair.local_repair.fair_local_search`) runs these same classes on
a view of the engine that filters every swap and block move through
MANI-Rank feasibility.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.aggregation.incremental import KemenyDeltaEngine
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError

__all__ = [
    "SearchStats",
    "NeighborhoodStrategy",
    "AdjacentSwapStrategy",
    "InsertionStrategy",
    "CombinedStrategy",
    "available_strategies",
    "get_strategy",
    "local_search",
    "insertion_local_search_reference",
]


@dataclass(frozen=True)
class SearchStats:
    """Outcome of one strategy run on an engine.

    ``n_moves`` counts the applied block moves for strategies that track them
    individually; the adjacent-swap sweep applies its swaps inside vectorised
    carry runs without counting, so it reports ``None``.
    """

    strategy: str
    n_passes: int
    n_moves: int | None


class NeighborhoodStrategy(ABC):
    """One local-search neighbourhood over the Kemeny-delta engine.

    A strategy mutates the engine in place, applying only strictly improving
    moves, and stops when its neighbourhood is exhausted or the pass budget
    runs out.  Implementations hold no per-run state (one instance can serve
    any number of searches, including concurrently pickled copies).
    """

    name: ClassVar[str]

    @abstractmethod
    def search(self, engine: KemenyDeltaEngine, max_passes: int = 50) -> SearchStats:
        """Improve the engine's ranking in place; return pass/move counts."""


def _insertion_pass(engine: KemenyDeltaEngine) -> int:
    """One best-improvement insertion pass; returns the number of applied moves.

    Visits the candidates in id order; for each, the engine scores every
    target position in a single vectorised gather (ties broken towards the
    smallest position) and the best strictly improving block move is applied.
    """
    moved = 0
    for candidate in range(engine.n_candidates):
        delta, target = engine.best_move(candidate)
        if delta < 0.0:
            engine.apply_move(candidate, target)
            moved += 1
    return moved


class AdjacentSwapStrategy(NeighborhoodStrategy):
    """Classic local Kemenization: bubble passes over adjacent transpositions.

    Runs the engine's carry-run sweep, reproducing byte-for-byte the decisions
    of :func:`repro.aggregation.local_search.local_kemenization_reference`.
    Only improving passes are counted (the final pass that finds nothing to
    swap is free).
    """

    name = "adjacent-swap"

    def search(self, engine: KemenyDeltaEngine, max_passes: int = 50) -> SearchStats:
        """Run carry-run adjacent sweeps until converged or out of budget."""
        n_passes = 0
        for _ in range(max_passes):
            if not engine.sweep_adjacent():
                break
            n_passes += 1
        return SearchStats(strategy=self.name, n_passes=n_passes, n_moves=None)


class InsertionStrategy(NeighborhoodStrategy):
    """Variable-neighbourhood descent: adjacent descent + insertion passes.

    The loop alternates two phases sharing one pass budget: (1) adjacent-swap
    sweeps until converged — the identical trajectory (and pass accounting)
    of :class:`AdjacentSwapStrategy` — then (2) one best-improvement
    insertion pass; any landed block move returns the search to phase 1.
    The search stops when an insertion pass applies nothing (the ranking is
    then locally optimal for every block move, adjacent swaps included) or
    the budget runs out.

    Running the cheap neighbourhood first is the standard VND schedule —
    the O(1)-per-swap sweeps do the bulk of the work and the O(n) per
    candidate scoring is reserved for the moves only insertion can see —
    and it buys the dominance guarantee the ablation relies on: for the
    same input and ``max_passes``, the insertion result's objective is
    never above the adjacent-swap result's.
    """

    name = "insertion"

    def search(self, engine: KemenyDeltaEngine, max_passes: int = 50) -> SearchStats:
        """Alternate adjacent descent and insertion passes on a shared budget."""
        n_passes = 0
        n_moves = 0
        while True:
            while n_passes < max_passes and engine.sweep_adjacent():
                n_passes += 1
            if n_passes >= max_passes:
                break
            moved = _insertion_pass(engine)
            if moved == 0:
                break
            n_moves += moved
            n_passes += 1
        return SearchStats(strategy=self.name, n_passes=n_passes, n_moves=n_moves)


class CombinedStrategy(NeighborhoodStrategy):
    """Greedy insertion passes until converged, then an adjacent-swap polish.

    The big-moves-first schedule: best-improvement insertion passes straight
    from the seed (no adjacent warm-up), then a final adjacent-swap descent
    mopping up whatever cheap improvements remain (only relevant when the
    insertion phase exhausted its budget — a converged insertion phase is
    already adjacent-swap optimal).  Each phase gets the full ``max_passes``
    budget.  Unlike :class:`InsertionStrategy` this trajectory carries no
    dominance guarantee over :class:`AdjacentSwapStrategy`; the ablation
    experiment measures how the two insertion schedules compare in practice.
    """

    name = "combined"

    def search(self, engine: KemenyDeltaEngine, max_passes: int = 50) -> SearchStats:
        """Run insertion passes to convergence, then an adjacent-swap polish."""
        n_passes = 0
        n_moves = 0
        for _ in range(max_passes):
            moved = _insertion_pass(engine)
            if moved == 0:
                break
            n_moves += moved
            n_passes += 1
        polish = AdjacentSwapStrategy().search(engine, max_passes=max_passes)
        return SearchStats(
            strategy=self.name,
            n_passes=n_passes + polish.n_passes,
            n_moves=n_moves,
        )


_STRATEGIES: dict[str, type[NeighborhoodStrategy]] = {
    AdjacentSwapStrategy.name: AdjacentSwapStrategy,
    InsertionStrategy.name: InsertionStrategy,
    CombinedStrategy.name: CombinedStrategy,
}


def available_strategies() -> tuple[str, ...]:
    """Strategy names accepted by :func:`get_strategy` (and the CLI)."""
    return tuple(_STRATEGIES)


def get_strategy(strategy: str | NeighborhoodStrategy) -> NeighborhoodStrategy:
    """Resolve a strategy name (case-insensitive) or pass an instance through."""
    if isinstance(strategy, NeighborhoodStrategy):
        return strategy
    key = str(strategy).strip().lower()
    if key not in _STRATEGIES:
        raise AggregationError(
            f"unknown local-search strategy {strategy!r}; "
            f"available strategies: {', '.join(_STRATEGIES)}"
        )
    return _STRATEGIES[key]()


def local_search(
    rankings: RankingSet,
    initial: Ranking,
    strategy: str | NeighborhoodStrategy = "adjacent-swap",
    max_passes: int = 50,
) -> Ranking:
    """Improve ``initial`` with the given neighbourhood strategy.

    The default ``adjacent-swap`` strategy is classic local Kemenization,
    returning the identical ranking to
    :func:`repro.aggregation.local_search.local_kemenization_reference`.
    """
    engine = KemenyDeltaEngine(rankings, initial)
    get_strategy(strategy).search(engine, max_passes=max_passes)
    return engine.to_ranking()


def insertion_local_search_reference(
    rankings: RankingSet, initial: Ranking, max_passes: int = 50
) -> Ranking:
    """From-scratch insertion local search, retained as the semantic ground truth.

    Mirrors :class:`InsertionStrategy` — the same variable-neighbourhood
    descent with the same pass accounting — without the engine: the adjacent
    phase is the scalar bubble pass of
    :func:`repro.aggregation.local_search.local_kemenization_reference`, and
    each candidate's insertion deltas are accumulated with scalar
    precedence-matrix reads while scanning outwards from its position (the
    left scan prefers later — smaller — positions on ties, the right scan
    requires strict improvement; together they reproduce the engine's
    ``argmin`` tie-breaking).  The engine-backed search must return the
    identical ranking on every input (enforced by the property tests and
    ``benchmarks/test_perf_insertion.py``).
    """
    precedence = rankings.precedence_matrix()
    order = initial.to_list()
    n = len(order)
    passes_used = 0
    while True:
        while passes_used < max_passes:
            improved = False
            for position in range(n - 1):
                upper, lower = order[position], order[position + 1]
                if precedence[lower, upper] < precedence[upper, lower]:
                    order[position], order[position + 1] = lower, upper
                    improved = True
            if not improved:
                break
            passes_used += 1
        if passes_used >= max_passes:
            break
        moved = False
        for candidate in range(n):
            position = order.index(candidate)
            best_delta = 0.0
            best_target = position
            delta = 0.0
            for target in range(position - 1, -1, -1):
                other = order[target]
                delta += precedence[candidate, other] - precedence[other, candidate]
                if delta <= best_delta:
                    best_delta = delta
                    best_target = target
            delta = 0.0
            for target in range(position + 1, n):
                other = order[target]
                delta += precedence[other, candidate] - precedence[candidate, other]
                if delta < best_delta:
                    best_delta = delta
                    best_target = target
            if best_delta < 0.0:
                order.pop(position)
                order.insert(best_target, candidate)
                moved = True
        if not moved:
            break
        passes_used += 1
    return Ranking(np.asarray(order, dtype=np.int64), validate=False)
