"""Fairness-preserving local Kemeny repair (post-correction PD-loss recovery).

Make-MR-Fair moves candidates to satisfy the MANI-Rank criteria, but its swap
rule optimises parity only — the corrected consensus can leave *free* Kemeny
improvements on the table: moves that reduce the pairwise disagreement with
the base rankings while keeping every ARP/IRP score within its threshold.
:func:`fair_local_search` harvests exactly those.  A move is accepted only
when

1. it strictly reduces the Kemeny objective (the classic Dwork et al. rule),
   *and*
2. the moved ranking still satisfies every MANI-Rank threshold.

The result is MANI-Rank feasible by construction for feasible inputs, never
worse in PD loss than the corrected input, and locally optimal among the
fairness-feasible moves of its neighbourhood.

**One schedule family.**  The repair has no search loop of its own: it runs
the :mod:`repro.aggregation.search` strategies (``adjacent-swap``,
``insertion``, ``combined``) unchanged on a fairness-filtered view of the
Kemeny-delta engine.  The view's adjacent sweep skips swaps that would break
a threshold, and its best move is the best improving block move whose target
stays feasible.  So the fair ``insertion`` repair inherits the dominance
guarantee of the unconstrained schedule (never worse in Kemeny objective
than the fair ``adjacent-swap`` repair on the same input), and at ``δ = 1``
every strategy reduces to its unconstrained search.
``fair-borda-repaired`` / ``fair-borda-insertion`` in the method registry
are Fair-Borda post-processed with the adjacent / insertion repair.

**Performance.**  The Kemeny condition is an O(1) read (adjacent swap) or an
O(n) vectorised row score (block move) of
:class:`repro.aggregation.incremental.KemenyDeltaEngine`'s cached margin
matrix, and the feasibility condition is an O(window + sum of group counts)
query of :class:`repro.fairness.incremental.FairnessState` — no ranking is
materialised and no parity score recomputed from scratch.  The from-scratch
evaluations are retained as :func:`fair_local_kemenization_reference` and
:func:`fair_insertion_kemenization_reference`; the property tests assert
the engine-backed repair makes the identical decisions.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.aggregation.incremental import KemenyDeltaEngine
from repro.aggregation.search import get_strategy
from repro.core.candidates import CandidateTable
from repro.core.distances import kemeny_objective
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError
from repro.fairness.incremental import FairnessState
from repro.fairness.parity import parity_scores
from repro.fairness.thresholds import FairnessThresholds

__all__ = [
    "FairLocalRepairResult",
    "fair_local_kemenization_reference",
    "fair_insertion_kemenization_reference",
    "fair_local_search",
]

#: Feasibility tolerance, matching ``mani_rank_satisfied`` / Make-MR-Fair.
_FEASIBILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FairLocalRepairResult:
    """Outcome of a fairness-preserving local Kemeny repair.

    ``n_moves`` counts the accepted block (insertion) moves for the
    neighbourhoods that use them; the adjacent-only repair reports ``None``.
    """

    ranking: Ranking
    n_swaps: int
    n_passes: int
    objective: float
    n_moves: int | None = None


def _check_universe(ranking: Ranking, table: CandidateTable) -> None:
    if ranking.n_candidates != table.n_candidates:
        raise AggregationError(
            "ranking and candidate table cover different universes: "
            f"{ranking.n_candidates} vs {table.n_candidates} candidates"
        )


def _feasible(
    after: Mapping[str, float], thresholds: FairnessThresholds
) -> bool:
    """Every hypothetical parity score within its threshold (plus tolerance)."""
    return all(
        score <= thresholds.threshold_for(entity) + _FEASIBILITY_TOLERANCE
        for entity, score in after.items()
    )


class _FairEngineView:
    """A :class:`KemenyDeltaEngine` whose moves must stay MANI-Rank feasible.

    Provides the engine calls a
    :class:`~repro.aggregation.search.NeighborhoodStrategy` makes
    (``n_candidates``, ``sweep_adjacent``, ``best_move``, ``apply_move``),
    each filtered through a :class:`FairnessState`, so the fair repair runs
    the unconstrained strategies' schedules unchanged.  ``n_swaps`` counts
    the adjacent swaps the sweeps accepted.
    """

    def __init__(
        self,
        engine: KemenyDeltaEngine,
        fairness: FairnessState,
        thresholds: FairnessThresholds,
    ) -> None:
        self._engine = engine
        self._fairness = fairness
        self._thresholds = thresholds
        self.n_candidates = engine.n_candidates
        self.n_swaps = 0

    def sweep_adjacent(self) -> bool:
        """One fairness-filtered bubble pass; ``True`` if it swapped."""
        engine = self._engine
        fairness = self._fairness
        thresholds = self._thresholds
        order = engine.order_list
        accepted = 0
        for position in range(self.n_candidates - 1):
            upper = order[position]
            lower = order[position + 1]
            if engine.margin(upper, lower) <= 0.0:
                continue
            if not _feasible(fairness.parity_after_swap(upper, lower), thresholds):
                continue
            engine.apply_adjacent_swap(position)
            fairness.apply_swap(upper, lower)
            accepted += 1
        self.n_swaps += accepted
        return accepted > 0

    def best_move(self, candidate: int) -> tuple[float, int]:
        """Best improving MANI-Rank-feasible target for ``candidate``.

        The engine scores every target position in one vectorised gather;
        the improving targets are tried best-first (ties towards the smallest
        position) and the first feasible one is returned.  Returns
        ``(0.0, current position)`` when no feasible target improves.
        """
        deltas = self._engine.move_deltas(candidate)
        improving = np.flatnonzero(deltas < 0.0)
        if improving.size:
            for target in improving[np.lexsort((improving, deltas[improving]))]:
                target = int(target)
                if _feasible(
                    self._fairness.parity_after_move(candidate, target), self._thresholds
                ):
                    return float(deltas[target]), target
        return 0.0, self._engine.positions_list[candidate]

    def apply_move(self, candidate: int, new_position: int) -> float:
        """Move ``candidate`` in both engines; return the objective delta."""
        delta = self._engine.apply_move(candidate, new_position)
        self._fairness.apply_move(candidate, new_position)
        return delta


def fair_local_search(
    rankings: RankingSet,
    ranking: Ranking,
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    strategy: str = "adjacent-swap",
    max_passes: int = 50,
) -> FairLocalRepairResult:
    """Fairness-preserving local Kemeny repair with a pluggable neighbourhood.

    Runs the named :mod:`repro.aggregation.search` strategy (``adjacent-swap``,
    ``insertion`` or ``combined``) on a fairness-filtered view of the
    Kemeny-delta engine: an adjacent swap or block move is accepted only when
    it strictly reduces the Kemeny objective and keeps every MANI-Rank parity
    score within its threshold (same tolerance as ``mani_rank_satisfied``).
    Infeasible block-move targets are skipped in favour of the next-best
    improving one.  Identical decisions to
    :func:`fair_local_kemenization_reference` (``adjacent-swap``) and
    :func:`fair_insertion_kemenization_reference` (``insertion``).

    The input is typically a Make-MR-Fair correction; an infeasible input is
    allowed (the repair then accepts only moves that land inside the fair
    region).  ``n_moves`` is ``None`` for ``adjacent-swap``.
    """
    search = get_strategy(strategy)
    _check_universe(ranking, table)
    engine = KemenyDeltaEngine(rankings, ranking)
    view = _FairEngineView(
        engine, FairnessState(ranking, table), FairnessThresholds.coerce(delta)
    )
    stats = search.search(view, max_passes=max_passes)  # type: ignore[arg-type]
    return FairLocalRepairResult(
        ranking=engine.to_ranking(),
        n_swaps=view.n_swaps,
        n_passes=stats.n_passes,
        objective=engine.objective,
        n_moves=stats.n_moves,
    )


def fair_local_kemenization_reference(
    rankings: RankingSet,
    ranking: Ranking,
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    max_passes: int = 50,
) -> FairLocalRepairResult:
    """From-scratch fairness-preserving repair, retained as ground truth.

    Every candidate swap materialises the swapped :class:`Ranking`, rescores
    it with :func:`repro.fairness.parity.parity_scores`, and the final
    objective is recomputed with :func:`kemeny_objective` — one evaluated
    swap costs O(n * sum of group counts) instead of the engines' O(1) +
    O(sum of group counts).  ``fair_local_search(strategy="adjacent-swap")``
    must produce the identical swap sequence and final ranking (enforced by
    the test suite).
    """
    _check_universe(ranking, table)
    thresholds = FairnessThresholds.coerce(delta)
    precedence = rankings.precedence_matrix()
    current = ranking
    n = ranking.n_candidates
    n_swaps = 0
    n_passes = 0
    for _ in range(max_passes):
        improved = False
        for position in range(n - 1):
            upper = current.candidate_at(position)
            lower = current.candidate_at(position + 1)
            if precedence[lower, upper] >= precedence[upper, lower]:
                continue
            swapped = current.swap(upper, lower)
            after = parity_scores(swapped, table)
            if any(
                score > thresholds.threshold_for(entity) + _FEASIBILITY_TOLERANCE
                for entity, score in after.items()
            ):
                continue
            current = swapped
            improved = True
            n_swaps += 1
        if not improved:
            break
        n_passes += 1
    return FairLocalRepairResult(
        ranking=current,
        n_swaps=n_swaps,
        n_passes=n_passes,
        objective=kemeny_objective(current, rankings),
    )


def _reference_moved(ranking: Ranking, candidate: int, target: int) -> Ranking:
    """Materialise the block move of ``candidate`` to position ``target``."""
    order = ranking.to_list()
    order.remove(candidate)
    order.insert(target, candidate)
    return Ranking(np.asarray(order, dtype=np.int64), validate=False)


def fair_insertion_kemenization_reference(
    rankings: RankingSet,
    ranking: Ranking,
    table: CandidateTable,
    delta: FairnessThresholds | float | Mapping[str, float],
    max_passes: int = 50,
) -> FairLocalRepairResult:
    """From-scratch fairness-constrained insertion repair (ground truth).

    The same variable-neighbourhood descent as
    ``fair_local_search(strategy="insertion")`` with every quantity
    recomputed from scratch: adjacent passes materialise each swapped ranking
    and rescore it with :func:`repro.fairness.parity.parity_scores`;
    insertion passes score
    every target of a candidate by materialising the moved ranking and
    recomputing :func:`kemeny_objective`, sort the improving targets by
    ``(delta, position)`` — matching the engine's best-first ``argmin``
    tie-breaking — and accept the first whose rescored parity stays within
    the thresholds.  One evaluated insertion pass costs O(n^4); the function
    exists purely as the test suite's semantic ground truth on small inputs.
    """
    _check_universe(ranking, table)
    thresholds = FairnessThresholds.coerce(delta)
    precedence = rankings.precedence_matrix()
    current = ranking
    n = ranking.n_candidates
    n_swaps = 0
    n_moves = 0
    n_passes = 0
    while True:
        while n_passes < max_passes:
            accepted = 0
            for position in range(n - 1):
                upper = current.candidate_at(position)
                lower = current.candidate_at(position + 1)
                if precedence[lower, upper] >= precedence[upper, lower]:
                    continue
                swapped = current.swap(upper, lower)
                if not _feasible(parity_scores(swapped, table), thresholds):
                    continue
                current = swapped
                accepted += 1
            if accepted == 0:
                break
            n_swaps += accepted
            n_passes += 1
        if n_passes >= max_passes:
            break
        moved = 0
        for candidate in range(n):
            objective = kemeny_objective(current, rankings)
            position = current.position_of(candidate)
            scored: list[tuple[float, int]] = []
            for target in range(n):
                if target == position:
                    continue
                delta_objective = (
                    kemeny_objective(
                        _reference_moved(current, candidate, target), rankings
                    )
                    - objective
                )
                if delta_objective < 0.0:
                    scored.append((delta_objective, target))
            for _, target in sorted(scored):
                candidate_moved = _reference_moved(current, candidate, target)
                if _feasible(parity_scores(candidate_moved, table), thresholds):
                    current = candidate_moved
                    moved += 1
                    break
        if moved == 0:
            break
        n_moves += moved
        n_passes += 1
    return FairLocalRepairResult(
        ranking=current,
        n_swaps=n_swaps,
        n_passes=n_passes,
        objective=kemeny_objective(current, rankings),
        n_moves=n_moves,
    )
