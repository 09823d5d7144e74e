"""Local Kemenization: adjacent-swap local search on the Kemeny objective.

"Local Kemenization" (Dwork et al., 2001) takes any consensus ranking and
repeatedly swaps adjacent candidates whenever the swap reduces the number of
pairwise disagreements with the base rankings.  The result is locally optimal:
no single adjacent transposition can improve it, and it preserves the
Condorcet winner ordering where one exists.

This module offers the standalone :class:`LocalSearchKemenyAggregator`
(Borda seed + local search) and the from-scratch
:func:`local_kemenization_reference`, the semantic ground truth of the
adjacent schedule.  The schedule itself lives once, in
:mod:`repro.aggregation.search`: ``local_search(rankings, initial,
"adjacent-swap")`` runs it on the incremental Kemeny-delta engine
(:class:`repro.aggregation.incremental.KemenyDeltaEngine`), where each bubble
pass reads O(1) adjacent-swap margins from the cached margin matrix and a
vectorised gather skips converged prefixes.  The test suite asserts it
returns the identical ranking to the reference on every exercised input,
and ``benchmarks/test_perf_local_search.py`` tracks the speedup.  The same
module holds the insertion (block-move) and combined schedules, which
:class:`LocalSearchKemenyAggregator` selects with ``strategy=...``.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.base import AggregationResult, RankAggregator
from repro.aggregation.borda import BordaAggregator
from repro.aggregation.incremental import KemenyDeltaEngine
from repro.aggregation.search import NeighborhoodStrategy, get_strategy
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet

__all__ = [
    "local_kemenization_reference",
    "LocalSearchKemenyAggregator",
]


def local_kemenization_reference(
    rankings: RankingSet, initial: Ranking, max_passes: int = 50
) -> Ranking:
    """From-scratch local Kemenization, retained as the semantic ground truth.

    This is the original implementation: every adjacent pair is evaluated
    with two numpy scalar reads of the precedence matrix per pass.
    ``local_search(..., "adjacent-swap")`` must return the identical ranking;
    the equivalence is enforced by the test suite and the perf benchmark.
    """
    precedence = rankings.precedence_matrix()
    order = initial.to_list()
    n = len(order)
    for _ in range(max_passes):
        improved = False
        for position in range(n - 1):
            upper, lower = order[position], order[position + 1]
            # Cost of current order: rankings that put `lower` above `upper`.
            current_cost = precedence[upper, lower]
            swapped_cost = precedence[lower, upper]
            if swapped_cost < current_cost:
                order[position], order[position + 1] = lower, upper
                improved = True
        if not improved:
            break
    return Ranking(np.asarray(order, dtype=np.int64), validate=False)


class LocalSearchKemenyAggregator(RankAggregator):
    """Borda seed followed by engine-backed local search (a fast Kemeny heuristic).

    Parameters
    ----------
    max_passes:
        Pass budget handed to the strategy.
    strategy:
        Neighbourhood to search — a name accepted by
        :func:`repro.aggregation.search.get_strategy` (``"adjacent-swap"``,
        ``"insertion"``, ``"combined"``) or a strategy instance.  The default
        ``adjacent-swap`` keeps the classic local-Kemenization behaviour,
        bit-identical to the Borda + :func:`local_kemenization_reference`
        pipeline.
    """

    name = "LocalKemeny"

    def __init__(
        self,
        max_passes: int = 50,
        strategy: str | NeighborhoodStrategy = "adjacent-swap",
    ) -> None:
        self._max_passes = max_passes
        self._strategy = get_strategy(strategy)
        if self._strategy.name != "adjacent-swap":
            self.name = f"LocalKemeny[{self._strategy.name}]"

    def _aggregate(self, rankings: RankingSet) -> AggregationResult:
        seed = BordaAggregator().aggregate(rankings)
        engine = KemenyDeltaEngine(rankings, seed)
        stats = self._strategy.search(engine, max_passes=self._max_passes)
        # The objective is queried only after convergence: reading it earlier
        # would force per-pass delta accounting the sweeps otherwise skip.
        diagnostics: dict[str, object] = {
            "objective": engine.objective,
            "n_passes": stats.n_passes,
            "strategy": stats.strategy,
        }
        if stats.n_moves is not None:
            diagnostics["n_moves"] = stats.n_moves
        return AggregationResult(
            ranking=engine.to_ranking(),
            method=self.name,
            diagnostics=diagnostics,
        )
