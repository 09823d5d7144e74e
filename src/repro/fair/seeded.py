"""Polynomial-time MFCR solutions: Fair-Copeland, Fair-Schulze, Fair-Borda.

Each method (Section III-B of the paper) first produces a fairness-unaware
consensus with a fast aggregation method — Copeland, Schulze, or Borda — and
then corrects it with :func:`repro.fair.make_mr_fair.make_mr_fair` until the
MANI-Rank criteria hold at the requested ``Δ``.

:class:`SeededFairAggregator` is the generic "seed + Make-MR-Fair" template so
that any :class:`~repro.aggregation.base.RankAggregator` (e.g. the footrule or
local-search heuristics) can be made fairness-aware; the three named classes
are the paper's methods.

With ``local_repair=True`` the correction is post-processed by
:func:`repro.fair.local_repair.fair_local_search` — a fairness-preserving
local Kemenization that harvests the adjacent swaps which reduce the Kemeny
objective without leaving the MANI-Rank-feasible region (an extension beyond
the paper; runs on the incremental Kemeny-delta and fairness engines, so the
extra cost is one bubble-pass loop).  Passing a strategy name instead of
``True`` (``"adjacent-swap"``, ``"insertion"``, ``"combined"``) selects the
schedule from :mod:`repro.aggregation.search` that the repair runs on its
fairness-filtered engine view; ``"insertion"`` adds fairness-filtered block
moves and never recovers less Kemeny objective than the adjacent repair.
"""

from __future__ import annotations

from repro.aggregation.base import RankAggregator
from repro.aggregation.borda import BordaAggregator
from repro.aggregation.copeland import CopelandAggregator
from repro.aggregation.footrule import FootruleAggregator
from repro.aggregation.markov_chain import MarkovChainAggregator
from repro.aggregation.ranked_pairs import RankedPairsAggregator
from repro.aggregation.schulze import SchulzeAggregator
from repro.core.candidates import CandidateTable
from repro.core.ranking_set import RankingSet
from repro.fair.base import FairAggregationResult, FairRankAggregator
from repro.fair.make_mr_fair import make_mr_fair
from repro.fairness.thresholds import FairnessThresholds

__all__ = [
    "SeededFairAggregator",
    "FairBordaAggregator",
    "FairCopelandAggregator",
    "FairSchulzeAggregator",
    "FairFootruleAggregator",
    "FairMarkovChainAggregator",
    "FairRankedPairsAggregator",
]


class SeededFairAggregator(FairRankAggregator):
    """Generic MFCR method: fairness-unaware seed consensus + Make-MR-Fair.

    Parameters
    ----------
    seed_aggregator:
        The fairness-unaware method producing the initial consensus.
    name:
        Display name; defaults to ``Fair-<seed name>``.
    local_repair:
        When ``True``, follow the Make-MR-Fair correction with a
        fairness-preserving local Kemenization
        (:func:`repro.fair.local_repair.fair_local_search`) that
        recovers Kemeny objective (and hence PD loss) without violating the
        thresholds.  A strategy name (``"adjacent-swap"``, ``"insertion"``,
        ``"combined"``) selects the repair neighbourhood instead; ``False``
        disables the repair.
    """

    def __init__(
        self,
        seed_aggregator: RankAggregator,
        name: str | None = None,
        local_repair: bool | str = False,
    ) -> None:
        self._seed = seed_aggregator
        if local_repair is True:
            local_repair = "adjacent-swap"
        if local_repair:
            from repro.aggregation.search import get_strategy

            # Validate (and normalise) the strategy name eagerly so a typo
            # fails at construction, not mid-aggregation.
            local_repair = get_strategy(local_repair).name
        self._local_repair: str | bool = local_repair
        self.name = name if name is not None else f"Fair-{seed_aggregator.name}"

    @property
    def seed_aggregator(self) -> RankAggregator:
        """The fairness-unaware method producing the initial consensus."""
        return self._seed

    @property
    def local_repair(self) -> str | bool:
        """The repair strategy name, or ``False`` when the repair is off."""
        return self._local_repair

    def with_local_repair(self, strategy: bool | str) -> "SeededFairAggregator":
        """A copy of this method with the given repair strategy (CLI plumbing).

        The clone reverts to the default ``Fair-<seed>`` name: a bespoke name
        like ``Fair-Borda+LK`` describes a *specific* repair, so keeping it
        while swapping the strategy would mislabel the result (callers that
        care about the repair read the ``repair_strategy`` diagnostic).
        """
        return SeededFairAggregator(self._seed, local_repair=strategy)

    def _aggregate(
        self,
        rankings: RankingSet,
        table: CandidateTable,
        delta: FairnessThresholds,
    ) -> FairAggregationResult:
        seed_result = self._seed.aggregate_with_diagnostics(rankings)
        correction = make_mr_fair(seed_result.ranking, table, delta)
        ranking = correction.ranking
        diagnostics: dict[str, object] = {
            "seed_method": self._seed.name,
            "n_swaps": correction.n_swaps,
            "corrected_entities": correction.corrected_entities,
        }
        if self._local_repair:
            from repro.fair.local_repair import fair_local_search

            repair = fair_local_search(
                rankings, ranking, table, delta, strategy=str(self._local_repair)
            )
            ranking = repair.ranking
            diagnostics["repair_strategy"] = self._local_repair
            diagnostics["repair_swaps"] = repair.n_swaps
            diagnostics["repair_objective"] = repair.objective
            if repair.n_moves is not None:
                diagnostics["repair_moves"] = repair.n_moves
        return FairAggregationResult(
            ranking=ranking,
            method=self.name,
            unaware_ranking=seed_result.ranking,
            diagnostics=diagnostics,
        )


class FairBordaAggregator(SeededFairAggregator):
    """Fair-Borda: Borda consensus corrected with Make-MR-Fair (fastest MFCR method)."""

    def __init__(self, local_repair: bool | str = False) -> None:
        super().__init__(BordaAggregator(), name="Fair-Borda", local_repair=local_repair)


class FairCopelandAggregator(SeededFairAggregator):
    """Fair-Copeland: Copeland consensus corrected with Make-MR-Fair."""

    def __init__(self, local_repair: bool | str = False) -> None:
        super().__init__(
            CopelandAggregator(), name="Fair-Copeland", local_repair=local_repair
        )


class FairSchulzeAggregator(SeededFairAggregator):
    """Fair-Schulze: Schulze consensus corrected with Make-MR-Fair."""

    def __init__(self, local_repair: bool | str = False) -> None:
        super().__init__(
            SchulzeAggregator(), name="Fair-Schulze", local_repair=local_repair
        )


class FairFootruleAggregator(SeededFairAggregator):
    """Fair-Footrule: footrule-optimal consensus corrected with Make-MR-Fair.

    Not part of the paper's method family; included as an extension and used
    by the ablation benchmarks on the choice of seed method.
    """

    def __init__(self) -> None:
        super().__init__(FootruleAggregator(), name="Fair-Footrule")


class FairMarkovChainAggregator(SeededFairAggregator):
    """Fair-MC4: Markov-chain (MC4) consensus corrected with Make-MR-Fair.

    Not part of the paper's method family; included as an extension because
    MC4 is the strongest heuristic of the web rank-aggregation line of work
    the paper builds on.
    """

    def __init__(self) -> None:
        super().__init__(MarkovChainAggregator(), name="Fair-MC4")


class FairRankedPairsAggregator(SeededFairAggregator):
    """Fair-Ranked-Pairs: Tideman consensus corrected with Make-MR-Fair (extension)."""

    def __init__(self) -> None:
        super().__init__(RankedPairsAggregator(), name="Fair-Ranked-Pairs")
