"""MFCR solutions: Fair-Kemeny, Fair-Copeland, Fair-Schulze, Fair-Borda, and baselines."""

from repro.fair.base import FairAggregationResult, FairRankAggregator
from repro.fair.baselines import (
    CorrectFairestPermBaseline,
    KemenyWeightedBaseline,
    PickFairestPermBaseline,
    UnawareKemenyBaseline,
    rank_base_rankings_by_fairness,
    unfairness_score,
)
from repro.fair.fair_kemeny import CONSTRAINT_MODES, FairKemenyAggregator, add_parity_constraints
from repro.fair.local_repair import (
    FairLocalRepairResult,
    fair_insertion_kemenization_reference,
    fair_local_kemenization_reference,
    fair_local_search,
)
from repro.fair.make_mr_fair import MakeMRFairResult, make_mr_fair
from repro.fair.sharding import default_shard_count, make_mr_fair_sharded
from repro.fair.registry import (
    PAPER_LABELS,
    available_fair_methods,
    baseline_methods,
    get_fair_method,
    proposed_methods,
)
from repro.fair.seeded import (
    FairBordaAggregator,
    FairCopelandAggregator,
    FairFootruleAggregator,
    FairMarkovChainAggregator,
    FairRankedPairsAggregator,
    FairSchulzeAggregator,
    SeededFairAggregator,
)

__all__ = [
    "FairRankAggregator",
    "FairAggregationResult",
    "make_mr_fair",
    "MakeMRFairResult",
    "make_mr_fair_sharded",
    "default_shard_count",
    "fair_local_kemenization_reference",
    "fair_insertion_kemenization_reference",
    "fair_local_search",
    "FairLocalRepairResult",
    "FairKemenyAggregator",
    "add_parity_constraints",
    "CONSTRAINT_MODES",
    "SeededFairAggregator",
    "FairBordaAggregator",
    "FairCopelandAggregator",
    "FairSchulzeAggregator",
    "FairFootruleAggregator",
    "FairMarkovChainAggregator",
    "FairRankedPairsAggregator",
    "UnawareKemenyBaseline",
    "KemenyWeightedBaseline",
    "PickFairestPermBaseline",
    "CorrectFairestPermBaseline",
    "unfairness_score",
    "rank_base_rankings_by_fairness",
    "PAPER_LABELS",
    "available_fair_methods",
    "get_fair_method",
    "proposed_methods",
    "baseline_methods",
]
