"""Fairness-unaware rank aggregation methods (the consensus substrate).

Every method implements :class:`~repro.aggregation.base.RankAggregator` and
can be obtained by name through :func:`get_aggregator`.
"""

from repro.aggregation.base import AggregationResult, RankAggregator
from repro.aggregation.borda import BordaAggregator, borda_scores
from repro.aggregation.copeland import CopelandAggregator, copeland_scores
from repro.aggregation.footrule import FootruleAggregator, footrule_cost_matrix
from repro.aggregation.incremental import KemenyDeltaEngine
from repro.aggregation.kemeny import KemenyAggregator, exact_kemeny
from repro.aggregation.local_search import (
    LocalSearchKemenyAggregator,
    local_kemenization_reference,
)
from repro.aggregation.markov_chain import (
    MarkovChainAggregator,
    mc4_transition_matrix,
    stationary_distribution,
)
from repro.aggregation.pick_a_perm import PickAPermAggregator
from repro.aggregation.ranked_pairs import RankedPairsAggregator
from repro.aggregation.schulze import SchulzeAggregator, schulze_scores, strongest_paths
from repro.aggregation.search import (
    NeighborhoodStrategy,
    SearchStats,
    available_strategies,
    get_strategy,
    insertion_local_search_reference,
    local_search,
)
from repro.exceptions import AggregationError

__all__ = [
    "RankAggregator",
    "AggregationResult",
    "BordaAggregator",
    "borda_scores",
    "CopelandAggregator",
    "copeland_scores",
    "SchulzeAggregator",
    "schulze_scores",
    "strongest_paths",
    "KemenyAggregator",
    "exact_kemeny",
    "PickAPermAggregator",
    "FootruleAggregator",
    "footrule_cost_matrix",
    "KemenyDeltaEngine",
    "LocalSearchKemenyAggregator",
    "local_kemenization_reference",
    "NeighborhoodStrategy",
    "SearchStats",
    "available_strategies",
    "get_strategy",
    "insertion_local_search_reference",
    "local_search",
    "MarkovChainAggregator",
    "mc4_transition_matrix",
    "stationary_distribution",
    "RankedPairsAggregator",
    "get_aggregator",
    "available_aggregators",
]

_AGGREGATORS: dict[str, type[RankAggregator]] = {
    "borda": BordaAggregator,
    "copeland": CopelandAggregator,
    "schulze": SchulzeAggregator,
    "kemeny": KemenyAggregator,
    "pick-a-perm": PickAPermAggregator,
    "footrule": FootruleAggregator,
    "local-kemeny": LocalSearchKemenyAggregator,
    "mc4": MarkovChainAggregator,
    "ranked-pairs": RankedPairsAggregator,
}


def available_aggregators() -> tuple[str, ...]:
    """Names accepted by :func:`get_aggregator`."""
    return tuple(_AGGREGATORS)


def get_aggregator(name: str, **kwargs: object) -> RankAggregator:
    """Instantiate a fairness-unaware aggregator by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in _AGGREGATORS:
        raise AggregationError(
            f"unknown aggregation method {name!r}; "
            f"available methods: {', '.join(sorted(_AGGREGATORS))}"
        )
    return _AGGREGATORS[key](**kwargs)  # type: ignore[arg-type]
