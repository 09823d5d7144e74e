"""Tests for the pluggable local-search neighbourhood strategies.

Three contracts (see :mod:`repro.aggregation.search`):

1. **Equivalence** — the ``adjacent-swap`` strategy is bit-identical to
   :func:`local_kemenization_reference`, and the engine-backed ``insertion``
   strategy returns the identical ranking to the retained from-scratch
   :func:`insertion_local_search_reference` on every input.
2. **Dominance** — for the same input and pass budget, the ``insertion``
   strategy's Kemeny objective is never worse than the ``adjacent-swap``
   strategy's (the acceptance guarantee the ablation experiment asserts per
   grid cell), and a converged insertion search is locally optimal for
   *every* block move.
3. **Plumbing** — strategy resolution, ``LocalSearchKemenyAggregator``
   diagnostics, and the aggregation registry forward ``strategy=...`` end to
   end.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import get_aggregator
from repro.aggregation.incremental import KemenyDeltaEngine
from repro.aggregation.local_search import (
    LocalSearchKemenyAggregator,
    local_kemenization_reference,
)
from repro.aggregation.search import (
    AdjacentSwapStrategy,
    CombinedStrategy,
    InsertionStrategy,
    NeighborhoodStrategy,
    available_strategies,
    get_strategy,
    insertion_local_search_reference,
    local_search,
)
from repro.core.distances import kemeny_objective
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError


def _random_set(rng: np.random.Generator, n: int, m: int) -> RankingSet:
    return RankingSet([Ranking.random(n, rng) for _ in range(m)])


class TestResolution:
    def test_available_strategies(self):
        assert available_strategies() == ("adjacent-swap", "insertion", "combined")

    @pytest.mark.parametrize("name", ["adjacent-swap", "insertion", "combined"])
    def test_names_resolve(self, name):
        strategy = get_strategy(name)
        assert isinstance(strategy, NeighborhoodStrategy)
        assert strategy.name == name

    def test_case_and_whitespace_insensitive(self):
        assert isinstance(get_strategy("  Insertion "), InsertionStrategy)

    def test_instance_passes_through(self):
        strategy = CombinedStrategy()
        assert get_strategy(strategy) is strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(AggregationError, match="unknown local-search strategy"):
            get_strategy("simulated-annealing")

    def test_strategies_are_picklable(self):
        # The ablation experiment ships strategies through a process pool.
        for name in available_strategies():
            clone = pickle.loads(pickle.dumps(get_strategy(name)))
            assert clone.name == name


class TestEquivalence:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_adjacent_swap_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        rankings = _random_set(rng, n, int(rng.integers(1, 8)))
        initial = Ranking.random(n, rng)
        for max_passes in (0, 1, 3, 50):
            assert local_search(
                rankings, initial, strategy="adjacent-swap", max_passes=max_passes
            ) == local_kemenization_reference(
                rankings, initial, max_passes=max_passes
            )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_insertion_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        rankings = _random_set(rng, n, int(rng.integers(1, 8)))
        initial = Ranking.random(n, rng)
        for max_passes in (0, 1, 3, 50):
            assert local_search(
                rankings, initial, strategy="insertion", max_passes=max_passes
            ) == insertion_local_search_reference(
                rankings, initial, max_passes=max_passes
            )

    def test_default_strategy_is_local_kemenization(self, tiny_rankings):
        initial = Ranking([5, 4, 3, 2, 1, 0])
        assert local_search(tiny_rankings, initial) == local_kemenization_reference(
            tiny_rankings, initial
        )


class TestDominance:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_insertion_never_worse_than_adjacent(self, seed):
        """The acceptance guarantee: same input, same budget, objective <=."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        rankings = _random_set(rng, n, int(rng.integers(1, 8)))
        initial = Ranking.random(n, rng)
        max_passes = int(rng.choice([1, 2, 5, 50]))
        adjacent = local_search(
            rankings, initial, strategy="adjacent-swap", max_passes=max_passes
        )
        insertion = local_search(
            rankings, initial, strategy="insertion", max_passes=max_passes
        )
        assert kemeny_objective(insertion, rankings) <= kemeny_objective(
            adjacent, rankings
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_converged_insertion_is_block_move_optimal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 18))
        rankings = _random_set(rng, n, int(rng.integers(1, 6)))
        result = local_search(
            rankings, Ranking.random(n, rng), strategy="insertion"
        )
        engine = KemenyDeltaEngine(rankings, result)
        for candidate in range(n):
            delta, _ = engine.best_move(candidate)
            assert delta >= 0.0

    def test_strategies_never_worsen_the_seed(self, tiny_rankings, rng):
        initial = Ranking.random(6, rng)
        before = kemeny_objective(initial, tiny_rankings)
        for name in available_strategies():
            after = local_search(tiny_rankings, initial, strategy=name)
            assert kemeny_objective(after, tiny_rankings) <= before


class TestSearchBehaviour:
    def test_zero_pass_budget_returns_input(self, tiny_rankings):
        initial = Ranking([5, 4, 3, 2, 1, 0])
        for name in available_strategies():
            assert (
                local_search(tiny_rankings, initial, strategy=name, max_passes=0)
                == initial
            )

    def test_single_candidate(self):
        rankings = RankingSet.from_orders([[0]])
        for name in available_strategies():
            assert local_search(rankings, Ranking([0]), strategy=name) == Ranking([0])

    def test_stats_report_passes_and_moves(self, tiny_rankings):
        initial = Ranking([5, 4, 3, 2, 1, 0])
        engine = KemenyDeltaEngine(tiny_rankings, initial)
        stats = AdjacentSwapStrategy().search(engine)
        assert stats.strategy == "adjacent-swap"
        assert stats.n_moves is None
        assert stats.n_passes >= 1

        engine = KemenyDeltaEngine(tiny_rankings, initial)
        stats = InsertionStrategy().search(engine)
        assert stats.strategy == "insertion"
        assert stats.n_moves is not None and stats.n_moves >= 0

        engine = KemenyDeltaEngine(tiny_rankings, initial)
        stats = CombinedStrategy().search(engine)
        assert stats.strategy == "combined"
        assert stats.n_moves is not None and stats.n_moves >= 0

    def test_combined_result_is_adjacent_optimal(self, tiny_rankings, rng):
        result = local_search(
            tiny_rankings, Ranking.random(6, rng), strategy="combined"
        )
        engine = KemenyDeltaEngine(tiny_rankings, result)
        assert not engine.sweep_adjacent()


class TestAggregatorWiring:
    def test_default_name_and_behaviour_unchanged(self, tiny_rankings):
        aggregator = LocalSearchKemenyAggregator()
        assert aggregator.name == "LocalKemeny"
        result = aggregator.aggregate_with_diagnostics(tiny_rankings)
        assert result.diagnostics["strategy"] == "adjacent-swap"
        assert "n_moves" not in result.diagnostics

    def test_insertion_strategy_name_and_diagnostics(self, tiny_rankings):
        aggregator = LocalSearchKemenyAggregator(strategy="insertion")
        assert aggregator.name == "LocalKemeny[insertion]"
        result = aggregator.aggregate_with_diagnostics(tiny_rankings)
        assert result.diagnostics["strategy"] == "insertion"
        assert result.diagnostics["n_moves"] >= 0
        assert result.diagnostics["objective"] == kemeny_objective(
            result.ranking, tiny_rankings
        )

    def test_insertion_aggregator_never_worse(self, small_rankings):
        default = LocalSearchKemenyAggregator().aggregate_with_diagnostics(
            small_rankings
        )
        insertion = LocalSearchKemenyAggregator(
            strategy="insertion"
        ).aggregate_with_diagnostics(small_rankings)
        assert insertion.diagnostics["objective"] <= default.diagnostics["objective"]

    def test_registry_forwards_strategy(self, tiny_rankings):
        aggregator = get_aggregator("local-kemeny", strategy="insertion")
        assert aggregator.name == "LocalKemeny[insertion]"
        assert aggregator.aggregate(tiny_rankings) == LocalSearchKemenyAggregator(
            strategy="insertion"
        ).aggregate(tiny_rankings)

    def test_unknown_strategy_rejected_at_construction(self):
        with pytest.raises(AggregationError):
            LocalSearchKemenyAggregator(strategy="nope")
