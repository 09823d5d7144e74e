"""Edge-case tests for local Kemenization (engine-backed and reference).

The happy-path behaviour is covered by ``test_pairwise_methods.py`` and the
engine equivalence by ``test_incremental.py``; this module pins down the
boundary behaviour both implementations must share: a zero pass budget, a
single-candidate universe, inputs that are already locally optimal, and the
Condorcet-winner guarantee local Kemenization is used for in the literature.
"""

from __future__ import annotations

import pytest

from repro.aggregation.local_search import (
    LocalSearchKemenyAggregator,
    local_kemenization_reference,
)
from repro.aggregation.search import local_search
from repro.core.distances import kemeny_objective
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet


def _adjacent_local_search(rankings, initial, max_passes=50):
    """The engine-backed adjacent-swap schedule, shaped like the reference."""
    return local_search(rankings, initial, "adjacent-swap", max_passes=max_passes)


IMPLEMENTATIONS = [_adjacent_local_search, local_kemenization_reference]


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
class TestEdgeCases:
    def test_zero_pass_budget_returns_input_unchanged(
        self, implementation, tiny_rankings
    ):
        initial = Ranking([5, 4, 3, 2, 1, 0])
        result = implementation(tiny_rankings, initial, max_passes=0)
        assert result == initial
        # The input itself must not have been mutated in place.
        assert initial.to_list() == [5, 4, 3, 2, 1, 0]

    def test_single_candidate_universe(self, implementation):
        rankings = RankingSet.from_orders([[0], [0], [0]])
        assert implementation(rankings, Ranking([0])) == Ranking([0])

    def test_two_candidates_converge_to_majority_order(self, implementation):
        rankings = RankingSet.from_orders([[1, 0], [1, 0], [0, 1]])
        assert implementation(rankings, Ranking([0, 1])) == Ranking([1, 0])

    def test_already_optimal_input_unchanged(self, implementation):
        # A unanimous profile: the shared order is globally (hence locally)
        # optimal, so local search must return it untouched.
        rankings = RankingSet.from_orders([[2, 0, 3, 1]] * 5)
        optimal = Ranking([2, 0, 3, 1])
        assert implementation(rankings, optimal) == optimal

    def test_locally_optimal_input_is_a_fixed_point(
        self, implementation, tiny_rankings
    ):
        # Converge once, then feed the result back in: a second run must be
        # the identity (no adjacent swap can improve a local optimum).
        converged = local_kemenization_reference(
            tiny_rankings, Ranking.identity(6)
        )
        assert implementation(tiny_rankings, converged) == converged

    def test_condorcet_winner_rises_to_the_top(self, implementation):
        # Candidate 3 beats every other candidate in a pairwise majority but
        # starts in last place; each bubble pass lifts it one position, so it
        # must finish first once the pass budget covers the distance.
        rankings = RankingSet.from_orders(
            [
                [3, 0, 1, 2, 4],
                [3, 1, 4, 0, 2],
                [0, 3, 2, 4, 1],
                [1, 3, 4, 2, 0],
                [4, 3, 0, 1, 2],
            ]
        )
        initial = Ranking([0, 1, 2, 4, 3])
        result = implementation(rankings, initial, max_passes=50)
        assert result[0] == 3

    def test_insufficient_passes_lift_condorcet_winner_partially(
        self, implementation
    ):
        # With a single pass the winner gains exactly one position — pinning
        # the pass semantics both implementations must share.
        rankings = RankingSet.from_orders(
            [
                [3, 0, 1, 2, 4],
                [3, 1, 4, 0, 2],
                [0, 3, 2, 4, 1],
                [1, 3, 4, 2, 0],
                [4, 3, 0, 1, 2],
            ]
        )
        initial = Ranking([0, 1, 2, 4, 3])
        one_pass = implementation(rankings, initial, max_passes=1)
        assert one_pass.position_of(3) == initial.position_of(3) - 1

    def test_never_increases_objective(self, implementation, tiny_rankings):
        for order in ([5, 4, 3, 2, 1, 0], [0, 1, 2, 3, 4, 5], [2, 4, 0, 5, 3, 1]):
            initial = Ranking(order)
            result = implementation(tiny_rankings, initial)
            assert kemeny_objective(result, tiny_rankings) <= kemeny_objective(
                initial, tiny_rankings
            )


class TestAggregatorDiagnostics:
    def test_reports_objective_and_passes(self, tiny_rankings):
        result = LocalSearchKemenyAggregator().aggregate_with_diagnostics(
            tiny_rankings
        )
        assert result.diagnostics["objective"] == kemeny_objective(
            result.ranking, tiny_rankings
        )
        assert result.diagnostics["n_passes"] >= 0

    def test_max_passes_zero_returns_borda_seed(self, tiny_rankings):
        from repro.aggregation.borda import BordaAggregator

        seed = BordaAggregator().aggregate(tiny_rankings)
        result = LocalSearchKemenyAggregator(max_passes=0).aggregate(tiny_rankings)
        assert result == seed
