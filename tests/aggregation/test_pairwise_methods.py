"""Tests for the pairwise aggregators: Copeland, Schulze, Pick-A-Perm, local search."""

from __future__ import annotations

import numpy as np

from repro.aggregation.copeland import CopelandAggregator, copeland_scores
from repro.aggregation.local_search import LocalSearchKemenyAggregator
from repro.aggregation.search import local_search
from repro.aggregation.pick_a_perm import PickAPermAggregator
from repro.aggregation.schulze import SchulzeAggregator, schulze_scores, strongest_paths
from repro.core.distances import kemeny_objective, kendall_tau
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet


class TestCopeland:
    def test_scores_unanimous(self):
        rankings = RankingSet.from_orders([[0, 1, 2]] * 3)
        assert copeland_scores(rankings).tolist() == [2.0, 1.0, 0.0]

    def test_condorcet_winner_is_ranked_first(self):
        # Candidate 2 beats every other candidate in a majority of rankings.
        rankings = RankingSet.from_orders([[2, 0, 1], [2, 1, 0], [0, 2, 1]])
        consensus = CopelandAggregator().aggregate(rankings)
        assert consensus[0] == 2

    def test_tie_counts_for_both(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]])
        assert copeland_scores(rankings).tolist() == [1.0, 1.0]

    def test_unanimous_input_recovered(self):
        rankings = RankingSet.from_orders([[1, 3, 0, 2]] * 4)
        assert CopelandAggregator().aggregate(rankings) == Ranking([1, 3, 0, 2])

    def test_borda_tie_break_can_be_disabled(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]])
        plain = CopelandAggregator(tie_break_with_borda=False).aggregate(rankings)
        assert plain == Ranking([0, 1])


class TestSchulze:
    def test_strongest_paths_simple(self):
        support = np.array([[0.0, 3.0], [1.0, 0.0]])
        paths = strongest_paths(support)
        assert paths[0, 1] == 3.0
        assert paths[1, 0] == 0.0

    def test_strongest_paths_indirect_route(self):
        # 0 -> 1 strong, 1 -> 2 strong, 0 -> 2 weak directly: path via 1 wins.
        support = np.array(
            [
                [0.0, 8.0, 1.0],
                [2.0, 0.0, 8.0],
                [9.0 - 8.0, 2.0, 0.0],
            ]
        )
        paths = strongest_paths(support)
        assert paths[0, 2] == 8.0

    def test_condorcet_winner_first(self):
        rankings = RankingSet.from_orders([[2, 0, 1], [2, 1, 0], [0, 2, 1]])
        assert SchulzeAggregator().aggregate(rankings)[0] == 2

    def test_unanimous_input_recovered(self):
        rankings = RankingSet.from_orders([[4, 0, 3, 1, 2]] * 3)
        assert SchulzeAggregator().aggregate(rankings) == Ranking([4, 0, 3, 1, 2])

    def test_scores_monotone_with_wins(self, tiny_rankings):
        scores = schulze_scores(tiny_rankings)
        assert scores.shape == (6,)
        assert scores.max() <= 5

    def test_diagnostics_contain_paths(self, tiny_rankings):
        result = SchulzeAggregator().aggregate_with_diagnostics(tiny_rankings)
        assert result.diagnostics["strongest_paths"].shape == (6, 6)


class TestPickAPerm:
    def test_returns_one_of_the_base_rankings(self, tiny_rankings):
        consensus = PickAPermAggregator().aggregate(tiny_rankings)
        assert any(consensus == base for base in tiny_rankings)

    def test_picks_the_central_ranking(self):
        central = [0, 1, 2, 3]
        rankings = RankingSet.from_orders(
            [central, [1, 0, 2, 3], [0, 1, 3, 2], [3, 2, 1, 0]]
        )
        result = PickAPermAggregator().aggregate_with_diagnostics(rankings)
        assert result.ranking == Ranking(central)
        assert result.diagnostics["selected_index"] == 0

    def test_diagnostics_report_distance(self, tiny_rankings):
        result = PickAPermAggregator().aggregate_with_diagnostics(tiny_rankings)
        expected = sum(
            kendall_tau(result.ranking, other)
            for other in tiny_rankings
            if other != result.ranking
        )
        assert result.diagnostics["total_distance"] == expected


class TestLocalKemenization:
    def test_never_increases_kemeny_objective(self, tiny_rankings):
        seed = Ranking([5, 4, 3, 2, 1, 0])
        improved = local_search(tiny_rankings, seed)
        assert kemeny_objective(improved, tiny_rankings) <= kemeny_objective(
            seed, tiny_rankings
        )

    def test_local_optimality_under_adjacent_swaps(self, tiny_rankings):
        improved = local_search(tiny_rankings, Ranking.identity(6))
        objective = kemeny_objective(improved, tiny_rankings)
        for position in range(5):
            swapped = improved.swap(
                improved.candidate_at(position), improved.candidate_at(position + 1)
            )
            assert kemeny_objective(swapped, tiny_rankings) >= objective

    def test_aggregator_close_to_exact_kemeny(self, tiny_rankings):
        from repro.aggregation.kemeny import KemenyAggregator

        heuristic = LocalSearchKemenyAggregator().aggregate(tiny_rankings)
        exact = KemenyAggregator().aggregate_with_diagnostics(tiny_rankings)
        gap = kemeny_objective(heuristic, tiny_rankings) - exact.diagnostics["objective"]
        assert gap >= 0
        assert gap <= 3  # near-optimal on this tiny instance
