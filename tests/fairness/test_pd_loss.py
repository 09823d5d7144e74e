"""Tests for PD loss (Definition 9) and the Price of Fairness (Equation 13)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.cache.service import compute_consensus_payload
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.datagen.attributes import scalability_table
from repro.datagen.mallows import sample_mallows
from repro.exceptions import RankingError
from repro.fairness.pd_loss import pd_loss, price_of_fairness


class TestPdLoss:
    def test_identical_base_rankings_and_consensus(self):
        rankings = RankingSet.from_orders([[0, 1, 2]] * 4)
        assert pd_loss(rankings, Ranking([0, 1, 2])) == 0.0

    def test_fully_reversed_consensus(self):
        rankings = RankingSet.from_orders([[0, 1, 2, 3]] * 2)
        assert pd_loss(rankings, Ranking([3, 2, 1, 0])) == 1.0

    def test_intermediate_value(self):
        rankings = RankingSet.from_orders([[0, 1, 2], [2, 1, 0]])
        # Any consensus disagrees with exactly 3 of the 6 base pairs.
        assert pd_loss(rankings, Ranking([0, 1, 2])) == pytest.approx(0.5)

    def test_single_candidate_is_zero(self):
        rankings = RankingSet.from_orders([[0]])
        assert pd_loss(rankings, Ranking([0])) == 0.0

    def test_universe_mismatch(self):
        rankings = RankingSet.from_orders([[0, 1, 2]])
        with pytest.raises(RankingError):
            pd_loss(rankings, Ranking([0, 1]))

    @given(
        st.lists(st.permutations(list(range(5))), min_size=1, max_size=6),
        st.permutations(list(range(5))),
    )
    @settings(max_examples=60, deadline=None)
    def test_pd_loss_in_unit_interval(self, orders, consensus_order):
        rankings = RankingSet.from_orders(orders)
        value = pd_loss(rankings, Ranking(list(consensus_order)))
        assert 0.0 <= value <= 1.0

    @given(st.lists(st.permutations(list(range(5))), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_pd_loss_plus_reverse_is_one(self, orders):
        """Disagreements with a consensus and its reverse partition all pairs."""
        rankings = RankingSet.from_orders(orders)
        consensus = Ranking(list(range(5)))
        assert pd_loss(rankings, consensus) + pd_loss(
            rankings, consensus.reversed()
        ) == pytest.approx(1.0)


class TestPdLossPaths:
    """The O(n^2) read of a cached ``W`` and the batched Kendall pass agree."""

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_both_paths_return_the_identical_float(self, n, weighted, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 60))
        orders = [rng.permutation(n).tolist() for _ in range(m)]
        weights = rng.uniform(0.1, 3.0, m) if weighted else None
        consensus = Ranking(rng.permutation(n).tolist())
        kendall_set = RankingSet.from_orders(orders, weights=weights)
        matrix_set = RankingSet.from_orders(orders, weights=weights)
        matrix_set.precedence_matrix()
        assert not kendall_set.has_precedence_matrix()
        assert matrix_set.has_precedence_matrix()
        assert pd_loss(matrix_set, consensus) == pd_loss(kendall_set, consensus)


class TestPdLossInPayloads:
    """Which PD-loss path a cold consensus payload takes, per method."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"kendall": 0, "precedence": 0}
        kendall = RankingSet.kendall_tau_vector
        accumulate = kernels.precedence_accumulate

        def count_kendall(self, ranking):
            counts["kendall"] += 1
            return kendall(self, ranking)

        def count_precedence(matrix, positions, weights):
            counts["precedence"] += 1
            return accumulate(matrix, positions, weights)

        monkeypatch.setattr(RankingSet, "kendall_tau_vector", count_kendall)
        monkeypatch.setattr(kernels, "precedence_accumulate", count_precedence)
        return counts

    @staticmethod
    def _payload(method: str) -> dict:
        table = scalability_table(40, rng=3)
        rankings = sample_mallows(Ranking.identity(40), 0.6, 30, rng=5)
        return compute_consensus_payload(rankings, table, method=method, delta=0.2)

    @pytest.mark.parametrize("method", ["fair-copeland", "fair-borda-insertion"])
    def test_pairwise_methods_read_the_matrix_they_built(self, calls, method):
        self._payload(method)
        assert calls == {"kendall": 0, "precedence": 1}

    def test_fair_borda_keeps_the_kendall_pass(self, calls):
        self._payload("fair-borda")
        assert calls == {"kendall": 1, "precedence": 0}


class TestPriceOfFairness:
    def test_zero_when_fair_equals_unaware(self):
        rankings = RankingSet.from_orders([[0, 1, 2], [0, 2, 1]])
        consensus = Ranking([0, 1, 2])
        assert price_of_fairness(rankings, consensus, consensus) == 0.0

    def test_positive_when_fair_consensus_is_farther(self):
        rankings = RankingSet.from_orders([[0, 1, 2]] * 3)
        unaware = Ranking([0, 1, 2])
        fair = Ranking([2, 1, 0])
        assert price_of_fairness(rankings, fair, unaware) == pytest.approx(1.0)

    def test_sign_reflects_ordering(self):
        rankings = RankingSet.from_orders([[0, 1, 2]] * 3)
        better = Ranking([0, 1, 2])
        worse = Ranking([1, 0, 2])
        assert price_of_fairness(rankings, worse, better) > 0
        assert price_of_fairness(rankings, better, worse) < 0
