"""Tests for the RankingSet (base rankings) container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import RankingError, ValidationError


class TestConstruction:
    def test_basic(self, tiny_rankings):
        assert tiny_rankings.n_rankings == 3
        assert tiny_rankings.n_candidates == 6
        assert len(tiny_rankings) == 3

    def test_default_labels(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]])
        assert rankings.labels == ("r1", "r2")

    def test_explicit_labels(self, tiny_rankings):
        assert tiny_rankings.labels == ("r1", "r2", "r3")
        assert tiny_rankings.label_of(2) == "r3"

    def test_empty_rejected(self):
        with pytest.raises(RankingError):
            RankingSet([])

    def test_mixed_universe_rejected(self):
        with pytest.raises(RankingError):
            RankingSet([Ranking([0, 1]), Ranking([0, 1, 2])])

    def test_non_ranking_item_rejected(self):
        with pytest.raises(RankingError):
            RankingSet([[0, 1]])  # type: ignore[list-item]

    def test_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            RankingSet([Ranking([0, 1])], labels=["a", "b"])

    def test_weight_validation(self):
        ranking = Ranking([0, 1])
        with pytest.raises(ValidationError):
            RankingSet([ranking], weights=[-1.0])
        with pytest.raises(ValidationError):
            RankingSet([ranking], weights=[0.0])
        with pytest.raises(ValidationError):
            RankingSet([ranking], weights=[1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weights_rejected(self, bad):
        ranking = Ranking([0, 1])
        with pytest.raises(ValidationError, match="finite"):
            RankingSet([ranking, ranking], weights=[1.0, bad])
        with pytest.raises(ValidationError, match="finite"):
            RankingSet([ranking]).with_added([ranking], weights=[bad])

    def test_from_score_columns(self):
        rankings = RankingSet.from_score_columns(
            {"math": [1.0, 3.0, 2.0], "reading": [3.0, 2.0, 1.0]}
        )
        assert rankings.labels == ("math", "reading")
        assert rankings[0].to_list() == [1, 2, 0]
        assert rankings[1].to_list() == [0, 1, 2]

    def test_iteration_and_indexing(self, tiny_rankings):
        assert list(tiny_rankings)[0] == tiny_rankings[0]


class TestPrecedenceMatrix:
    def test_precedence_counts(self):
        rankings = RankingSet.from_orders([[0, 1, 2], [0, 2, 1], [1, 0, 2]])
        precedence = rankings.precedence_matrix()
        # W[a, b] = number of rankings where b precedes a.
        assert precedence[1, 0] == 2  # 0 above 1 in two rankings
        assert precedence[0, 1] == 1
        assert precedence[2, 0] == 3
        assert precedence[0, 2] == 0
        assert np.all(np.diag(precedence) == 0)

    def test_precedence_pairs_sum_to_ranking_count(self, tiny_rankings):
        precedence = tiny_rankings.precedence_matrix()
        n = tiny_rankings.n_candidates
        for a in range(n):
            for b in range(a + 1, n):
                assert precedence[a, b] + precedence[b, a] == tiny_rankings.n_rankings

    def test_precedence_matrix_is_cached(self, tiny_rankings):
        assert tiny_rankings.precedence_matrix() is tiny_rankings.precedence_matrix()

    def test_weighted_precedence(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]], weights=[3.0, 1.0])
        weighted = rankings.precedence_matrix(weighted=True)
        assert weighted[1, 0] == 3.0
        assert weighted[0, 1] == 1.0

    def test_weighted_precedence_matrix_is_cached(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]], weights=[3.0, 1.0])
        assert rankings.precedence_matrix(weighted=True) is rankings.precedence_matrix(
            weighted=True
        )

    def test_weighted_precedence_read_only(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]], weights=[3.0, 1.0])
        with pytest.raises(ValueError):
            rankings.precedence_matrix(weighted=True)[0, 1] = 9.0

    def test_unit_weights_cached_and_read_only(self, tiny_rankings):
        unit = tiny_rankings.unit_weights
        assert unit is tiny_rankings.unit_weights
        assert unit.tolist() == [1.0] * tiny_rankings.n_rankings
        with pytest.raises(ValueError):
            unit[0] = 2.0

    def test_chunked_broadcast_matches_per_ranking_accumulation(self, rng):
        weights = rng.uniform(0.1, 3.0, 8)
        rankings = RankingSet(
            [Ranking.random(9, rng) for _ in range(8)], weights=weights
        )
        # Force multiple chunks so the chunk boundary logic is exercised.
        rankings._CHUNK_BYTE_BUDGET = 9 * 9 * 3
        for weighted in (False, True):
            matrix = rankings.precedence_matrix(weighted=weighted)
            expected = np.zeros((9, 9))
            used = weights if weighted else np.ones(8)
            for ranking, weight in zip(rankings, used):
                positions = ranking.positions
                expected += weight * (
                    positions[np.newaxis, :] < positions[:, np.newaxis]
                )
            np.fill_diagonal(expected, 0.0)
            assert np.allclose(matrix, expected)

    def test_all_unit_weights_match_the_unweighted_matrix(self, rng):
        rankings = [Ranking.random(40, rng) for _ in range(300)]
        weighted = RankingSet(rankings, weights=[1.0] * 300)
        unweighted = RankingSet(rankings)
        assert np.array_equal(
            weighted.precedence_matrix(weighted=True), unweighted.precedence_matrix()
        )

    def test_has_precedence_matrix_tracks_the_unweighted_cache(self, tiny_rankings):
        assert not tiny_rankings.has_precedence_matrix()
        tiny_rankings.precedence_matrix(weighted=True)
        assert not tiny_rankings.has_precedence_matrix()
        tiny_rankings.precedence_matrix()
        assert tiny_rankings.has_precedence_matrix()

    @pytest.mark.parametrize("k", [1, 300])
    def test_patched_caches_equal_a_rebuild(self, rng, k):
        base = [Ranking.random(30, rng) for _ in range(400)]
        extra = [Ranking.random(30, rng) for _ in range(k)]
        weights = rng.integers(1, 4, 400).astype(float)
        parent = RankingSet(base, weights=weights)
        parent.precedence_matrix()
        parent.precedence_matrix(weighted=True)
        added = parent.with_added(extra)
        removed = parent.with_removed(range(k))
        assert added.has_precedence_matrix() and removed.has_precedence_matrix()
        rebuilt_added = RankingSet(
            base + extra, weights=np.concatenate([weights, np.ones(k)])
        )
        rebuilt_removed = RankingSet(base[k:], weights=weights[k:])
        for patched, rebuilt in ((added, rebuilt_added), (removed, rebuilt_removed)):
            for weighted in (False, True):
                assert np.array_equal(
                    patched.precedence_matrix(weighted=weighted),
                    rebuilt.precedence_matrix(weighted=weighted),
                )
                assert np.array_equal(
                    patched.margin_matrix(weighted=weighted),
                    rebuilt.margin_matrix(weighted=weighted),
                )

    def test_pairwise_support_is_transpose(self, tiny_rankings):
        support = tiny_rankings.pairwise_support()
        assert np.array_equal(support, tiny_rankings.precedence_matrix().T)

    def test_precedence_read_only(self, tiny_rankings):
        with pytest.raises(ValueError):
            tiny_rankings.precedence_matrix()[0, 0] = 1.0

    def test_margin_matrix_is_antisymmetric_difference(self, tiny_rankings):
        margin = tiny_rankings.margin_matrix()
        precedence = tiny_rankings.precedence_matrix()
        assert np.array_equal(margin, precedence - precedence.T)
        assert np.array_equal(margin, -margin.T)

    def test_margin_matrix_is_cached_and_read_only(self, tiny_rankings):
        assert tiny_rankings.margin_matrix() is tiny_rankings.margin_matrix()
        with pytest.raises(ValueError):
            tiny_rankings.margin_matrix()[0, 1] = 1.0

    def test_weighted_margin_matrix(self, tiny_rankings):
        weighted = tiny_rankings.with_weights([0.5, 2.0, 1.25])
        margin = weighted.margin_matrix(weighted=True)
        precedence = weighted.precedence_matrix(weighted=True)
        assert np.array_equal(margin, precedence - precedence.T)
        assert margin is weighted.margin_matrix(weighted=True)
        assert margin is not weighted.margin_matrix()


class TestPositions:
    def test_position_matrix_shape(self, tiny_rankings):
        matrix = tiny_rankings.position_matrix()
        assert matrix.shape == (3, 6)

    def test_mean_positions(self):
        rankings = RankingSet.from_orders([[0, 1], [1, 0]])
        assert rankings.mean_positions().tolist() == [0.5, 0.5]


class TestManipulation:
    def test_with_weights(self, tiny_rankings):
        weighted = tiny_rankings.with_weights([1.0, 2.0, 3.0])
        assert weighted.weights.tolist() == [1.0, 2.0, 3.0]
        assert tiny_rankings.weights.tolist() == [1.0, 1.0, 1.0]

    def test_subset(self, tiny_rankings):
        subset = tiny_rankings.subset([0, 2])
        assert subset.n_rankings == 2
        assert subset.labels == ("r1", "r3")

    def test_subset_empty_rejected(self, tiny_rankings):
        with pytest.raises(RankingError):
            tiny_rankings.subset([])

    def test_extended_with(self, tiny_rankings):
        extra = Ranking([5, 4, 3, 2, 1, 0])
        extended = tiny_rankings.extended_with([extra], labels=["reverse"])
        assert extended.n_rankings == 4
        assert extended.labels[-1] == "reverse"

    def test_extended_with_default_labels(self, tiny_rankings):
        extended = tiny_rankings.extended_with([Ranking([0, 1, 2, 3, 4, 5])])
        assert extended.labels[-1] == "r4"

    def test_to_order_lists(self, tiny_rankings):
        orders = tiny_rankings.to_order_lists()
        assert orders[0] == [0, 3, 5, 1, 2, 4]


class TestFromPositionMatrix:
    def test_round_trips_position_matrix(self, rng):
        orders = np.vstack([rng.permutation(7) for _ in range(5)])
        reference = RankingSet.from_orders(orders)
        rebuilt = RankingSet.from_position_matrix(reference.position_matrix())
        assert rebuilt.to_order_lists() == reference.to_order_lists()

    def test_position_cache_is_preseeded(self):
        positions = np.array([[0, 1, 2], [2, 0, 1]])
        ranking_set = RankingSet.from_position_matrix(positions)
        cached = ranking_set.position_matrix()
        assert np.array_equal(cached, positions)
        assert not cached.flags.writeable
        # The caller's array keeps its own flags: with the default copy=True
        # the cache is a decoupled copy, never an alias of the caller's array.
        assert positions.flags.writeable

    def test_member_rankings_are_consistent(self):
        positions = np.array([[1, 0, 2], [2, 1, 0]])
        ranking_set = RankingSet.from_position_matrix(positions)
        assert ranking_set[0].to_list() == [1, 0, 2]
        assert ranking_set[1].to_list() == [2, 1, 0]

    def test_labels_and_weights_forwarded(self):
        positions = np.array([[0, 1], [1, 0]])
        ranking_set = RankingSet.from_position_matrix(
            positions, labels=["a", "b"], weights=[1.0, 2.0]
        )
        assert ranking_set.labels == ("a", "b")
        assert ranking_set.weights.tolist() == [1.0, 2.0]

    def test_non_permutation_row_rejected(self):
        with pytest.raises(RankingError):
            RankingSet.from_position_matrix(np.array([[0, 1, 2], [0, 0, 2]]))

    def test_wrong_dimensionality_rejected(self):
        with pytest.raises(RankingError):
            RankingSet.from_position_matrix(np.array([0, 1, 2]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(RankingError):
            RankingSet.from_position_matrix(np.empty((0, 4), dtype=np.int64))

    def test_cache_is_decoupled_from_caller_mutation(self):
        positions = np.array([[0, 1, 2], [2, 0, 1]])
        ranking_set = RankingSet.from_position_matrix(positions)
        positions[0] = [2, 1, 0]
        assert ranking_set.position_matrix()[0].tolist() == [0, 1, 2]
        assert ranking_set[0].to_list() == [0, 1, 2]
