"""The :mod:`repro.kernels` functions against naive references.

Values are compared with ``==`` — no tolerances.  Randomized sweep / move /
swap / repair traces drive the engines built on these kernels and check
every step against a from-scratch recomputation (Kemeny objective, parity
scores, the retained ``*_reference`` oracles); the kernels themselves are
checked against plain Python loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.aggregation.incremental import KemenyDeltaEngine
from repro.aggregation.local_search import local_kemenization_reference
from repro.core.candidates import CandidateTable
from repro.core.distances import kemeny_objective
from repro.core.pairwise import favored_mixed_pairs_by_group_naive
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError
from repro.fair.make_mr_fair import make_mr_fair, make_mr_fair_reference
from repro.fairness.incremental import FairnessState
from repro.fairness.parity import parity_scores


def _random_profile(rng: np.random.Generator, n: int, m: int) -> RankingSet:
    orders = [rng.permutation(n).tolist() for _ in range(m)]
    return RankingSet.from_orders(orders)


def _random_table(rng: np.random.Generator, n: int) -> CandidateTable:
    columns = {}
    for index in range(2):
        cardinality = int(rng.integers(2, 4))
        values = [f"v{v}" for v in range(cardinality)]
        values += [f"v{int(v)}" for v in rng.integers(0, cardinality, n - cardinality)]
        rng.shuffle(values)
        columns[f"P{index}"] = values
    return CandidateTable(columns)


def _objective(rankings: RankingSet, order: list[int]) -> float:
    """The Kemeny objective of ``order`` evaluated from scratch."""
    return kemeny_objective(Ranking(order), rankings)


def _moved(order: list[int], candidate: int, position: int) -> list[int]:
    """``order`` with ``candidate`` block-moved to ``position``."""
    moved = [other for other in order if other != candidate]
    moved.insert(position, candidate)
    return moved


class TestSweepTraces:
    """The carry-run bubble sweep: one reference pass per sweep."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_full_sweep_to_convergence(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(6, 24)), int(rng.integers(3, 12))
        rankings = _random_profile(rng, n, m)
        initial = Ranking(rng.permutation(n).tolist())
        engine = KemenyDeltaEngine(rankings, initial)
        expected = initial
        improved, steps = True, 0
        while improved and steps < 10_000:
            before = expected.to_list()
            expected = local_kemenization_reference(rankings, expected, max_passes=1)
            improved = engine.sweep_adjacent()
            assert improved == (expected.to_list() != before)
            assert engine.order_list == expected.to_list()
            assert engine.objective == _objective(rankings, engine.order_list)
            steps += 1
        assert not improved
        margin = rankings.margin_matrix()
        order = engine.order_list
        assert all(margin[order[i], order[i + 1]] <= 0.0 for i in range(n - 1))

    @pytest.mark.parametrize("seed", [10, 11])
    def test_sweep_interleaved_with_swaps(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        rankings = _random_profile(rng, n, 7)
        initial = Ranking(rng.permutation(n).tolist())
        engine = KemenyDeltaEngine(rankings, initial)
        for _ in range(30):
            first, second = (int(c) for c in rng.choice(n, size=2, replace=False))
            expected = Ranking(engine.order_list).swap(first, second)
            before = engine.objective
            delta = engine.apply_swap(first, second)
            assert engine.order_list == expected.to_list()
            assert delta == _objective(rankings, engine.order_list) - before
            expected = local_kemenization_reference(rankings, expected, max_passes=1)
            engine.sweep_adjacent()
            assert engine.order_list == expected.to_list()
            assert engine.objective == _objective(rankings, engine.order_list)


class TestMoveTraces:
    """Block-move scoring: delta vectors and applied objectives from scratch."""

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_move_deltas_every_candidate(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 20))
        rankings = _random_profile(rng, n, 9)
        initial = Ranking(rng.permutation(n).tolist())
        engine = KemenyDeltaEngine(rankings, initial)
        order = engine.order_list[:]
        base = _objective(rankings, order)
        for candidate in range(n):
            expected = [
                _objective(rankings, _moved(order, candidate, target)) - base
                for target in range(n)
            ]
            assert engine.move_deltas(candidate).tolist() == expected

    @pytest.mark.parametrize("seed", [30, 31])
    def test_random_move_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = 15
        rankings = _random_profile(rng, n, 6)
        initial = Ranking(rng.permutation(n).tolist())
        engine = KemenyDeltaEngine(rankings, initial)
        for _ in range(40):
            candidate = int(rng.integers(n))
            position = int(rng.integers(n))
            expected = _moved(engine.order_list, candidate, position)
            before = engine.objective
            delta = engine.apply_move(candidate, position)
            assert engine.order_list == expected
            assert delta == _objective(rankings, expected) - before
            assert engine.objective == _objective(rankings, expected)


class TestParityTraces:
    """Per-swap parity updates: the rescored ranking after randomized traces."""

    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_swap_and_move_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 20))
        table = _random_table(rng, n)
        ranking = Ranking(rng.permutation(n).tolist())
        state = FairnessState(ranking, table)
        for _ in range(50):
            if rng.random() < 0.5:
                first, second = (int(c) for c in rng.choice(n, size=2, replace=False))
                ranking = ranking.swap(first, second)
                assert state.parity_after_swap(first, second) == parity_scores(
                    ranking, table
                )
                state.apply_swap(first, second)
            else:
                candidate = int(rng.integers(n))
                position = int(rng.integers(n))
                ranking = Ranking(_moved(ranking.to_list(), candidate, position))
                assert state.parity_after_move(candidate, position) == parity_scores(
                    ranking, table
                )
                state.apply_move(candidate, position)
            assert state.order_list == ranking.to_list()
            assert state.parity_scores() == parity_scores(ranking, table)
            for entity in table.all_fairness_entities():
                membership = table.group_membership_array(entity)
                naive = favored_mixed_pairs_by_group_naive(
                    ranking, membership, int(membership.max()) + 1
                )
                assert np.array_equal(
                    state.favored_counts(entity), np.asarray(naive)
                )


class TestRepairTraces:
    """Make-MR-Fair end to end: the from-scratch reference's repaired ranking."""

    @pytest.mark.parametrize("seed", [50, 51, 52, 53])
    def test_repair_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 18))
        table = _random_table(rng, n)
        ranking = Ranking(rng.permutation(n).tolist())
        delta = float(rng.choice([0.05, 0.1, 0.2]))
        try:
            reference = make_mr_fair_reference(ranking, table, delta)
        except AggregationError as error:
            # Infeasible threshold for this random group structure: the
            # engine-backed repair must fail the same way.
            with pytest.raises(AggregationError, match="no progress"):
                make_mr_fair(ranking, table, delta)
            assert "no progress" in str(error)
            return
        result = make_mr_fair(ranking, table, delta)
        assert result.ranking == reference.ranking
        assert result.n_swaps == reference.n_swaps
        assert result.corrected_entities == reference.corrected_entities
        assert result.converged == reference.converged


class TestSharedKernels:
    """The core precedence / favored-pair kernels against naive references."""

    @pytest.mark.parametrize("seed", [60, 61])
    def test_precedence_accumulate(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 10, 8
        positions = np.argsort(
            np.stack([rng.permutation(n) for _ in range(m)]), axis=1
        ).astype(np.int64)
        weights = np.ones(m, dtype=np.float64)
        matrix = np.zeros((n, n), dtype=np.float64)
        kernels.precedence_accumulate(matrix, positions, weights)
        naive = np.zeros((n, n))
        for r in range(m):
            for a in range(n):
                for b in range(n):
                    if positions[r, b] < positions[r, a]:
                        naive[a, b] += 1.0
        assert np.array_equal(matrix, naive)

    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_favored_mixed_pairs_by_group(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        n_groups = int(rng.integers(2, 5))
        membership = rng.integers(0, n_groups, n).astype(np.int64)
        ranking = Ranking(rng.permutation(n).tolist())
        counts = kernels.favored_mixed_pairs_by_group(
            ranking.order, membership, n_groups
        )
        naive = favored_mixed_pairs_by_group_naive(ranking, membership, n_groups)
        assert np.array_equal(np.asarray(counts), np.asarray(naive))


def _naive_precedence(positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One ranking at a time: ``naive[a, b] += w_r`` when ``b`` precedes ``a``."""
    n = positions.shape[1]
    naive = np.zeros((n, n))
    for row, weight in zip(positions, weights):
        naive += weight * (row[np.newaxis, :] < row[:, np.newaxis])
    return naive


class TestCountedPrecedence:
    """The counted unit-weight branch and its einsum fallback."""

    @pytest.mark.parametrize("n", [1, 2, 200])
    @pytest.mark.parametrize("m", [1, 254, 255, 256, 600])
    @pytest.mark.parametrize("profile", ["random", "identical"])
    def test_counted_branch_matches_naive_loop(self, n, m, profile):
        # Identical rankings drive every off-diagonal count to 0 or m, so the
        # uint8 accumulator reaches exactly 255 before its flush.
        rng = np.random.default_rng(n * 1000 + m)
        if profile == "identical":
            rows = np.tile(rng.permutation(n), (m, 1))
        else:
            rows = np.stack([rng.permutation(n) for _ in range(m)])
        positions = np.argsort(rows, axis=1).astype(np.int64)
        weights = np.ones(m)
        matrix = np.zeros((n, n))
        kernels.precedence_accumulate(matrix, positions, weights)
        naive = _naive_precedence(positions, weights)
        assert np.array_equal(matrix, naive)
        if profile == "identical" and n > 1:
            assert matrix.max() == m

    @pytest.mark.parametrize("seed", [80, 81, 82])
    def test_non_dyadic_weights_take_the_einsum_branch(self, seed, monkeypatch):
        def _refuse(positions):
            raise AssertionError("weighted block took the counted branch")

        monkeypatch.setattr(kernels, "_precedence_counts", _refuse)
        rng = np.random.default_rng(seed)
        n, m = 12, 40
        positions = np.argsort(
            np.stack([rng.permutation(n) for _ in range(m)]), axis=1
        ).astype(np.int64)
        weights = rng.uniform(0.1, 3.0, m)
        weights[0] = 1.0
        matrix = np.zeros((n, n))
        kernels.precedence_accumulate(matrix, positions, weights)
        # The expression every precedence build ran before the counted branch.
        expected = np.zeros((n, n))
        precedes = positions[:, np.newaxis, :] < positions[:, :, np.newaxis]
        expected += np.einsum("r,rab->ab", weights, precedes)
        assert np.array_equal(matrix, expected)


def _naive_parity(counts, denominators) -> float:
    scores = [count / denominator for count, denominator in zip(counts, denominators)]
    return max(scores) - min(scores)


def _random_groups(rng: np.random.Generator):
    n_groups = int(rng.integers(2, 6))
    favored = [int(v) for v in rng.integers(0, 200, n_groups)]
    denominators = [int(v) for v in rng.integers(1, 300, n_groups)]
    return n_groups, favored, denominators


class TestParityKernels:
    """The list-based parity kernels against a recount of every group."""

    @pytest.mark.parametrize("seed", [90, 91, 92])
    def test_parity_after_swap(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n_groups, favored, denominators = _random_groups(rng)
            group_u, group_v = (int(g) for g in rng.choice(n_groups, 2, replace=False))
            gap = int(rng.integers(0, 40))
            counts = favored[:]
            counts[group_u] -= gap
            counts[group_v] += gap
            assert kernels.parity_after_swap(
                favored, denominators, group_u, group_v, gap
            ) == _naive_parity(counts, denominators)

    @pytest.mark.parametrize("seed", [93, 94, 95])
    def test_parity_after_deltas(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n_groups, favored, denominators = _random_groups(rng)
            deltas = [int(v) for v in rng.integers(-30, 30, n_groups)]
            counts = [count + delta for count, delta in zip(favored, deltas)]
            assert kernels.parity_after_deltas(
                favored, deltas, denominators
            ) == _naive_parity(counts, denominators)

    @pytest.mark.parametrize("seed", [96, 97, 98])
    def test_move_histogram(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            n_groups = int(rng.integers(2, 5))
            membership = [int(g) for g in rng.integers(0, n_groups, n)]
            candidate = int(rng.integers(n))
            others = [c for c in range(n) if c != candidate]
            window = [int(c) for c in rng.permutation(others)[: rng.integers(0, n)]]
            falling = bool(rng.random() < 0.5)
            expected = [0] * n_groups
            for other in window:
                if membership[other] != membership[candidate]:
                    expected[membership[other]] += 1
                    expected[membership[candidate]] -= 1
            if not falling:
                expected = [-count for count in expected]
            assert list(
                kernels.move_histogram(membership, window, candidate, falling, n_groups)
            ) == expected


class TestSweepKernels:
    """The sweep mask and the bubble pass's reported improvement."""

    @pytest.mark.parametrize("seed", [100, 101])
    def test_build_sweep_mask(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        # An even profile leaves tied pairs (margin 0), which never improve.
        margin = _random_profile(rng, n, 6).margin_matrix()
        order = rng.permutation(n).astype(np.int64)
        mask = kernels.build_sweep_mask(order, margin)
        assert mask.tolist() == [
            bool(margin[order[i], order[i + 1]] > 0.0) for i in range(n - 1)
        ]

    @pytest.mark.parametrize("seed", [102, 103])
    def test_sweep_improvement_is_objective_drop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        rankings = _random_profile(rng, n, 6)
        margin = rankings.margin_matrix()
        order = rng.permutation(n).astype(np.int64)
        mask = kernels.build_sweep_mask(order, margin)
        swapped = True
        while swapped:
            before = order.tolist()
            expected = local_kemenization_reference(
                rankings, Ranking(before), max_passes=1
            )
            swapped, improvement = kernels.sweep_adjacent(order, margin, mask, True)
            assert order.tolist() == expected.to_list()
            assert swapped == (order.tolist() != before)
            assert improvement == _objective(rankings, before) - _objective(
                rankings, order.tolist()
            )
            assert mask.tolist() == kernels.build_sweep_mask(order, margin).tolist()
