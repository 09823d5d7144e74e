"""Cross-backend bit-identity property suite.

Every registered kernel backend must produce **bit-identical** results to
the ``numpy`` backend (itself the pre-seam loops extracted verbatim) on the
unweighted integer-valued inputs the engines feed it: same orders, same
objectives, same parity floats, compared with ``==`` — no tolerances.  The
suite drives randomized sweep / move / swap / repair traces through every
backend; the ``numba`` leg auto-skips with the registry's reason when numba
is not importable (see ``conftest.backend_params``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.incremental import KemenyDeltaEngine
from repro.core.candidates import CandidateTable
from repro.core.pairwise import favored_mixed_pairs_by_group_naive
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import AggregationError
from repro.fair.make_mr_fair import make_mr_fair
from repro.fairness.incremental import FairnessState
from repro.kernels import get_backend


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


class TestSweepTraces:
    """The carry-run bubble sweep: identical orders and objectives."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_full_sweep_to_convergence(self, backend_name, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(6, 24)), int(rng.integers(3, 12))
        rankings = _random_profile(rng, n, m)
        initial = Ranking(rng.permutation(n).tolist())
        engine = KemenyDeltaEngine(rankings, initial, backend=backend_name)
        reference = KemenyDeltaEngine(rankings, initial, backend="numpy")
        improved, steps = True, 0
        while improved and steps < 10_000:
            improved = engine.sweep_adjacent()
            assert improved == reference.sweep_adjacent()
            assert engine.order_list == reference.order_list
            assert engine.objective == reference.objective
            steps += 1
        assert not improved

    @pytest.mark.parametrize("seed", [10, 11])
    def test_sweep_interleaved_with_swaps(self, backend_name, seed):
        rng = np.random.default_rng(seed)
        n = 12
        rankings = _random_profile(rng, n, 7)
        initial = Ranking(rng.permutation(n).tolist())
        engine = KemenyDeltaEngine(rankings, initial, backend=backend_name)
        reference = KemenyDeltaEngine(rankings, initial, backend="numpy")
        for _ in range(30):
            first, second = rng.choice(n, size=2, replace=False)
            assert engine.apply_swap(first, second) == reference.apply_swap(
                first, second
            )
            engine.sweep_adjacent()
            reference.sweep_adjacent()
            assert engine.order_list == reference.order_list
            assert engine.objective == reference.objective


class TestMoveTraces:
    """Block-move scoring: identical delta vectors and applied objectives."""

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_move_deltas_every_candidate(self, backend_name, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 20))
        rankings = _random_profile(rng, n, 9)
        initial = Ranking(rng.permutation(n).tolist())
        engine = KemenyDeltaEngine(rankings, initial, backend=backend_name)
        reference = KemenyDeltaEngine(rankings, initial, backend="numpy")
        for candidate in range(n):
            assert np.array_equal(
                engine.move_deltas(candidate), reference.move_deltas(candidate)
            )

    @pytest.mark.parametrize("seed", [30, 31])
    def test_random_move_trace(self, backend_name, seed):
        rng = np.random.default_rng(seed)
        n = 15
        rankings = _random_profile(rng, n, 6)
        initial = Ranking(rng.permutation(n).tolist())
        engine = KemenyDeltaEngine(rankings, initial, backend=backend_name)
        reference = KemenyDeltaEngine(rankings, initial, backend="numpy")
        for _ in range(40):
            candidate = int(rng.integers(n))
            position = int(rng.integers(n))
            assert engine.apply_move(candidate, position) == reference.apply_move(
                candidate, position
            )
            assert engine.order_list == reference.order_list
            assert engine.objective == reference.objective


class TestParityTraces:
    """Per-swap parity updates: identical floats after randomized traces."""

    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_swap_and_move_trace(self, backend_name, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 20))
        table = _random_table(rng, n)
        ranking = Ranking(rng.permutation(n).tolist())
        state = FairnessState(ranking, table, backend=backend_name)
        reference = FairnessState(ranking, table, backend="numpy")
        for _ in range(50):
            if rng.random() < 0.5:
                first, second = rng.choice(n, size=2, replace=False)
                assert state.parity_after_swap(
                    int(first), int(second)
                ) == reference.parity_after_swap(int(first), int(second))
                state.apply_swap(int(first), int(second))
                reference.apply_swap(int(first), int(second))
            else:
                candidate = int(rng.integers(n))
                position = int(rng.integers(n))
                assert state.parity_after_move(
                    candidate, position
                ) == reference.parity_after_move(candidate, position)
                state.apply_move(candidate, position)
                reference.apply_move(candidate, position)
            assert state.parity_scores() == reference.parity_scores()
            for entity in table.all_fairness_entities():
                assert np.array_equal(
                    state.favored_counts(entity), reference.favored_counts(entity)
                )


class TestRepairTraces:
    """Make-MR-Fair end to end: identical repaired rankings per backend."""

    @pytest.mark.parametrize("seed", [50, 51, 52, 53])
    def test_repair_matches_numpy(self, backend_name, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 18))
        table = _random_table(rng, n)
        ranking = Ranking(rng.permutation(n).tolist())
        delta = float(rng.choice([0.05, 0.1, 0.2]))
        try:
            reference = make_mr_fair(ranking, table, delta, backend="numpy")
        except AggregationError as error:
            # Infeasible threshold for this random group structure: every
            # backend must fail the same way.
            with pytest.raises(AggregationError, match="no progress"):
                make_mr_fair(ranking, table, delta, backend=backend_name)
            assert "no progress" in str(error)
            return
        result = make_mr_fair(ranking, table, delta, backend=backend_name)
        assert result.ranking == reference.ranking
        assert result.n_swaps == reference.n_swaps
        assert result.corrected_entities == reference.corrected_entities
        assert result.converged == reference.converged


class TestSharedKernels:
    """The core precedence / favored-pair kernels against naive references."""

    @pytest.mark.parametrize("seed", [60, 61])
    def test_precedence_accumulate(self, backend_name, seed):
        rng = np.random.default_rng(seed)
        n, m = 10, 8
        positions = np.argsort(
            np.stack([rng.permutation(n) for _ in range(m)]), axis=1
        ).astype(np.int64)
        weights = np.ones(m, dtype=np.float64)
        matrix = np.zeros((n, n), dtype=np.float64)
        get_backend(backend_name).precedence_accumulate(matrix, positions, weights)
        naive = np.zeros((n, n))
        for r in range(m):
            for a in range(n):
                for b in range(n):
                    if positions[r, b] < positions[r, a]:
                        naive[a, b] += 1.0
        assert np.array_equal(matrix, naive)

    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_favored_mixed_pairs_by_group(self, backend_name, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        n_groups = int(rng.integers(2, 5))
        membership = rng.integers(0, n_groups, n).astype(np.int64)
        ranking = Ranking(rng.permutation(n).tolist())
        counts = get_backend(backend_name).favored_mixed_pairs_by_group(
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
    """The numpy backend's counted unit-weight branch and its einsum fallback."""

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
        get_backend("numpy").precedence_accumulate(matrix, positions, weights)
        naive = _naive_precedence(positions, weights)
        assert np.array_equal(matrix, naive)
        if profile == "identical" and n > 1:
            assert matrix.max() == m

    @pytest.mark.parametrize("seed", [80, 81, 82])
    def test_non_dyadic_weights_take_the_einsum_branch(self, seed, monkeypatch):
        from repro.kernels import numpy_backend

        def _refuse(positions):
            raise AssertionError("weighted block took the counted branch")

        monkeypatch.setattr(numpy_backend, "_precedence_counts", _refuse)
        rng = np.random.default_rng(seed)
        n, m = 12, 40
        positions = np.argsort(
            np.stack([rng.permutation(n) for _ in range(m)]), axis=1
        ).astype(np.int64)
        weights = rng.uniform(0.1, 3.0, m)
        weights[0] = 1.0
        matrix = np.zeros((n, n))
        get_backend("numpy").precedence_accumulate(matrix, positions, weights)
        # The expression every precedence build ran before the counted branch.
        expected = np.zeros((n, n))
        precedes = positions[:, np.newaxis, :] < positions[:, :, np.newaxis]
        expected += np.einsum("r,rab->ab", weights, precedes)
        assert np.array_equal(matrix, expected)
