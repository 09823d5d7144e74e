"""Default compute-kernel backend: the engines' original numpy/CPython loops.

Every method body here is the hot loop extracted *verbatim* from the engine it
used to live in (:class:`~repro.aggregation.incremental.KemenyDeltaEngine`,
:class:`~repro.fairness.incremental.FairnessState`'s ``_EntityStats``, and the
shared kernels in :mod:`repro.core`), so routing through this backend is
bit-identical to the pre-seam code by construction — same operations in the
same order on the same representations.  Do not "improve" these loops in
place: alternative implementations belong in a new backend, gated by the
cross-backend bit-identity suite.

One deliberate exception: :meth:`NumpyKernelBackend.precedence_accumulate`
counts unit-weight blocks (every weight exactly ``1.0``, i.e. every
unweighted precedence build and streaming patch) with small-integer
comparisons instead of the float ``einsum``.  It is bit-identical because
the ``einsum`` of unit weights sums exact integers below 2^53 in float64,
so every entry already *is* the integer count, and the counted branch adds
those same integers to the float matrix.  Any other weights keep the
original ``einsum`` line.  ``tests/kernels/test_bit_identity.py``
(``TestCountedPrecedence``) and ``tests/core/test_ranking_set.py`` pin
both branches against the naive loop and the original expression.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.kernels.base import KernelBackend

__all__ = ["NumpyKernelBackend"]

#: Byte budget of one boolean comparison block in the counted precedence pass.
_COUNT_BLOCK_BYTES = 1 << 20

#: Rankings a ``uint8`` count can absorb before it must be flushed to int64.
_UINT8_FLUSH = np.iinfo(np.uint8).max


def _precedence_counts(positions: np.ndarray) -> np.ndarray:
    """Integer precedence counts of a block of rankings (all weights 1).

    ``counts[a, b]`` is the number of rows of ``positions`` placing ``b``
    before ``a``.  Positions are compared as ``int16`` (``int32`` past its
    range) in blocks of at most :data:`_COUNT_BLOCK_BYTES` bytes of
    ``bool``; each block is reduced as ``uint8`` into a ``uint8``
    accumulator that is flushed into ``int64`` before it could hold more
    than 255 rankings.
    """
    m, n = positions.shape
    dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
    positions = positions.astype(dtype)
    step = max(1, min(_UINT8_FLUSH, _COUNT_BLOCK_BYTES // (n * n)))
    counts = np.zeros((n, n), dtype=np.int64)
    pending = np.zeros((n, n), dtype=np.uint8)
    partial = np.empty((n, n), dtype=np.uint8)
    buffer = np.empty((step, n, n), dtype=bool)
    held = 0
    for start in range(0, m, step):
        block = positions[start : start + step]
        k = block.shape[0]
        if held + k > _UINT8_FLUSH:
            counts += pending
            pending.fill(0)
            held = 0
        # precedes[r, a, b] <=> positions_r[b] < positions_r[a]
        precedes = np.less(
            block[:, np.newaxis, :], block[:, :, np.newaxis], out=buffer[:k]
        ).view(np.uint8)
        if k == 1:
            # A one-ranking reduction would only copy the plane.
            pending += precedes[0]
        else:
            np.add.reduce(precedes, axis=0, out=partial)
            pending += partial
        held += k
    counts += pending
    return counts


class NumpyKernelBackend(KernelBackend):
    """Interpreted kernels on numpy arrays and plain Python lists."""

    name = "numpy"
    compiled = False

    def detail(self) -> str:
        return f"numpy {np.__version__} + CPython list loops"

    # ------------------------------------------------------------------
    # Kemeny delta-engine kernels
    # ------------------------------------------------------------------

    def build_sweep_mask(self, order: np.ndarray, margin: np.ndarray) -> np.ndarray:
        gathered = margin[order[:-1], order[1:]]
        return gathered > 0.0

    def sweep_adjacent(
        self,
        order: np.ndarray,
        margin: np.ndarray,
        mask: np.ndarray,
        track_objective: bool,
    ) -> tuple[bool, float]:
        p = int(mask.argmax())
        if not mask[p]:
            return False, 0.0
        n = order.shape[0]
        improvement = 0.0
        while True:
            carry = int(order[p])
            tail = order[p + 1 :]
            losses = margin[carry, tail]
            stops = losses <= 0.0
            stop_index = int(stops.argmax())
            run_length = stop_index if stops[stop_index] else tail.shape[0]
            # run_length >= 1: the pair at p was marked improving.
            q = p + run_length
            if track_objective:
                improvement += float(losses[:run_length].sum())
            order[p:q] = order[p + 1 : q + 1]
            order[q] = carry
            # Patch the mask.  Pairs p..q-2 are the old pairs p+1..q-1
            # shifted left.  Pair q-1 is (old order[q], carry): the carry
            # lost against old order[q], so the reverse margin is negative.
            # Pair q is (carry, old order[q+1]): the carry won, so not
            # improving.  Pair p-1 gained a new right-hand element and is
            # recomputed (the scan already passed it; the patch is for the
            # next pass).
            mask[p : q - 1] = mask[p + 1 : q]
            mask[q - 1] = False
            if q < n - 1:
                mask[q] = False
            if p > 0:
                mask[p - 1] = margin[order[p - 1], order[p]] > 0.0
            # Resume the scan at the next marked pair after the run.
            remainder = mask[q + 1 :]
            if remainder.size == 0:
                break
            offset = int(remainder.argmax())
            if not remainder[offset]:
                break
            p = q + 1 + offset
        return True, improvement

    def move_deltas(
        self,
        margin: np.ndarray,
        candidate: int,
        order: np.ndarray,
        position: int,
    ) -> np.ndarray:
        n = order.shape[0]
        gathered = margin[candidate, order]
        prefix = np.empty(n + 1, dtype=float)
        prefix[0] = 0.0
        np.cumsum(gathered, out=prefix[1:])
        deltas = np.empty(n, dtype=float)
        deltas[: position + 1] = prefix[position] - prefix[: position + 1]
        deltas[position + 1 :] = prefix[position + 1] - prefix[position + 2 :]
        return deltas

    # ------------------------------------------------------------------
    # Fairness parity kernels
    # ------------------------------------------------------------------

    def parity_after_swap(
        self,
        favored: Sequence[int],
        denominators: Sequence[int],
        group_u: int,
        group_v: int,
        gap: int,
    ) -> float:
        n_groups = len(favored)
        first_count = favored[0]
        if group_u == 0:
            first_count -= gap
        elif group_v == 0:
            first_count += gap
        highest = lowest = first_count / denominators[0]
        for group in range(1, n_groups):
            count = favored[group]
            if group == group_u:
                count -= gap
            elif group == group_v:
                count += gap
            score = count / denominators[group]
            if score > highest:
                highest = score
            elif score < lowest:
                lowest = score
        return highest - lowest

    def parity_after_deltas(
        self,
        favored: Sequence[int],
        deltas: Sequence[int],
        denominators: Sequence[int],
    ) -> float:
        n_groups = len(favored)
        highest = lowest = (favored[0] + deltas[0]) / denominators[0]
        for group in range(1, n_groups):
            score = (favored[group] + deltas[group]) / denominators[group]
            if score > highest:
                highest = score
            elif score < lowest:
                lowest = score
        return highest - lowest

    def move_histogram(
        self,
        membership: Any,
        window: Sequence[int],
        candidate: int,
        falling: bool,
        n_groups: int,
    ) -> Sequence[int]:
        counts = [0] * n_groups
        for other in window:
            counts[membership[other]] += 1
        group = membership[candidate]
        mixed = len(window) - counts[group]
        counts[group] = -mixed
        if not falling:
            counts = [-count for count in counts]
        return counts

    # ------------------------------------------------------------------
    # Shared core kernels
    # ------------------------------------------------------------------

    def favored_mixed_pairs_by_group(
        self,
        order: np.ndarray,
        membership: np.ndarray,
        n_groups: int,
    ) -> np.ndarray:
        ordered_groups = membership[order]
        n = ordered_groups.shape[0]
        counts = np.zeros(n_groups, dtype=np.int64)
        for group in range(n_groups):
            # Positions of the group's members, best to worst.  The k-th member
            # (0-based) has size-1-k same-group candidates after it, so its
            # favored (mixed) pairs are the remaining candidates below it.
            member_positions = np.flatnonzero(ordered_groups == group)
            size = member_positions.shape[0]
            if size == 0:
                continue
            same_group_after = size - 1 - np.arange(size, dtype=np.int64)
            counts[group] = int(((n - 1 - member_positions) - same_group_after).sum())
        return counts

    def precedence_accumulate(
        self,
        matrix: np.ndarray,
        positions: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        if (weights == 1.0).all():
            matrix += _precedence_counts(positions)
            return
        # precedes[r, a, b] <=> positions_r[b] < positions_r[a]
        precedes = positions[:, np.newaxis, :] < positions[:, :, np.newaxis]
        matrix += np.einsum("r,rab->ab", weights, precedes)
