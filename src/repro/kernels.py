"""The compute kernels behind the repo's hot inner loops.

Plain numpy/CPython functions shared by the incremental engines
(:class:`~repro.aggregation.incremental.KemenyDeltaEngine`,
:class:`~repro.fairness.incremental.FairnessState`) and the shared kernels
in :mod:`repro.core` (precedence accumulation, favored-pair counts).

Conventions:

- ``order`` is an ``int64`` numpy array holding candidate ids best-to-worst
  and is mutated **in place** by :func:`sweep_adjacent`.
- ``margin`` is the dense ``float64`` margin matrix ``M = W - W^T`` where
  ``margin[a, b] > 0`` means a majority of rankings place ``b`` before ``a``.
- Group vectors (``favored`` counts, parity denominators) and the
  candidate-to-group ``membership`` lookup of the parity kernels are plain
  Python lists: they have a handful of entries, where list arithmetic beats
  numpy dispatch.

The loop bodies are the engines' original loops, so the engines stay
bit-identical to their retained ``*_reference`` oracles.  One deliberate
exception: :func:`precedence_accumulate` counts unit-weight blocks (every
weight exactly ``1.0``, i.e. every unweighted precedence build and
streaming patch) with small-integer comparisons instead of the float
``einsum``.  It is bit-identical because the ``einsum`` of unit weights sums
exact integers below 2^53 in float64, so every entry already *is* the
integer count, and the counted branch adds those same integers to the float
matrix.  Any other weights keep the original ``einsum`` line.
``tests/kernels/test_bit_identity.py`` (``TestCountedPrecedence``) and
``tests/core/test_ranking_set.py`` pin both branches against the naive loop
and the original expression.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "build_sweep_mask",
    "sweep_adjacent",
    "move_deltas",
    "parity_after_swap",
    "parity_after_deltas",
    "move_histogram",
    "favored_mixed_pairs_by_group",
    "precedence_accumulate",
]

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


# ------------------------------------------------------------------
# Kemeny delta-engine kernels
# ------------------------------------------------------------------


def build_sweep_mask(order: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Return the boolean mask of improving adjacent pairs.

    ``mask[i]`` is true when swapping ``order[i]`` and ``order[i + 1]``
    strictly lowers the Kemeny objective, i.e.
    ``margin[order[i], order[i + 1]] > 0``.
    """
    gathered = margin[order[:-1], order[1:]]
    return gathered > 0.0


def sweep_adjacent(
    order: np.ndarray,
    margin: np.ndarray,
    mask: np.ndarray,
    track_objective: bool,
) -> tuple[bool, float]:
    """Run one carry-run bubble pass in place over ``order``.

    Both ``order`` and ``mask`` are mutated.  Returns
    ``(swapped, improvement)`` where ``improvement`` is the total objective
    decrease of the pass (only accumulated when ``track_objective``).
    """
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
    margin: np.ndarray,
    candidate: int,
    order: np.ndarray,
    position: int,
) -> np.ndarray:
    """Score moving ``candidate`` (at ``position``) to every target position.

    Returns a ``float64`` array ``deltas`` of length ``len(order)`` where
    ``deltas[t]`` is the objective change of the block move to position
    ``t`` (``deltas[position] == 0``).
    """
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
    favored: Sequence[int],
    denominators: Sequence[int],
    group_u: int,
    group_v: int,
    gap: int,
) -> float:
    """Parity after transferring ``gap`` favored pairs from ``group_u`` to ``group_v``.

    ``favored`` and ``denominators`` are per-group lists; neither is mutated.
    """
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
    favored: Sequence[int],
    deltas: Sequence[int],
    denominators: Sequence[int],
) -> float:
    """Parity after adding ``deltas[g]`` to each group's favored count."""
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
    membership: Sequence[int],
    window: Sequence[int],
    candidate: int,
    falling: bool,
    n_groups: int,
) -> Sequence[int]:
    """Per-group favored-count deltas for a block move over ``window``.

    ``membership`` maps candidate id to group id; ``window`` lists the
    candidate ids the mover passes over.  The mover's own group receives
    minus the number of mixed pairs crossed; every other group gains the
    number of its members crossed.  The histogram is negated when the mover
    rises (``falling`` false).
    """
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
    order: np.ndarray,
    membership: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Count, per group, mixed pairs whose favored member is in that group.

    ``order`` lists candidate ids best-to-worst; ``membership`` maps
    candidate id to group id.  Returns an ``int64`` array of length
    ``n_groups``.
    """
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
    matrix: np.ndarray,
    positions: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Accumulate one block of rankings into a precedence matrix in place.

    ``positions`` is a ``(block, n)`` array of candidate positions and
    ``weights`` the per-ranking weights; ``matrix[a, b]`` accumulates the
    total weight of rankings that place ``b`` before ``a``.  Unit-weight
    blocks take the counted branch (see the module docstring).
    """
    if (weights == 1.0).all():
        matrix += _precedence_counts(positions)
        return
    # precedes[r, a, b] <=> positions_r[b] < positions_r[a]
    precedes = positions[:, np.newaxis, :] < positions[:, :, np.newaxis]
    matrix += np.einsum("r,rab->ab", weights, precedes)
