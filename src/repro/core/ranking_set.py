"""A set of base rankings (``R`` in the paper) produced by ``m`` rankers.

:class:`RankingSet` wraps a list of :class:`~repro.core.ranking.Ranking`
objects over the same candidate universe and provides the aggregate views the
consensus methods consume: the precedence matrix ``W`` (Definition 11), the
position matrix used by positional methods (Borda), and per-ranking weights
for weighted aggregation baselines.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro import kernels
from repro.core.ranking import Ranking
from repro.exceptions import RankingError, ValidationError

__all__ = ["RankingSet"]


class RankingSet:
    """An ordered collection of base rankings over one candidate universe.

    Parameters
    ----------
    rankings:
        The base rankings.  Every ranking must cover the same number of
        candidates.
    labels:
        Optional per-ranking labels (e.g. ranker names, exam subjects, or
        years).  Defaults to ``r1, r2, ...``.
    weights:
        Optional finite, non-negative per-ranking weights used by weighted
        consensus methods.  Defaults to uniform weight 1.
    """

    def __init__(
        self,
        rankings: Sequence[Ranking],
        labels: Sequence[str] | None = None,
        weights: Sequence[float] | None = None,
    ) -> None:
        rankings = list(rankings)
        if not rankings:
            raise RankingError("a ranking set must contain at least one ranking")
        for index, ranking in enumerate(rankings):
            if not isinstance(ranking, Ranking):
                raise RankingError(
                    f"item {index} is not a Ranking (got {type(ranking).__name__})"
                )
        n = rankings[0].n_candidates
        for index, ranking in enumerate(rankings):
            if ranking.n_candidates != n:
                raise RankingError(
                    "all base rankings must cover the same candidates: "
                    f"ranking 0 has {n}, ranking {index} has {ranking.n_candidates}"
                )
        self._rankings = tuple(rankings)
        self._n = n

        if labels is not None:
            if len(labels) != len(rankings):
                raise ValidationError(
                    f"got {len(labels)} labels for {len(rankings)} rankings"
                )
            self._labels = tuple(str(label) for label in labels)
        else:
            self._labels = tuple(f"r{i + 1}" for i in range(len(rankings)))

        if weights is not None:
            weight_array = np.asarray(weights, dtype=float)
            if weight_array.shape != (len(rankings),):
                raise ValidationError(
                    f"weights must have one entry per ranking; got shape "
                    f"{weight_array.shape} for {len(rankings)} rankings"
                )
            if not np.isfinite(weight_array).all():
                raise ValidationError("ranking weights must be finite numbers")
            if (weight_array < 0).any():
                raise ValidationError("ranking weights must be non-negative")
            if weight_array.sum() == 0:
                raise ValidationError("at least one ranking weight must be positive")
            self._weights = weight_array
        else:
            self._weights = np.ones(len(rankings), dtype=float)
        self._weights.setflags(write=False)

        self._precedence_cache: np.ndarray | None = None
        self._weighted_precedence_cache: np.ndarray | None = None
        self._margin_cache: np.ndarray | None = None
        self._weighted_margin_cache: np.ndarray | None = None
        self._position_cache: np.ndarray | None = None
        self._unit_weights_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_orders(
        cls,
        orders: Iterable[Sequence[int]],
        labels: Sequence[str] | None = None,
        weights: Sequence[float] | None = None,
    ) -> "RankingSet":
        """Build a ranking set from raw candidate-order sequences."""
        rankings = [Ranking(order) for order in orders]
        return cls(rankings, labels=labels, weights=weights)

    @classmethod
    def from_position_matrix(
        cls,
        positions: np.ndarray,
        labels: Sequence[str] | None = None,
        weights: Sequence[float] | None = None,
        validate: bool = True,
        copy: bool = True,
    ) -> "RankingSet":
        """Bulk-build a ranking set from an ``m x n`` candidate-position matrix.

        Row ``r`` maps candidate id -> 0-based position in base ranking ``r``
        (the same layout :meth:`position_matrix` returns, so the two are
        inverses).  This is the fast path for batched generators such as
        :func:`repro.datagen.mallows.sample_mallows`: the per-ranking order
        arrays are produced by one vectorised scatter, the member
        :class:`Ranking` objects skip re-validation, and the position-matrix
        cache is pre-seeded so downstream kernels (precedence matrix, batched
        Kendall tau) never re-stack the per-ranking arrays.

        Parameters
        ----------
        positions:
            Integer matrix of shape ``(m, n)``; every row must be a
            permutation of ``0..n-1``.
        validate:
            When ``True`` (default) every row's permutation property is
            checked (vectorised).  Trusted internal callers can disable it.
        copy:
            When ``True`` (default) the pre-seeded cache is decoupled from
            the caller's array, so later caller-side mutation cannot desync
            :meth:`position_matrix` from the member rankings.  Callers that
            hand over ownership of a freshly built matrix (e.g. the batched
            Mallows sampler) pass ``False`` to skip the redundant copy; the
            array is then frozen read-only in place.
        """
        position_matrix = np.ascontiguousarray(positions, dtype=np.int64)
        if copy and isinstance(positions, np.ndarray) and np.shares_memory(
            position_matrix, positions
        ):
            position_matrix = position_matrix.copy()
        if position_matrix.ndim != 2 or position_matrix.shape[1] == 0:
            raise RankingError(
                "position matrix must be 2-D with at least one candidate, "
                f"got shape {position_matrix.shape}"
            )
        m, n = position_matrix.shape
        if m == 0:
            raise RankingError("a ranking set must contain at least one ranking")
        if validate:
            expected = np.arange(n, dtype=np.int64)
            if not np.array_equal(np.sort(position_matrix, axis=1), np.broadcast_to(expected, (m, n))):
                bad = int(
                    np.flatnonzero(
                        (np.sort(position_matrix, axis=1) != expected).any(axis=1)
                    )[0]
                )
                raise RankingError(
                    f"row {bad} of the position matrix is not a permutation of 0..{n - 1}"
                )
        # Scatter positions -> orders: order[r, positions[r, c]] = c.
        orders = np.empty((m, n), dtype=np.int64)
        orders[np.arange(m)[:, None], position_matrix] = np.arange(n, dtype=np.int64)
        rankings = [Ranking(orders[r], validate=False) for r in range(m)]
        ranking_set = cls(rankings, labels=labels, weights=weights)
        position_matrix.setflags(write=False)
        ranking_set._position_cache = position_matrix
        return ranking_set

    @classmethod
    def from_score_columns(
        cls,
        score_columns: dict[str, Sequence[float]],
        descending: bool = True,
    ) -> "RankingSet":
        """Build one base ranking per score column (e.g. one per exam subject)."""
        labels = list(score_columns)
        rankings = [
            Ranking.from_scores(scores, descending=descending)
            for scores in score_columns.values()
        ]
        return cls(rankings, labels=labels)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_candidates(self) -> int:
        """Number of candidates every base ranking covers."""
        return self._n

    @property
    def n_rankings(self) -> int:
        """Number of base rankings ``|R|``."""
        return len(self._rankings)

    def __len__(self) -> int:
        return len(self._rankings)

    def __iter__(self) -> Iterator[Ranking]:
        return iter(self._rankings)

    def __getitem__(self, index: int) -> Ranking:
        return self._rankings[index]

    @property
    def rankings(self) -> tuple[Ranking, ...]:
        """The base rankings as a tuple."""
        return self._rankings

    @property
    def labels(self) -> tuple[str, ...]:
        """Per-ranking labels."""
        return self._labels

    @property
    def weights(self) -> np.ndarray:
        """Per-ranking non-negative weights (read-only array)."""
        return self._weights

    @property
    def unit_weights(self) -> np.ndarray:
        """Cached read-only all-ones weight vector for unweighted computations.

        Kept on the set so hot callers (e.g. the batched Kendall tau) do not
        allocate a fresh ``np.ones`` array on every call.
        """
        if self._unit_weights_cache is None:
            unit = np.ones(self.n_rankings, dtype=float)
            unit.setflags(write=False)
            self._unit_weights_cache = unit
        return self._unit_weights_cache

    def with_weights(self, weights: Sequence[float]) -> "RankingSet":
        """Return a copy of this set with different per-ranking weights."""
        return RankingSet(list(self._rankings), labels=self._labels, weights=weights)

    def label_of(self, index: int) -> str:
        """Return the label of ranking ``index``."""
        return self._labels[index]

    # ------------------------------------------------------------------
    # aggregate matrices
    # ------------------------------------------------------------------
    #: Target byte budget for one boolean comparison block of the chunked
    #: broadcast (keeps peak memory bounded at ~64 MiB regardless of scale).
    _CHUNK_BYTE_BUDGET = 1 << 26

    def _position_chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start, block)`` slices of the position matrix.

        Blocks are sized so the ``k x n x n`` boolean comparison tensor built
        from each stays within :data:`_CHUNK_BYTE_BUDGET` bytes.
        """
        positions = self.position_matrix()
        rows_per_chunk = max(1, self._CHUNK_BYTE_BUDGET // max(1, self._n * self._n))
        for start in range(0, self.n_rankings, rows_per_chunk):
            yield start, positions[start : start + rows_per_chunk]

    def precedence_matrix(self, weighted: bool = False) -> np.ndarray:
        """Return the precedence matrix ``W`` of Definition 11.

        ``W[a, b]`` counts the base rankings in which ``b`` precedes ``a``
        (i.e. the number of disagreements incurred by placing ``a`` above
        ``b`` in the consensus).  With ``weighted=True`` each ranking
        contributes its weight instead of 1.

        Computed as a chunked accumulation over the ``m x n`` position matrix
        with :func:`repro.kernels.precedence_accumulate` (a vectorised
        broadcast — O(m n^2) numpy work with bounded peak memory instead of a
        Python loop over the m rankings).  The :data:`_CHUNK_BYTE_BUDGET`
        bounds the weighted (``einsum``) path only: unit weights take the
        kernel's counted branch, which works in
        1 MiB blocks whatever the chunk size.  Both variants are cached
        because several aggregators request them for the same (immutable)
        ranking set.
        """
        if weighted and self._weighted_precedence_cache is not None:
            return self._weighted_precedence_cache
        if not weighted and self._precedence_cache is not None:
            return self._precedence_cache
        weights = self._weights if weighted else self.unit_weights
        matrix = np.zeros((self._n, self._n), dtype=float)
        for start, block in self._position_chunks():
            kernels.precedence_accumulate(
                matrix, block, weights[start : start + block.shape[0]]
            )
        np.fill_diagonal(matrix, 0.0)
        matrix.setflags(write=False)
        if weighted:
            self._weighted_precedence_cache = matrix
        else:
            self._precedence_cache = matrix
        return matrix

    def has_precedence_matrix(self) -> bool:
        """Whether the unweighted precedence matrix is already materialised.

        Lets metrics choose an O(n^2) read of the cached matrix over an
        O(m n^2) pass without building the matrix themselves.
        """
        return self._precedence_cache is not None

    def margin_matrix(self, weighted: bool = False) -> np.ndarray:
        """Return the pairwise margin matrix ``M = W - W^T``.

        ``M[a, b]`` is the net number of base rankings preferring ``b`` to
        ``a`` — the objective change of demoting ``a`` below ``b`` from
        adjacent positions, which is the quantity every swap-based local
        search reads per candidate move.  Cached (like the precedence matrix
        it derives from) because each
        :class:`~repro.aggregation.incremental.KemenyDeltaEngine` built over
        this set starts from it.
        """
        if weighted and self._weighted_margin_cache is not None:
            return self._weighted_margin_cache
        if not weighted and self._margin_cache is not None:
            return self._margin_cache
        precedence = self.precedence_matrix(weighted=weighted)
        margin = precedence - precedence.T
        margin.setflags(write=False)
        if weighted:
            self._weighted_margin_cache = margin
        else:
            self._margin_cache = margin
        return margin

    def kendall_tau_vector(self, ranking: Ranking) -> np.ndarray:
        """Exact Kendall tau distance from ``ranking`` to every base ranking.

        One batched O(m n^2 / chunk) computation over the position matrix
        instead of m separate merge sorts; the per-ranking counts are exact
        integers.  This is the kernel behind
        :func:`repro.core.distances.kendall_tau_to_set` and the PD-loss
        metric.
        """
        if ranking.n_candidates != self._n:
            raise RankingError(
                "ranking and ranking set cover different universes: "
                f"{ranking.n_candidates} vs {self._n} candidates"
            )
        reference = ranking.positions
        reference_precedes = reference[:, np.newaxis] < reference[np.newaxis, :]
        distances = np.empty(self.n_rankings, dtype=np.int64)
        for start, block in self._position_chunks():
            precedes = block[:, :, np.newaxis] < block[:, np.newaxis, :]
            # In-place comparison keeps one k x n x n tensor live, honouring
            # the chunk byte budget.
            disagreements = np.not_equal(
                precedes, reference_precedes[np.newaxis, :, :], out=precedes
            )
            # Each disagreeing unordered pair is counted at (a, b) and (b, a).
            distances[start : start + block.shape[0]] = (
                disagreements.sum(axis=(1, 2)) // 2
            )
        return distances

    def pairwise_support(self, weighted: bool = False) -> np.ndarray:
        """Return ``S`` with ``S[a, b]`` = number of rankings preferring ``a`` to ``b``.

        This is the transpose of :meth:`precedence_matrix` and the matrix the
        Copeland and Schulze methods reason over.
        """
        return self.precedence_matrix(weighted=weighted).T

    def position_matrix(self) -> np.ndarray:
        """Return an ``m x n`` matrix of 0-based positions.

        Row ``i`` holds the positions of every candidate in base ranking
        ``i``; used by positional methods such as Borda and footrule.
        """
        if self._position_cache is None:
            matrix = np.vstack([ranking.positions for ranking in self._rankings])
            matrix.setflags(write=False)
            self._position_cache = matrix
        return self._position_cache

    def mean_positions(self) -> np.ndarray:
        """Return the average 0-based position of every candidate."""
        return self.position_matrix().mean(axis=0)

    # ------------------------------------------------------------------
    # incremental (streaming) updates
    # ------------------------------------------------------------------
    def _precedence_delta(
        self, position_rows: np.ndarray, row_weights: np.ndarray
    ) -> np.ndarray:
        """Summed weighted precedence contribution of the given position rows.

        Each ranking is a rank-1-style contribution to the precedence matrix:
        ``precedes[a, b] = positions[b] < positions[a]`` scaled by its weight.
        Chunked exactly like :meth:`precedence_matrix` so one call stays
        within :data:`_CHUNK_BYTE_BUDGET` bytes of boolean workspace.
        """
        n = self._n
        delta = np.zeros((n, n), dtype=float)
        rows_per_chunk = max(1, self._CHUNK_BYTE_BUDGET // max(1, n * n))
        for start in range(0, position_rows.shape[0], rows_per_chunk):
            block = position_rows[start : start + rows_per_chunk]
            kernels.precedence_accumulate(
                delta, block, row_weights[start : start + block.shape[0]]
            )
        np.fill_diagonal(delta, 0.0)
        return delta

    def _patched_precedence(
        self,
        cache: np.ndarray | None,
        position_rows: np.ndarray,
        row_weights: np.ndarray,
        sign: float,
    ) -> np.ndarray | None:
        """Patch a cached precedence matrix by +/- the given rows' contribution.

        Returns ``None`` when the cache was never materialised (the child set
        then computes lazily as usual).  The patch is bit-identical to a
        from-scratch recomputation whenever every weight's contributions are
        exactly representable and accumulate without rounding — always true
        for unweighted sets (integer-valued entries) and for integer or
        dyadic-rational weights.
        """
        if cache is None:
            return None
        delta = self._precedence_delta(position_rows, row_weights)
        patched = cache + delta if sign > 0 else cache - delta
        np.fill_diagonal(patched, 0.0)
        patched.setflags(write=False)
        return patched

    @staticmethod
    def _derive_margins(child: "RankingSet") -> None:
        """Re-derive the child's margin caches from its patched precedence caches.

        Uses the same ``W - W^T`` expression as :meth:`margin_matrix`, so a
        margin derived from a bit-identical patched precedence matrix is
        itself bit-identical to the from-scratch value.
        """
        for weighted in (False, True):
            precedence = (
                child._weighted_precedence_cache if weighted else child._precedence_cache
            )
            if precedence is None:
                continue
            margin = precedence - precedence.T
            margin.setflags(write=False)
            if weighted:
                child._weighted_margin_cache = margin
            else:
                child._margin_cache = margin

    def with_added(
        self,
        rankings: Sequence[Ranking],
        labels: Sequence[str] | None = None,
        weights: Sequence[float] | None = None,
    ) -> "RankingSet":
        """Return a new set with ``rankings`` appended, patching cached matrices.

        The child's position matrix is the parent's with the new rows stacked
        on, and every precedence/margin cache the parent had materialised is
        patched by *adding* each new ranking's precedence contribution —
        O(k n^2) work for k added rankings instead of the O(m n^2) rebuild.
        This is the core update primitive of the streaming consensus engine
        (:mod:`repro.streaming`); caches the parent never materialised stay
        lazy on the child.
        """
        added = list(rankings)
        if not added:
            raise RankingError("with_added needs at least one ranking")
        extra_labels = (
            list(labels)
            if labels is not None
            else [f"r{self.n_rankings + i + 1}" for i in range(len(added))]
        )
        if weights is None:
            extra_weights = np.ones(len(added), dtype=float)
        else:
            extra_weights = np.asarray(weights, dtype=float)
            if extra_weights.shape != (len(added),):
                raise ValidationError(
                    f"weights must have one entry per added ranking; got shape "
                    f"{extra_weights.shape} for {len(added)} rankings"
                )
        child = RankingSet(
            list(self._rankings) + added,
            labels=list(self._labels) + extra_labels,
            weights=np.concatenate([self._weights, extra_weights]),
        )
        added_positions = np.vstack([ranking.positions for ranking in added])
        if self._position_cache is not None:
            position_matrix = np.vstack([self._position_cache, added_positions])
            position_matrix.setflags(write=False)
            child._position_cache = position_matrix
        child._precedence_cache = self._patched_precedence(
            self._precedence_cache,
            added_positions,
            np.ones(len(added), dtype=float),
            sign=1.0,
        )
        child._weighted_precedence_cache = self._patched_precedence(
            self._weighted_precedence_cache, added_positions, extra_weights, sign=1.0
        )
        self._derive_margins(child)
        return child

    def with_removed(self, indexes: Sequence[int]) -> "RankingSet":
        """Return a new set without the rankings at ``indexes``, patching caches.

        The inverse of :meth:`with_added`: every cache the parent had
        materialised is patched by *subtracting* the removed rankings'
        precedence contributions (exact for unweighted sets and integer /
        dyadic weights, where every entry is an exactly-representable sum).
        Removing every ranking is rejected — a :class:`RankingSet` is never
        empty; streaming callers represent the empty profile explicitly.
        """
        removal = sorted(set(int(index) for index in indexes))
        if not removal:
            raise RankingError("with_removed needs at least one index")
        for index in removal:
            if not 0 <= index < self.n_rankings:
                raise RankingError(
                    f"ranking index {index} out of range for {self.n_rankings} rankings"
                )
        removal_set = set(removal)
        keep = [i for i in range(self.n_rankings) if i not in removal_set]
        if not keep:
            raise RankingError("cannot remove every ranking from a set")
        child = RankingSet(
            [self._rankings[i] for i in keep],
            labels=[self._labels[i] for i in keep],
            weights=self._weights[keep],
        )
        removed_positions = np.vstack(
            [self._rankings[i].positions for i in removal]
        )
        removed_weights = self._weights[removal]
        if self._position_cache is not None:
            position_matrix = self._position_cache[keep]
            position_matrix.setflags(write=False)
            child._position_cache = position_matrix
        child._precedence_cache = self._patched_precedence(
            self._precedence_cache,
            removed_positions,
            np.ones(len(removal), dtype=float),
            sign=-1.0,
        )
        child._weighted_precedence_cache = self._patched_precedence(
            self._weighted_precedence_cache, removed_positions, removed_weights, sign=-1.0
        )
        self._derive_margins(child)
        return child

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def subset(self, indexes: Sequence[int]) -> "RankingSet":
        """Return a new set containing only the rankings at ``indexes``."""
        indexes = list(indexes)
        if not indexes:
            raise RankingError("cannot build an empty ranking subset")
        return RankingSet(
            [self._rankings[i] for i in indexes],
            labels=[self._labels[i] for i in indexes],
            weights=[float(self._weights[i]) for i in indexes],
        )

    def extended_with(self, rankings: Sequence[Ranking], labels: Sequence[str] | None = None) -> "RankingSet":
        """Return a new set with additional rankings appended."""
        extra_labels = (
            list(labels)
            if labels is not None
            else [f"r{self.n_rankings + i + 1}" for i in range(len(rankings))]
        )
        return RankingSet(
            list(self._rankings) + list(rankings),
            labels=list(self._labels) + extra_labels,
        )

    def to_order_lists(self) -> list[list[int]]:
        """Return the base rankings as plain lists of candidate ids."""
        return [ranking.to_list() for ranking in self._rankings]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RankingSet(n_rankings={self.n_rankings}, "
            f"n_candidates={self.n_candidates})"
        )
