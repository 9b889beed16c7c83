"""Metric-space abstractions used as the hidden ground truth behind oracles.

A :class:`MetricSpace` knows how many records it holds and how to compute the
true distance between any two of them.  Algorithms in this library never call
``distance`` directly — they talk to an oracle — but the oracle and the
evaluation code both need the ground truth, which is what these classes
provide.

Three concrete implementations cover every use in the library:

* :class:`PointCloudSpace` — records are rows of a coordinate matrix and the
  distance is any callable from :mod:`repro.metric.distances`.  Small spaces
  memoise distances in a dense matrix; large spaces switch to the lazy,
  bounded-memory block backend of :mod:`repro.metric.lazy` (select
  explicitly with ``backend="lazy"``).
* :class:`DistanceMatrixSpace` — records are indices into an explicit
  pairwise-distance matrix (used for taxonomy/tree ground truths).
* :class:`ValueSpace` — records carry scalar *values* rather than positions;
  it adapts the one-dimensional "find the maximum of a set of values" setting
  of Section 2 of the paper to the same interface.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.metric.distances import DISTANCE_FUNCTIONS, euclidean_distance
from repro.metric.lazy import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_MAX_BLOCKS,
    DiskBlockBackend,
    LazyBlockBackend,
)

#: Largest space the dense backend will memoise by default (a full matrix at
#: this size is ~128 MB; anything larger must go through a bounded backend).
DEFAULT_CACHE_LIMIT = 4096

#: Largest space served by the purely in-memory lazy backend under
#: ``backend="auto"``; beyond it the disk-spill backend takes over so evicted
#: distance blocks and computed rows are reloaded instead of recomputed.
DEFAULT_DISK_LIMIT = 200_000

#: Distance callables known to broadcast row-wise over ``(m, d)`` inputs
#: with bit-identical per-row results, enabling the vectorised
#: ``pair_distances`` path.  ``cosine_distance`` is excluded: its 1-D branch
#: uses ``np.dot`` (BLAS) while its batched branch uses ``np.sum``, whose
#: float rounding can differ in the last ulp and flip near-tie comparisons.
_BATCHABLE_DISTANCE_FNS = frozenset(
    id(fn) for name, fn in DISTANCE_FUNCTIONS.items() if name != "cosine"
)


class MetricSpace:
    """Abstract base class: a finite set of records with a distance function."""

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def n_points(self) -> int:
        """Number of records in the space."""
        return len(self)

    def distance(self, i: int, j: int) -> float:
        """True distance between records *i* and *j*."""
        raise NotImplementedError

    # -- convenience helpers shared by all implementations -------------------

    def indices(self) -> np.ndarray:
        """All record indices as an integer array."""
        return np.arange(len(self))

    def _check_index(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < len(self):
            raise InvalidParameterError(
                f"index {i} out of range for space with {len(self)} points"
            )
        return i

    def _check_index_array(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1:
            idx = idx.reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            bad = idx[(idx < 0) | (idx >= len(self))][0]
            raise InvalidParameterError(
                f"index {int(bad)} out of range for space with {len(self)} points"
            )
        return idx

    def pair_distances(self, i, j) -> np.ndarray:
        """True distances between paired records ``(i[k], j[k])`` as one array.

        This is the batched counterpart of :meth:`distance` used by the
        vectorised oracle layer; results are elementwise identical to calling
        ``distance`` in a loop.  The base implementation is that loop;
        subclasses override it with vectorised kernels.
        """
        i = self._check_index_array(i)
        j = self._check_index_array(j)
        return np.fromiter(
            (self.distance(int(a), int(b)) for a, b in zip(i, j)),
            dtype=float,
            count=len(i),
        )

    def distances_from(self, i: int, candidates: Optional[Sequence[int]] = None) -> np.ndarray:
        """True distances from record *i* to each record in *candidates* (default: all)."""
        i = self._check_index(i)
        if candidates is None:
            candidates = range(len(self))
        return np.array([self.distance(i, j) for j in candidates], dtype=float)

    def pairwise_distances(self) -> np.ndarray:
        """Full symmetric pairwise-distance matrix (O(n^2) memory)."""
        n = len(self)
        matrix = np.zeros((n, n), dtype=float)
        for i in range(n):
            for j in range(i + 1, n):
                d = self.distance(i, j)
                matrix[i, j] = d
                matrix[j, i] = d
        return matrix

    def farthest_from(self, i: int, candidates: Optional[Sequence[int]] = None) -> int:
        """Index of the true farthest record from *i* among *candidates* (excluding *i*)."""
        i = self._check_index(i)
        if candidates is None:
            candidates = [j for j in range(len(self)) if j != i]
        else:
            candidates = [int(j) for j in candidates if int(j) != i]
        if not candidates:
            raise EmptyInputError("no candidates to search for farthest point")
        dists = self.distances_from(i, candidates)
        return int(candidates[int(np.argmax(dists))])

    def nearest_to(self, i: int, candidates: Optional[Sequence[int]] = None) -> int:
        """Index of the true nearest record to *i* among *candidates* (excluding *i*)."""
        i = self._check_index(i)
        if candidates is None:
            candidates = [j for j in range(len(self)) if j != i]
        else:
            candidates = [int(j) for j in candidates if int(j) != i]
        if not candidates:
            raise EmptyInputError("no candidates to search for nearest point")
        dists = self.distances_from(i, candidates)
        return int(candidates[int(np.argmin(dists))])


class PointCloudSpace(MetricSpace):
    """Records are rows of a coordinate matrix; distance is a callable on rows.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    distance_fn:
        Callable mapping two coordinate vectors to a float.  Defaults to the
        Euclidean distance.
    labels:
        Optional ground-truth cluster labels (one integer per record) used by
        evaluation code; the algorithms themselves never see them.
    cache:
        When true (the default for fewer than ``cache_limit`` points) computed
        distances are memoised in a dense matrix (dense backend only).
    backend:
        ``"dense"`` keeps the classic behaviour (optional dense memoisation
        matrix); ``"lazy"`` never allocates O(n^2) state and instead serves
        distances through the block-LRU backend of :mod:`repro.metric.lazy`;
        ``"disk"`` is the lazy backend plus a memory-mapped spill file —
        evicted blocks and computed rows reload from disk instead of being
        recomputed (:class:`~repro.metric.lazy.DiskBlockBackend`); ``"auto"``
        (the default) picks dense for spaces that fit the dense memoisation
        budget (``n <= cache_limit`` or an explicit ``cache=True``), lazy up
        to ``disk_limit``, and disk beyond it.
    block_size, max_cached_blocks:
        Geometry and capacity of the lazy/disk backends' block cache
        (ignored by the dense backend).  Peak extra memory of the bounded
        backends is ``max_cached_blocks * block_size**2 * 8`` bytes plus one
        evaluation chunk.
    disk_limit:
        Size above which ``"auto"`` selects the disk-spill backend.
    spill_dir:
        Directory for the disk backend's spill files (default: a private
        temp directory, removed when the backend is garbage-collected).
    """

    def __init__(
        self,
        points,
        distance_fn: Callable = euclidean_distance,
        labels: Optional[Sequence[int]] = None,
        cache: Optional[bool] = None,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
        backend: str = "auto",
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_cached_blocks: int = DEFAULT_MAX_BLOCKS,
        disk_limit: int = DEFAULT_DISK_LIMIT,
        spill_dir=None,
    ):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        if points.ndim != 2:
            raise InvalidParameterError(
                f"points must be a 2-D array, got shape {points.shape}"
            )
        if len(points) == 0:
            raise EmptyInputError("a metric space needs at least one point")
        self.points = points
        self.distance_fn = distance_fn
        self.labels = None if labels is None else np.asarray(labels, dtype=int)
        if self.labels is not None and len(self.labels) != len(points):
            raise InvalidParameterError(
                "labels must have the same length as points "
                f"({len(self.labels)} != {len(points)})"
            )
        if backend not in ("auto", "dense", "lazy", "disk"):
            raise InvalidParameterError(
                f"backend must be 'auto', 'dense', 'lazy' or 'disk', got {backend!r}"
            )
        if backend == "auto":
            if cache is True or len(points) <= cache_limit:
                backend = "dense"
            elif len(points) <= int(disk_limit):
                backend = "lazy"
            else:
                backend = "disk"
        self.backend = backend
        self._cache: Optional[np.ndarray] = None
        self._lazy: Optional[LazyBlockBackend] = None
        if backend in ("lazy", "disk"):
            # Non-batchable callables (see _BATCHABLE_DISTANCE_FNS) cannot
            # share block/scalar results bit-identically; they fall back to
            # uncached per-pair evaluation, which is equally memory-bounded.
            if id(distance_fn) in _BATCHABLE_DISTANCE_FNS:
                if backend == "disk":
                    self._lazy = DiskBlockBackend(
                        self.points,
                        distance_fn,
                        block_size=block_size,
                        max_blocks=max_cached_blocks,
                        spill_dir=spill_dir,
                    )
                else:
                    self._lazy = LazyBlockBackend(
                        self.points,
                        distance_fn,
                        block_size=block_size,
                        max_blocks=max_cached_blocks,
                    )
        else:
            if cache is None:
                cache = len(points) <= cache_limit
            if cache:
                self._cache = np.full((len(points), len(points)), np.nan, dtype=float)
                np.fill_diagonal(self._cache, 0.0)

    @property
    def block_cache(self):
        """The lazy backend's :class:`~repro.metric.lazy.BlockLRUCache` (or ``None``)."""
        return None if self._lazy is None else self._lazy.cache

    def backend_stats(self) -> dict:
        """Backend counters for bench/report rows (empty for the dense backend)."""
        return {} if self._lazy is None else self._lazy.stats()

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        """Dimensionality of the coordinate representation."""
        return self.points.shape[1]

    def distance(self, i: int, j: int) -> float:
        i, j = int(i), int(j)
        n = len(self.points)
        if not (0 <= i < n and 0 <= j < n):
            self._check_index(i)
            self._check_index(j)
        if i == j:
            return 0.0
        if self._lazy is not None:
            return self._lazy.distance(i, j)
        cache = self._cache
        if cache is not None:
            cached = cache.item(i, j)
            if cached == cached:  # NaN marks a pair not yet computed
                return cached
        d = float(self.distance_fn(self.points[i], self.points[j]))
        if cache is not None:
            cache[i, j] = d
            cache[j, i] = d
        return d

    def distances_from(self, i: int, candidates: Optional[Sequence[int]] = None) -> np.ndarray:
        i = self._check_index(i)
        if candidates is None:
            candidates = np.arange(len(self))
        else:
            candidates = self._check_index_array(list(candidates))
        if self._lazy is not None:
            return self._lazy.distances_from(i, candidates)
        # Vectorised path for the default Euclidean distance; falls back to the
        # generic per-pair loop for arbitrary callables.
        if self.distance_fn is euclidean_distance:
            diff = self.points[candidates] - self.points[i]
            return np.sqrt(np.sum(diff * diff, axis=1))
        return self.pair_distances(
            np.full(len(candidates), i, dtype=np.int64), candidates
        )

    def pair_distances(self, i, j) -> np.ndarray:
        """Batched :meth:`distance`, elementwise identical to the scalar loop.

        Arrays take the vectorised kernel.  On the dense backend, two Python
        lists of equal length are instead served pair by pair through the
        distance memo (~0.5 us a pair against ~20 us a call for the array
        path), filling the memo as :meth:`distance` does; the oracles'
        small-batch path passes its few misses this way.  The values agree
        either way (``_BATCHABLE_DISTANCE_FNS``), so pass arrays for anything
        larger than a handful of pairs.
        """
        if (
            self._cache is not None
            and type(i) is list
            and type(j) is list
            and len(i) == len(j)
        ):
            # The class's own distance, so that a subclass wrapping the
            # public methods sees one pair_distances call, not m distances.
            distance = PointCloudSpace.distance
            return np.array([distance(self, a, b) for a, b in zip(i, j)], dtype=float)
        i = self._check_index_array(i)
        j = self._check_index_array(j)
        if self._lazy is not None:
            out = self._lazy.pair_distances(i, j)
            out[i == j] = 0.0
            return out
        if id(self.distance_fn) not in _BATCHABLE_DISTANCE_FNS:
            return super().pair_distances(i, j)
        out = np.asarray(
            self.distance_fn(self.points[i], self.points[j]), dtype=float
        )
        # The scalar path short-circuits i == j to exactly 0.0 (which matters
        # for non-metric callables like the cosine distance); mirror it.
        out[i == j] = 0.0
        return out


class DistanceMatrixSpace(MetricSpace):
    """Records are indices into an explicit, precomputed distance matrix."""

    def __init__(self, matrix, labels: Optional[Sequence[int]] = None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidParameterError(
                f"distance matrix must be square, got shape {matrix.shape}"
            )
        if len(matrix) == 0:
            raise EmptyInputError("a metric space needs at least one point")
        if np.any(matrix < 0):
            raise InvalidParameterError("distances must be non-negative")
        if not np.allclose(matrix, matrix.T):
            raise InvalidParameterError("distance matrix must be symmetric")
        self.matrix = matrix
        self.labels = None if labels is None else np.asarray(labels, dtype=int)
        if self.labels is not None and len(self.labels) != len(matrix):
            raise InvalidParameterError("labels must have the same length as the matrix")

    def __len__(self) -> int:
        return len(self.matrix)

    def distance(self, i: int, j: int) -> float:
        i = self._check_index(i)
        j = self._check_index(j)
        return float(self.matrix[i, j])

    def distances_from(self, i: int, candidates: Optional[Sequence[int]] = None) -> np.ndarray:
        i = self._check_index(i)
        if candidates is None:
            return self.matrix[i].copy()
        candidates = self._check_index_array(list(candidates))
        return self.matrix[i, candidates]

    def pair_distances(self, i, j) -> np.ndarray:
        i = self._check_index_array(i)
        j = self._check_index_array(j)
        return self.matrix[i, j].astype(float, copy=False)


class ValueSpace(MetricSpace):
    """Records carry scalar values; "distance" from the origin record is the value itself.

    This adapts the plain comparison-oracle setting of Problem 2.2 (find the
    maximum of a set of values) to the same interface used by the distance
    algorithms: ``distance(i, j)`` is defined as ``|value_i - value_j|`` and
    the per-record value is exposed through :meth:`value`.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise InvalidParameterError("values must be a 1-D array")
        if len(values) == 0:
            raise EmptyInputError("a value space needs at least one value")
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def value(self, i: int) -> float:
        """The scalar value carried by record *i*."""
        return float(self.values[self._check_index(i)])

    def distance(self, i: int, j: int) -> float:
        i = self._check_index(i)
        j = self._check_index(j)
        return float(abs(self.values[i] - self.values[j]))

    def pair_distances(self, i, j) -> np.ndarray:
        i = self._check_index_array(i)
        j = self._check_index_array(j)
        return np.abs(self.values[i] - self.values[j])

    def argmax(self) -> int:
        """Index of the true maximum value."""
        return int(np.argmax(self.values))

    def argmin(self) -> int:
        """Index of the true minimum value."""
        return int(np.argmin(self.values))

    def rank_of(self, i: int) -> int:
        """Rank of record *i* in non-increasing value order (1 = maximum)."""
        i = self._check_index(i)
        order = np.argsort(-self.values, kind="stable")
        return int(np.where(order == i)[0][0]) + 1
