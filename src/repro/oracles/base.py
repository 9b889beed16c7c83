"""Oracle interfaces and adapters shared by all algorithms.

Two query interfaces exist, matching Definitions 2.1 and 2.3 of the paper:

* ``ComparisonOracle.compare(i, j)`` — Yes (``True``) when the value carried
  by record *i* is at most the value carried by record *j*.
* ``QuadrupletOracle.compare(a, b, c, d)`` — Yes when ``d(a, b) <= d(c, d)``.

The maximisation algorithms of Section 3 are written against the comparison
interface.  The adapters in this module let the same code answer farthest /
nearest-neighbour and k-center questions by viewing "the distance from a
query point" (or "the distance from a point to its assigned center") as the
value being compared, each such comparison being served by one quadruplet
query underneath.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.oracles.counting import QueryCounter


#: Largest batch the concrete oracles serve query by query in plain Python
#: (:func:`cached_small_answers`); larger batches take the vectorised path
#: (:func:`cached_batch_answers`).  The vectorised path costs ~55-120 us per
#: call whatever its size, the per-query path ~1.5 us per memo hit and ~4 us
#: per fresh query; they break even between 16 and 90 queries, depending on
#: how many of the queries and distance pairs were seen before
#: (docs/batch-oracle-contract.md, "Small batches").
_SMALL_BATCH = 32


def _as_index_arrays(*arrays) -> tuple:
    """Broadcast the given index sequences to one common 1-D int64 shape."""
    arrs = [np.asarray(a, dtype=np.int64) for a in arrays]
    shape = arrs[0].shape
    if len(shape) == 1 and all(a.shape == shape for a in arrs):
        return tuple(arrs)
    return tuple(a.reshape(-1) for a in np.broadcast_arrays(*arrs))


def check_index_arrays(n: int, *arrays, what: str = "record index") -> None:
    """Raise :class:`InvalidParameterError` for any index outside ``[0, n)``."""
    for arr in arrays:
        arr = np.asarray(arr)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            bad = arr[(arr < 0) | (arr >= n)][0]
            raise InvalidParameterError(
                f"{what} {int(bad)} out of range for oracle over {n} records"
            )


def cached_batch_answers(cache: dict, codes: np.ndarray, compute_fresh) -> tuple:
    """Serve a batch of canonical query codes through a shared answer cache.

    Returns ``(answers, n_cached, cached_mask)`` where ``answers`` is a
    boolean array aligned with *codes*, ``n_cached`` counts cache hits
    (including within-batch repeats) and ``cached_mask`` marks the hit
    positions in batch order — the mask is what lets
    :meth:`~repro.oracles.counting.QueryCounter.record_batch` clamp a budget
    overrun at exactly the query where a scalar loop would have raised.
    ``compute_fresh(miss)`` receives the positions of the **first
    occurrence** of each distinct uncached code, in batch order — the order
    matters: persistent noise models draw one flip per new query, and seeded
    runs only reproduce the scalar loop if fresh queries reach the noise
    model in exactly the order the loop would issue them.  Fresh answers are
    stored in *cache* under their integer codes.
    """
    m = len(codes)
    code_list = codes.tolist()
    if cache:
        contained = np.fromiter(
            map(cache.__contains__, code_list), dtype=bool, count=m
        )
        new_pos = np.nonzero(~contained)[0]
    else:
        new_pos = np.arange(m)
    cached_mask = np.ones(m, dtype=bool)
    if new_pos.size:
        first_idx = np.unique(codes[new_pos], return_index=True)[1]
        miss = new_pos[np.sort(first_idx)]
        fresh = compute_fresh(miss)
        cache.update(zip(codes[miss].tolist(), fresh.tolist()))
        cached_mask[miss] = False
        n_cached = m - miss.size
    else:
        n_cached = m
    answers = np.fromiter(map(cache.__getitem__, code_list), dtype=bool, count=m)
    return answers, n_cached, cached_mask


def cached_small_answers(cache: dict, keys: list, compute_fresh) -> tuple:
    """:func:`cached_batch_answers` for a short list of query keys.

    Same contract, in plain Python for batches of at most ``_SMALL_BATCH``
    queries: one memo probe per key; ``compute_fresh(miss)`` receives the
    positions of the first occurrence of each uncached key, in batch order,
    and returns their answers as a list; the whole batch reaches the memo
    before the caller records it.  Returns ``(answers, cached_mask)`` as
    lists aligned with *keys*.
    """
    first: dict = {}
    cached_mask = []
    for pos, key in enumerate(keys):
        hit = key in cache or key in first
        if not hit:
            first[key] = pos
        cached_mask.append(hit)
    if first:
        cache.update(zip(first, compute_fresh(list(first.values()))))
    return [cache[key] for key in keys], cached_mask


class BaseComparisonOracle:
    """Interface of a Yes/No comparison oracle over record indices."""

    #: Shared query counter; concrete oracles must set this in ``__init__``.
    counter: QueryCounter

    def compare(self, i: int, j: int) -> bool:
        """Return Yes (True) when value(i) <= value(j), possibly with noise."""
        raise NotImplementedError

    def compare_batch(self, i, j) -> np.ndarray:
        """Answer ``compare(i[k], j[k])`` for every k, as one boolean array.

        Elementwise equivalent to a loop of scalar :meth:`compare` calls in
        array order — same answers, same cache/persistence effects, same
        query accounting totals.  The base implementation *is* that loop;
        concrete oracles and adapters override it with vectorised versions,
        which is where the batch layer's speedup comes from.
        """
        i, j = _as_index_arrays(i, j)
        return np.fromiter(
            (self.compare(int(a), int(b)) for a, b in zip(i, j)),
            dtype=bool,
            count=len(i),
        )

    def is_smaller(self, i: int, j: int) -> bool:
        """Alias of :meth:`compare` with a more readable name at call sites."""
        return self.compare(i, j)


class BaseQuadrupletOracle:
    """Interface of a Yes/No quadruplet oracle over pairs of record indices."""

    counter: QueryCounter

    def compare(self, a: int, b: int, c: int, d: int) -> bool:
        """Return Yes (True) when d(a, b) <= d(c, d), possibly with noise."""
        raise NotImplementedError

    def compare_batch(self, a, b, c, d) -> np.ndarray:
        """Answer ``compare(a[k], b[k], c[k], d[k])`` for every k at once.

        Same contract as :meth:`BaseComparisonOracle.compare_batch`: loop
        fallback here, vectorised overrides in concrete oracles.
        """
        a, b, c, d = _as_index_arrays(a, b, c, d)
        return np.fromiter(
            (
                self.compare(int(w), int(x), int(y), int(z))
                for w, x, y, z in zip(a, b, c, d)
            ),
            dtype=bool,
            count=len(a),
        )


class MinimizingComparisonOracle(BaseComparisonOracle):
    """View of an oracle with the comparison direction reversed.

    The paper's minimum-finding algorithms are the maximum-finding algorithms
    with the roles of Yes and No swapped (Section 3.2).  Wrapping an oracle in
    this adapter lets every maximisation routine be reused verbatim for
    minimisation: ``compare(i, j)`` on the wrapper answers Yes when the
    underlying oracle says value(i) >= value(j).
    """

    def __init__(self, inner: BaseComparisonOracle):
        self.inner = inner
        self.counter = inner.counter

    def compare(self, i: int, j: int) -> bool:
        return not self.inner.compare(i, j)

    def compare_batch(self, i, j) -> np.ndarray:
        return np.logical_not(self.inner.compare_batch(i, j))


class FunctionComparisonOracle(BaseComparisonOracle):
    """A comparison oracle backed by an arbitrary ``(i, j) -> bool`` callable.

    Used by algorithms that need to run Count-Max over *derived* comparisons
    (for example the robust :func:`repro.neighbors.pairwise.pairwise_comp`
    subroutine, which aggregates many quadruplet queries into one Yes/No
    answer).  Queries are charged to the supplied counter only when
    ``charge`` is true — normally the underlying quadruplet queries have
    already been counted.
    """

    def __init__(
        self,
        fn: Callable[[int, int], bool],
        counter: Optional[QueryCounter] = None,
        charge: bool = False,
        tag: Optional[str] = None,
    ):
        self._fn = fn
        self.counter = counter if counter is not None else QueryCounter()
        self._charge = charge
        self._tag = tag

    def compare(self, i: int, j: int) -> bool:
        if self._charge:
            self.counter.record(tag=self._tag)
        return bool(self._fn(i, j))

    def compare_batch(self, i, j) -> np.ndarray:
        i, j = _as_index_arrays(i, j)
        if self._charge:
            self.counter.record_batch(len(i), tag=self._tag)
        # The wrapped callable stays scalar (it typically aggregates its own
        # batched sub-queries, e.g. ClusterComp); only the charging batches.
        return np.fromiter(
            (bool(self._fn(int(a), int(b))) for a, b in zip(i, j)),
            dtype=bool,
            count=len(i),
        )


class DistanceFromQueryOracle(BaseComparisonOracle):
    """Comparison view "which of i, j is farther from a fixed query point q?".

    ``compare(i, j)`` answers Yes when ``d(q, i) <= d(q, j)`` and is served by
    a single quadruplet query ``O(q, i, q, j)``.  Running a maximum-finding
    algorithm over this view returns the (approximately) farthest neighbour
    of ``q``; wrapping it in :class:`MinimizingComparisonOracle` returns the
    nearest neighbour.
    """

    def __init__(self, quadruplet_oracle: BaseQuadrupletOracle, query: int):
        self.quadruplet_oracle = quadruplet_oracle
        self.query = int(query)
        self.counter = quadruplet_oracle.counter

    def compare(self, i: int, j: int) -> bool:
        q = self.query
        return self.quadruplet_oracle.compare(q, i, q, j)

    def compare_batch(self, i, j) -> np.ndarray:
        i, j = _as_index_arrays(i, j)
        q = np.full(len(i), self.query, dtype=np.int64)
        return self.quadruplet_oracle.compare_batch(q, i, q, j)


class AssignmentDistanceOracle(BaseComparisonOracle):
    """Comparison view "which point is farther from its own assigned center?".

    Used by the k-center Approx-Farthest step: record *i* carries the value
    ``d(i, center(i))`` where ``center`` is the current assignment, and one
    comparison is served by a single quadruplet query
    ``O(i, center(i), j, center(j))``.
    """

    def __init__(
        self,
        quadruplet_oracle: BaseQuadrupletOracle,
        assignment: Sequence[int] | dict,
    ):
        self.quadruplet_oracle = quadruplet_oracle
        self.assignment = assignment
        self.counter = quadruplet_oracle.counter

    def compare(self, i: int, j: int) -> bool:
        centers = self.assignment
        return self.quadruplet_oracle.compare(i, int(centers[i]), j, int(centers[j]))

    def compare_batch(self, i, j) -> np.ndarray:
        i, j = _as_index_arrays(i, j)
        if isinstance(self.assignment, dict):
            si = np.fromiter(
                (self.assignment[int(x)] for x in i), dtype=np.int64, count=len(i)
            )
            sj = np.fromiter(
                (self.assignment[int(x)] for x in j), dtype=np.int64, count=len(j)
            )
        else:
            centers = np.asarray(self.assignment, dtype=np.int64)
            si = centers[i]
            sj = centers[j]
        return self.quadruplet_oracle.compare_batch(i, si, j, sj)


def distance_comparison_view(
    quadruplet_oracle: BaseQuadrupletOracle, query: int, minimize: bool = False
) -> BaseComparisonOracle:
    """Build a comparison oracle over "distance from *query*".

    Parameters
    ----------
    quadruplet_oracle:
        The underlying (noisy) quadruplet oracle.
    query:
        The fixed query record.
    minimize:
        When true the view is reversed so maximum-finding algorithms return
        the nearest neighbour instead of the farthest.
    """
    view: BaseComparisonOracle = DistanceFromQueryOracle(quadruplet_oracle, query)
    if minimize:
        view = MinimizingComparisonOracle(view)
    return view
