"""Warehouse-backed oracle wrappers conforming to the library interfaces.

:class:`StoredComparisonOracle` and :class:`StoredQuadrupletOracle` sit
between any algorithm and a concrete inner oracle: every query is first
looked up in a shared :class:`~repro.store.warehouse.AnswerStore` under its
canonical integer code, and only *misses* — queries the warehouse cannot yet
resolve under its replication/confidence policy — are forwarded to the inner
oracle (the real crowd).  The wrapper's :class:`~repro.oracles.counting.QueryCounter`
charges exactly those misses; warehouse hits are recorded as cached, so the
counter's hit rate *is* the cross-session dedup rate.

Determinism contract: with a cold store and the default ``replication=1``,
forwarded queries reach the inner oracle as exactly the first occurrences of
each distinct canonical query, in presentation order — the same sequence the
inner oracle's own ``compare_batch`` dedup would produce — so seeded runs
through a cold wrapper are bit-identical to the direct oracle path,
persistent noise draws included.  With ``replication > 1`` each unresolved
query is re-forwarded until enough votes accumulate; genuinely *independent*
votes require an inner oracle whose answers are not persisted per query
(e.g. ``ProbabilisticNoise(persistent=False)``, or per-run noise seeds),
which is documented in ``docs/subsystems/store.md``.

Two serving paths give identical answers, counter records, votes and WAL
bytes: batches of at most ``_SMALL_BATCH`` queries and the scalar
``compare`` go query by query through plain Python lists
(:meth:`_StoredOracleCore._serve_small`), larger batches through array
rounds (:meth:`_StoredOracleCore._serve_codes`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.exceptions import InvalidParameterError
from repro.oracles.base import (
    BaseComparisonOracle,
    BaseQuadrupletOracle,
    _SMALL_BATCH,
    _as_index_arrays,
    check_index_arrays,
)
from repro.oracles.counting import QueryCounter
from repro.oracles.keys import (
    COMPARISON_INT64_MAX_N,
    QUADRUPLET_INT64_MAX_N,
    comparison_key,
    comparison_keys,
    quadruplet_key,
    quadruplet_keys,
)
from repro.store.warehouse import AnswerStore


class _StoredOracleCore:
    """Shared store/counter plumbing of the two wrapper classes."""

    #: Largest record count whose codes fit the warehouse's one-int64 keys.
    _max_records: Optional[int] = None

    def __init__(
        self,
        inner,
        store: AnswerStore,
        counter: Optional[QueryCounter] = None,
        tag: Optional[str] = None,
    ):
        self.inner = inner
        self.store = store
        self.counter = counter if counter is not None else QueryCounter()
        self.tag = tag
        try:
            n = len(inner)
        except TypeError:
            raise InvalidParameterError(
                "the answer warehouse needs a sized inner oracle (len(inner) "
                "pins the store's keyspace); wrap the backend in an oracle "
                "that knows its record count"
            ) from None
        if self._max_records is not None and n > self._max_records:
            raise InvalidParameterError(
                f"{type(self).__name__} serves at most {self._max_records:,} records, "
                f"got {n:,}: warehouse keys are one int64 on disk, and the query "
                f"codes of more records overflow it"
            )
        store.bind_n_records(n)

    def __len__(self) -> int:
        return len(self.inner)

    # -- small-batch path -----------------------------------------------------

    def _serve_small(
        self, queries: list, counter: QueryCounter, tag: Optional[str]
    ) -> list:
        """Serve a few keyed queries through the warehouse, in plain Python.

        *queries* holds, per query, its scalar key tuple
        (``(code, *canonical indices, flipped)`` from
        :func:`~repro.oracles.keys.comparison_key` or
        :func:`~repro.oracles.keys.quadruplet_key`) or ``None`` when trivial;
        returns the answers as a list of bools.  The rounds, the order of
        the forwarded queries, the votes, the counter records and the obs
        counts are those of :meth:`_serve_codes` over the same queries: one
        :meth:`~repro.store.warehouse.AnswerStore.lookup_batch` call per
        round (the first over every non-trivial query, later ones over the
        unresolved repeats), the first occurrence of each unresolved code
        forwarded through the inner ``compare_batch``, and one ``add_votes``
        call per round.  Used for batches of at most ``_SMALL_BATCH``
        queries and for the scalar ``compare``.
        """
        out = [True] * len(queries)
        active = [pos for pos, query in enumerate(queries) if query is not None]
        if not active:
            return out
        codes = [queries[pos][0] for pos in active]
        resolved, answers = self.store.lookup_batch(codes)
        cached_mask = resolved.tolist()
        canonical = answers.tolist()
        pending = [k for k, hit in enumerate(cached_mask) if not hit]
        while pending:
            # First occurrence of each distinct unresolved code, in batch
            # order — the order persistent noise draws depend on.
            first: dict = {}
            for k in pending:
                first.setdefault(codes[k], k)
            ask = list(first.values())
            asked = [queries[active[k]][1:-1] for k in ask]
            fresh = self.inner.compare_batch(*zip(*asked)).tolist()
            self.store.add_votes(list(first), fresh)
            for k, answer in zip(ask, fresh):
                canonical[k] = answer
            rest = [k for k in pending if first[codes[k]] != k]
            if rest:
                res_now, ans_now = self.store.lookup_batch([codes[k] for k in rest])
                for k, hit, answer in zip(rest, res_now.tolist(), ans_now.tolist()):
                    if hit:
                        canonical[k] = answer
                        cached_mask[k] = True
                rest = [k for k in rest if not cached_mask[k]]
            pending = rest
        for k, pos in enumerate(active):
            out[pos] = canonical[k] != queries[pos][-1]
        if obs.enabled():
            n_hits = sum(cached_mask)
            obs.inc("store.lookup_hits", n_hits)
            obs.inc("store.lookup_misses", len(active) - n_hits)
        counter.record_batch(len(active), cached_mask=cached_mask, tag=tag)
        return out

    def _serve_small_batch(
        self, key, columns: tuple, counter: QueryCounter, tag: Optional[str]
    ) -> np.ndarray:
        """:meth:`_serve_small` over index arrays: validate, key with *key*, serve."""
        n = len(self.inner)
        columns = [column.tolist() for column in columns]
        if columns[0] and (min(map(min, columns)) < 0 or max(map(max, columns)) >= n):
            check_index_arrays(n, *columns)
        queries = list(map(key, *columns, repeat(n)))
        return np.array(self._serve_small(queries, counter, tag), dtype=bool)

    # -- batched path ---------------------------------------------------------

    def _serve_codes(
        self,
        codes: np.ndarray,
        flipped: np.ndarray,
        trivial: np.ndarray,
        ask_inner: Callable[[np.ndarray], np.ndarray],
        counter: QueryCounter,
        tag: Optional[str],
    ) -> np.ndarray:
        """Serve one batch of canonical codes through the warehouse.

        ``ask_inner(positions)`` must answer the *canonical* queries at the
        given full-batch positions through the inner oracle, preserving
        order.  Rounds: resolve what the store can, forward the first
        occurrence of each still-unresolved code, fold the votes in, re-check
        — repeated occurrences of a code that resolves mid-batch become store
        hits, exactly as a scalar loop over the same queries would see.  The
        counter records every non-trivial query at the end (hits via
        ``cached_mask``), clamping to the scalar prefix on a budget overrun
        just like the concrete oracles.  Only the counter clamps: when the
        overrun is raised, the warehouse already holds a vote for every
        first-occurrence miss of the *whole* batch (a scalar loop stops
        storing at the over-budget query).  Every non-trivial query counts
        once in ``store.lookup_hits`` or ``store.lookup_misses``, as in the
        scalar path, however many probe rounds it took.
        """
        m = len(codes)
        out = np.ones(m, dtype=bool)
        active = np.nonzero(~trivial)[0]
        if active.size == 0:
            return out
        codes_a = codes[active]
        canonical = np.zeros(active.size, dtype=bool)
        resolved, answers = self.store.lookup_batch(codes_a)
        canonical[resolved] = answers[resolved]
        cached_mask = resolved.copy()
        pending = np.nonzero(~resolved)[0]
        while pending.size:
            # First occurrence of each distinct unresolved code, in batch
            # order — the order persistent noise draws depend on.
            first_idx = np.unique(codes_a[pending], return_index=True)[1]
            ask_local = pending[np.sort(first_idx)]
            fresh = ask_inner(active[ask_local])
            self.store.add_votes(codes_a[ask_local], fresh)
            canonical[ask_local] = fresh
            rest = pending[~np.isin(pending, ask_local)]
            if rest.size:
                res_now, ans_now = self.store.lookup_batch(codes_a[rest])
                hit = rest[res_now]
                canonical[hit] = ans_now[res_now]
                cached_mask[hit] = True
                rest = rest[~res_now]
            pending = rest
        out[active] = canonical ^ flipped[active]
        if obs.enabled():
            n_hits = int(np.count_nonzero(cached_mask))
            obs.inc("store.lookup_hits", n_hits)
            obs.inc("store.lookup_misses", active.size - n_hits)
        counter.record_batch(active.size, cached_mask=cached_mask, tag=tag)
        return out


class StoredComparisonOracle(_StoredOracleCore, BaseComparisonOracle):
    """A :class:`BaseComparisonOracle` that answers from the warehouse first.

    Parameters
    ----------
    inner:
        The concrete oracle (the "crowd") consulted on warehouse misses.  It
        must expose ``len()`` — the record count pins the store's keyspace.
    store:
        The shared :class:`~repro.store.warehouse.AnswerStore`.
    counter:
        Counter charged only on true misses (fresh by default).
    tag:
        Optional accounting tag.

    Inner oracles over more than
    :data:`~repro.oracles.keys.COMPARISON_INT64_MAX_N` records are rejected
    at construction, for the same one-int64 reason as
    :class:`StoredQuadrupletOracle`.
    """

    _max_records = COMPARISON_INT64_MAX_N

    def compare(self, i: int, j: int) -> bool:
        i, j = int(i), int(j)
        n = len(self.inner)
        if not (0 <= i < n and 0 <= j < n):
            check_index_arrays(n, [i, j])
        return self._serve_small([comparison_key(i, j, n)], self.counter, self.tag)[0]

    def compare_batch(self, i, j) -> np.ndarray:
        return self.serve_batch(i, j, counter=self.counter, tag=self.tag)

    def serve_batch(
        self, i, j, counter: Optional[QueryCounter] = None, tag: Optional[str] = None
    ) -> np.ndarray:
        """:meth:`compare_batch` charging an explicit counter.

        Used by :class:`~repro.service.core.CrowdOracleService` to charge the
        *submitting session's* counter — with warehouse hits recorded as
        cached — instead of the wrapper's own.
        """
        if counter is None:
            counter, tag = self.counter, self.tag
        i, j = _as_index_arrays(i, j)
        if len(i) <= _SMALL_BATCH:
            return self._serve_small_batch(comparison_key, (i, j), counter, tag)
        n = len(self.inner)
        check_index_arrays(n, i, j)
        codes, flipped, trivial, lo, hi = comparison_keys(i, j, n)
        return self._serve_codes(
            codes,
            flipped,
            trivial,
            lambda pos: self.inner.compare_batch(lo[pos], hi[pos]),
            counter,
            tag,
        )


class StoredQuadrupletOracle(_StoredOracleCore, BaseQuadrupletOracle):
    """A :class:`BaseQuadrupletOracle` that answers from the warehouse first.

    Same contract as :class:`StoredComparisonOracle`, over the non-negative
    quadruplet keyspace.  Inner oracles over more than
    :data:`~repro.oracles.keys.QUADRUPLET_INT64_MAX_N` (55,108) records are
    rejected at construction: warehouse keys are one int64 on disk, and
    quadruplet codes over more records do not fit one.
    """

    _max_records = QUADRUPLET_INT64_MAX_N

    def compare(self, a: int, b: int, c: int, d: int) -> bool:
        a, b, c, d = int(a), int(b), int(c), int(d)
        n = len(self.inner)
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n and 0 <= d < n):
            check_index_arrays(n, [a, b, c, d])
        query = quadruplet_key(a, b, c, d, n)
        return self._serve_small([query], self.counter, self.tag)[0]

    def compare_batch(self, a, b, c, d) -> np.ndarray:
        return self.serve_batch(a, b, c, d, counter=self.counter, tag=self.tag)

    def serve_batch(
        self,
        a,
        b,
        c,
        d,
        counter: Optional[QueryCounter] = None,
        tag: Optional[str] = None,
    ) -> np.ndarray:
        """:meth:`compare_batch` charging an explicit counter (service hook)."""
        if counter is None:
            counter, tag = self.counter, self.tag
        a, b, c, d = _as_index_arrays(a, b, c, d)
        if len(a) <= _SMALL_BATCH:
            return self._serve_small_batch(quadruplet_key, (a, b, c, d), counter, tag)
        n = len(self.inner)
        check_index_arrays(n, a, b, c, d)
        codes, flipped, trivial, L1, L2, R1, R2 = quadruplet_keys(a, b, c, d, n)
        return self._serve_codes(
            codes,
            flipped,
            trivial,
            lambda pos: self.inner.compare_batch(L1[pos], L2[pos], R1[pos], R2[pos]),
            counter,
            tag,
        )
