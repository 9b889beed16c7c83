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
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.exceptions import InvalidParameterError
from repro.oracles.base import (
    BaseComparisonOracle,
    BaseQuadrupletOracle,
    _as_index_arrays,
    check_index_arrays,
)
from repro.oracles.counting import QueryCounter
from repro.store.keys import (
    canonical_comparison,
    canonical_quadruplet,
    comparison_code,
    comparison_codes,
    quadruplet_code,
    quadruplet_codes,
    quadruplet_codes_fit,
)
from repro.store.warehouse import AnswerStore


class _StoredOracleCore:
    """Shared store/counter plumbing of the two wrapper classes."""

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
        store.bind_n_records(n)

    def __len__(self) -> int:
        return len(self.inner)

    def _check(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < len(self.inner):
            raise InvalidParameterError(
                f"record index {i} out of range for oracle over {len(self.inner)} records"
            )
        return i

    # -- scalar path ----------------------------------------------------------

    def _serve_one(self, code: int, flipped: bool, ask_inner, counter, tag) -> bool:
        stored = self.store.lookup(code)
        if stored is not None:
            if obs.enabled():
                obs.inc("store.lookup_hits")
            counter.record(cached=True, tag=tag)
            return (not stored) if flipped else stored
        if obs.enabled():
            obs.inc("store.lookup_misses")
        answer = bool(ask_inner())
        self.store.add_vote(code, answer)
        counter.record(tag=tag)
        return (not answer) if flipped else answer

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
        just like the concrete oracles.  Every non-trivial query counts once
        in ``store.lookup_hits`` or ``store.lookup_misses``, as in the
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
    """

    def compare(self, i: int, j: int) -> bool:
        i, j = self._check(i), self._check(j)
        if i == j:
            return True
        lo, hi, flipped = canonical_comparison(i, j)
        code = comparison_code(lo, hi, len(self.inner))
        return self._serve_one(
            code, flipped, lambda: self.inner.compare(lo, hi), self.counter, self.tag
        )

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
        i, j = _as_index_arrays(i, j)
        n = len(self.inner)
        check_index_arrays(n, i, j)
        codes, flipped, trivial = comparison_codes(i, j, n)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        return self._serve_codes(
            codes,
            flipped,
            trivial,
            lambda pos: self.inner.compare_batch(lo[pos], hi[pos]),
            counter if counter is not None else self.counter,
            tag if counter is not None else self.tag,
        )


class StoredQuadrupletOracle(_StoredOracleCore, BaseQuadrupletOracle):
    """A :class:`BaseQuadrupletOracle` that answers from the warehouse first.

    Same contract as :class:`StoredComparisonOracle`, over the non-negative
    quadruplet keyspace.  For record counts where the vectorised int64 code
    encoding would overflow (``n**4 > 2**63 - 1``), the batch path falls
    back to the scalar loop — Python integers never overflow, so the store
    keeps working at any scale.
    """

    def compare(self, a: int, b: int, c: int, d: int) -> bool:
        a, b, c, d = (self._check(a), self._check(b), self._check(c), self._check(d))
        left, right, flipped = canonical_quadruplet(a, b, c, d)
        if left == right:
            return True
        code = quadruplet_code(left, right, len(self.inner))
        return self._serve_one(
            code,
            flipped,
            lambda: self.inner.compare(*left, *right),
            self.counter,
            self.tag,
        )

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
        a, b, c, d = _as_index_arrays(a, b, c, d)
        n = len(self.inner)
        check_index_arrays(n, a, b, c, d)
        use_counter = counter if counter is not None else self.counter
        use_tag = tag if counter is not None else self.tag
        if not quadruplet_codes_fit(n):
            return np.fromiter(
                (
                    self._serve_scalar_with(int(w), int(x), int(y), int(z), use_counter, use_tag)
                    for w, x, y, z in zip(a, b, c, d)
                ),
                dtype=bool,
                count=len(a),
            )
        codes, flipped, trivial = quadruplet_codes(a, b, c, d, n)
        lp1, lp2 = np.minimum(a, b), np.maximum(a, b)
        rp1, rp2 = np.minimum(c, d), np.maximum(c, d)
        L1 = np.where(flipped, rp1, lp1)
        L2 = np.where(flipped, rp2, lp2)
        R1 = np.where(flipped, lp1, rp1)
        R2 = np.where(flipped, lp2, rp2)
        return self._serve_codes(
            codes,
            flipped,
            trivial,
            lambda pos: self.inner.compare_batch(L1[pos], L2[pos], R1[pos], R2[pos]),
            use_counter,
            use_tag,
        )

    def _serve_scalar_with(self, a, b, c, d, counter, tag) -> bool:
        left, right, flipped = canonical_quadruplet(a, b, c, d)
        if left == right:
            return True
        code = quadruplet_code(left, right, len(self.inner))
        return self._serve_one(
            code, flipped, lambda: self.inner.compare(*left, *right), counter, tag
        )
