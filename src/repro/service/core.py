"""The asyncio crowd-oracle service: micro-batching, budgets, backpressure.

:class:`CrowdOracleService` multiplexes many concurrent algorithm *sessions*
onto one (or two — comparison and quadruplet) batched oracle backends.
Sessions submit Yes/No queries; the service coalesces them into micro-batches
flushed on whichever trigger fires first — the batch reaches
``max_batch_size`` or the ``batch_window`` since the first collected query
elapses — and dispatches each micro-batch through the backend's
``compare_batch`` in arrival order.  A seeded simulated crowd latency
(``latency`` plus uniform ``jitter``) is charged per dispatched batch, which
is exactly what makes coalescing pay: the round trip is amortised over every
query in the batch.

Determinism: queries reach the backend in submission order (a FIFO queue,
and batches compute their answers before awaiting the simulated latency), so
a single session issuing a fixed query sequence sees bit-identical answers
to calling the backend oracle directly — including persistent noise models,
whose draws depend on first-presentation order.  With several concurrent
sessions the *interleaving* decides the draw order instead, as it would with
a real crowd.

Budgets: every session carries its own :class:`~repro.oracles.counting.QueryCounter`.
The service charges a session for each non-trivial query it submits (self
comparisons — both pairs identical — are free, as on the direct path) at
dispatch time; a session that overruns its budget has the offending request
failed with :class:`~repro.exceptions.QueryBudgetExceededError` while every
other session keeps running.  The backend's own counter still records the
global picture, including its answer-cache hits; per-session counters cannot
see which backend answers were cache hits, so they charge all dispatched
queries (documented in ``docs/subsystems/service.md``).

Backpressure: the submission queue is bounded at ``max_pending`` requests —
producers block (``await``) rather than grow memory without bound — and at
most ``max_inflight`` dispatched batches overlap their simulated latency.

Warehouse: constructed with ``store=`` (an
:class:`~repro.store.warehouse.AnswerStore`), the service serves every
micro-batch through warehouse-backed oracle wrappers instead: answers the
store already holds never reach the crowd, fresh answers are persisted as
votes, and per-session counters then *do* see hits — a session is charged
only for its true misses, so its counter's hit rate measures how much of its
traffic other sessions (or earlier runs) already paid for.  A micro-batch
the warehouse answers entirely (no fresh votes) skips the simulated crowd
latency too: nothing was asked, so no round trip is owed.  ``stop()``
flushes the store's group-commit buffer so acknowledged answers are durable.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.exceptions import (
    InvalidParameterError,
    QueryBudgetExceededError,
    ServiceClosedError,
)
from repro.oracles.base import (
    BaseComparisonOracle,
    BaseQuadrupletOracle,
    _as_index_arrays,
    check_index_arrays,
)
from repro.oracles.counting import QueryCounter
from repro.oracles.keys import canonical_quadruplets
from repro.rng import SeedLike, ensure_rng
from repro.store.oracle import StoredComparisonOracle, StoredQuadrupletOracle
from repro.store.warehouse import AnswerStore

#: Query kinds a request can carry (which backend serves it).
KIND_COMPARISON = "comparison"
KIND_QUADRUPLET = "quadruplet"


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of a :class:`CrowdOracleService`.

    Attributes
    ----------
    batch_window:
        Seconds the collector keeps a partially filled micro-batch open after
        its first query arrives.  ``0`` flushes immediately (every dispatch
        carries whatever was already queued).
    max_batch_size:
        Queries per micro-batch at which the batch flushes regardless of the
        window.
    max_pending:
        Bound of the submission queue; submitting sessions block once this
        many requests are waiting (backpressure).
    max_inflight:
        Maximum dispatched micro-batches overlapping their simulated crowd
        latency at any moment.
    latency:
        Simulated crowd round-trip seconds charged per dispatched batch.
    jitter:
        Upper bound of the uniform extra latency added per batch (seeded).
    seed:
        Seed of the jitter stream.
    """

    batch_window: float = 0.005
    max_batch_size: int = 256
    max_pending: int = 1024
    max_inflight: int = 4
    latency: float = 0.0
    jitter: float = 0.0
    seed: SeedLike = None

    def __post_init__(self):
        if self.batch_window < 0:
            raise InvalidParameterError(
                f"batch_window must be non-negative, got {self.batch_window}"
            )
        if self.max_batch_size < 1:
            raise InvalidParameterError(
                f"max_batch_size must be at least 1, got {self.max_batch_size}"
            )
        if self.max_pending < 1:
            raise InvalidParameterError(
                f"max_pending must be at least 1, got {self.max_pending}"
            )
        if self.max_inflight < 1:
            raise InvalidParameterError(
                f"max_inflight must be at least 1, got {self.max_inflight}"
            )
        if self.latency < 0 or self.jitter < 0:
            raise InvalidParameterError("latency and jitter must be non-negative")


@dataclass
class ServiceStats:
    """Counters the service maintains for observability and tests.

    All fields are O(1) running aggregates — a long-running service must not
    accrete per-batch state.
    """

    n_requests: int = 0
    n_queries: int = 0
    n_batches: int = 0
    n_dispatched_queries: int = 0
    max_pending_seen: int = 0
    max_inflight_seen: int = 0
    max_batch_size_seen: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.n_dispatched_queries / self.n_batches if self.n_batches else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n_requests": self.n_requests,
            "n_queries": self.n_queries,
            "n_batches": self.n_batches,
            "n_dispatched_queries": self.n_dispatched_queries,
            "max_pending_seen": self.max_pending_seen,
            "max_inflight_seen": self.max_inflight_seen,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size_seen": self.max_batch_size_seen,
        }


@dataclass
class _Request:
    """One submitted query batch: arrays, owning session, and its future."""

    session: "ServiceSession"
    kind: str
    arrays: Tuple[np.ndarray, ...]
    n: int
    n_chargeable: int
    future: asyncio.Future


class ServiceSession:
    """One algorithm's view of the service: async queries plus a private budget.

    Sessions are cheap; open one per concurrent algorithm run with
    :meth:`CrowdOracleService.open_session`.  All methods are coroutines —
    synchronous algorithms go through
    :class:`~repro.service.adapter.ServiceOracleAdapter` instead.
    """

    def __init__(
        self,
        service: "CrowdOracleService",
        counter: QueryCounter,
        tag: Optional[str] = None,
        name: Optional[str] = None,
    ):
        self.service = service
        self.counter = counter
        self.tag = tag
        self.name = name

    # -- comparison queries ---------------------------------------------------

    async def compare(self, i: int, j: int) -> bool:
        """Async "is value(i) <= value(j)?" served by the comparison backend."""
        answers = await self.compare_batch([i], [j])
        return bool(answers[0])

    async def compare_batch(self, i, j) -> np.ndarray:
        """Async batched comparison; one service request, one boolean array."""
        i, j = _as_index_arrays(i, j)
        self.service._check_indices(KIND_COMPARISON, i, j)
        chargeable = int(np.count_nonzero(i != j))
        return await self.service._submit(
            _make_request(self, KIND_COMPARISON, (i, j), chargeable)
        )

    # -- quadruplet queries ---------------------------------------------------

    async def quadruplet(self, a: int, b: int, c: int, d: int) -> bool:
        """Async "is d(a, b) <= d(c, d)?" served by the quadruplet backend."""
        answers = await self.quadruplet_batch([a], [b], [c], [d])
        return bool(answers[0])

    async def quadruplet_batch(self, a, b, c, d) -> np.ndarray:
        """Async batched quadruplet comparison."""
        a, b, c, d = _as_index_arrays(a, b, c, d)
        self.service._check_indices(KIND_QUADRUPLET, a, b, c, d)
        # Self-comparisons (both canonical pairs identical) are answered Yes
        # by the backend without crowd work; don't charge the session either.
        trivial = canonical_quadruplets(a, b, c, d)[1]
        chargeable = int(np.count_nonzero(~trivial))
        return await self.service._submit(
            _make_request(self, KIND_QUADRUPLET, (a, b, c, d), chargeable)
        )


def _make_request(
    session: ServiceSession, kind: str, arrays: Tuple[np.ndarray, ...], chargeable: int
) -> _Request:
    return _Request(
        session=session,
        kind=kind,
        arrays=arrays,
        n=len(arrays[0]),
        n_chargeable=chargeable,
        future=asyncio.get_running_loop().create_future(),
    )


class CrowdOracleService:
    """Micro-batching front end over batched comparison/quadruplet oracles.

    Parameters
    ----------
    comparison:
        Backend serving comparison queries, or ``None`` when the service only
        answers quadruplet queries.
    quadruplet:
        Backend serving quadruplet queries, or ``None``.
    config:
        Batching, latency and backpressure knobs.
    store:
        Optional :class:`~repro.store.warehouse.AnswerStore` shared by every
        session of this service (and, through its directory, by other
        processes' runs).  When set, each backend is wrapped in a
        warehouse-backed oracle: queries the store can already resolve never
        reach the crowd, and each session's
        :class:`~repro.oracles.counting.QueryCounter` records its own
        hit/miss/charged split — a session is charged only for its true
        warehouse misses.  Budget enforcement moves to serving time (the
        store decides what a miss is), so a request that overruns its budget
        may already have dispatched its misses, mirroring the concrete
        oracles' overrun contract.
    """

    def __init__(
        self,
        comparison: Optional[BaseComparisonOracle] = None,
        quadruplet: Optional[BaseQuadrupletOracle] = None,
        config: Optional[ServiceConfig] = None,
        store: Optional[AnswerStore] = None,
    ):
        if comparison is None and quadruplet is None:
            raise InvalidParameterError(
                "the service needs at least one backend oracle"
            )
        self.comparison = comparison
        self.quadruplet = quadruplet
        self.config = config if config is not None else ServiceConfig()
        self.store = store
        self._stored: Dict[str, Any] = {}
        if store is not None:
            if comparison is not None:
                self._stored[KIND_COMPARISON] = StoredComparisonOracle(
                    comparison, store
                )
            if quadruplet is not None:
                self._stored[KIND_QUADRUPLET] = StoredQuadrupletOracle(
                    quadruplet, store
                )
        self.stats = ServiceStats()
        self._rng = ensure_rng(self.config.seed)
        self._queue: Optional[asyncio.Queue] = None
        self._collector: Optional[asyncio.Task] = None
        self._inflight: Optional[asyncio.Semaphore] = None
        self._inflight_tasks: set = set()
        self._inflight_count = 0
        self._running = False
        self._session_counter = 0

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Start the collector loop; must run inside the serving event loop."""
        if self._running:
            return
        self._queue = asyncio.Queue(maxsize=self.config.max_pending)
        self._inflight = asyncio.Semaphore(self.config.max_inflight)
        self._collector = asyncio.create_task(self._collect_loop())
        self._running = True

    async def stop(self) -> None:
        """Finish in-flight work, fail still-queued requests, stop collecting.

        Batches already dispatched — and the one the collector has already
        taken off the queue — run to completion, simulated latency included.
        Requests still waiting in the queue, and those of producers blocked
        on a full queue, fail with :class:`~repro.exceptions.ServiceClosedError`
        without reaching the backend or the warehouse.  No request future is
        left pending once this returns.
        """
        if not self._running:
            return
        self._running = False
        await self._fail_queued()
        await self._queue.put(None)  # wake the collector with the sentinel
        await self._collector
        if self._inflight_tasks:
            await asyncio.gather(*self._inflight_tasks, return_exceptions=True)
        await self._fail_queued()
        if obs.enabled():
            # Fold the backend oracles' QueryCounters into the registry so
            # charged-vs-cached per tag shows up next to the service metrics.
            registry = obs.get_registry()
            for kind, backend in (
                (KIND_COMPARISON, self.comparison),
                (KIND_QUADRUPLET, self.quadruplet),
            ):
                counter = getattr(backend, "counter", None)
                if counter is not None:
                    counter.fold_into(registry, name="oracle", backend=kind)
        if self.store is not None:
            # Pay any group-commit fsync still pending, so every answer the
            # service acknowledged is durable when the service is.
            self.store.flush()

    async def _fail_queued(self) -> None:
        """Fail every queued request with :class:`ServiceClosedError`.

        Each ``get_nowait`` lets one producer blocked on the full queue put
        its request; yielding once lets it in, so the sweep ends with the
        queue empty and no producer left waiting on it.
        """
        while not self._queue.empty():
            while not self._queue.empty():
                leftover = self._queue.get_nowait()
                if leftover is not None and not leftover.future.done():
                    leftover.future.set_exception(
                        ServiceClosedError("crowd-oracle service stopped")
                    )
            await asyncio.sleep(0)

    async def __aenter__(self) -> "CrowdOracleService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- sessions -------------------------------------------------------------

    def open_session(
        self,
        budget: Optional[int] = None,
        tag: Optional[str] = None,
        name: Optional[str] = None,
    ) -> ServiceSession:
        """Open a session with its own :class:`QueryCounter` (optional budget)."""
        self._session_counter += 1
        obs.inc("service.sessions_opened")
        if name is None:
            name = f"session-{self._session_counter}"
        return ServiceSession(
            self, QueryCounter(budget=budget), tag=tag, name=name
        )

    # -- submission -----------------------------------------------------------

    async def _submit(self, request: _Request) -> np.ndarray:
        if not self._running:
            raise ServiceClosedError("crowd-oracle service is not running")
        self._backend_for(request.kind)  # validate the kind up front
        if obs.disabled():
            await self._queue.put(request)
            self.stats.n_requests += 1
            self.stats.n_queries += request.n
            self.stats.max_pending_seen = max(
                self.stats.max_pending_seen, self._queue.qsize()
            )
            return await request.future
        start = time.perf_counter()
        if self._queue.full():
            obs.inc("service.backpressure_stalls")
        await self._queue.put(request)
        self.stats.n_requests += 1
        self.stats.n_queries += request.n
        depth = self._queue.qsize()
        self.stats.max_pending_seen = max(self.stats.max_pending_seen, depth)
        obs.gauge_max("service.max_pending", depth)
        result = await request.future
        # Dispatch→answer latency as the session experiences it: queue wait,
        # batching window, backend compute, and the simulated round trip.
        obs.observe("service.request_seconds", time.perf_counter() - start)
        return result

    def _backend_for(self, kind: str):
        backend = self.comparison if kind == KIND_COMPARISON else self.quadruplet
        if backend is None:
            raise InvalidParameterError(
                f"service has no {kind} backend configured"
            )
        return backend

    def _check_indices(self, kind: str, *arrays) -> None:
        """Reject out-of-range indices at submit time, in the caller's frame.

        Requests from different sessions share micro-batches and one backend
        ``compare_batch`` call; an invalid index slipping through to dispatch
        would fail the whole batch, punishing innocent co-batched sessions.
        Backends without a length (e.g. a bare callable wrapper) skip the
        check and keep their own validation semantics.
        """
        backend = self._backend_for(kind)
        try:
            n = len(backend)
        except TypeError:
            return
        check_index_arrays(n, *arrays)

    # -- collection and dispatch ----------------------------------------------

    async def _collect_loop(self) -> None:
        """Collect requests into micro-batches; flush on size or window."""
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is None:
                break
            batch = [first]
            size = first.n
            cause = "size"  # falling out of the while condition means the batch filled
            deadline = loop.time() + self.config.batch_window
            while size < self.config.max_batch_size:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    # Window spent (or zero): still drain whatever is already
                    # queued — a dispatch always carries every waiting query
                    # it has room for, it just stops *waiting* for more.
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        cause = "window"
                        break
                else:
                    try:
                        item = await asyncio.wait_for(self._queue.get(), remaining)
                    except asyncio.TimeoutError:
                        continue  # re-check: drains opportunistically, then breaks
                if item is None:
                    stopping = True
                    cause = "shutdown"
                    break
                batch.append(item)
                size += item.n
            if obs.enabled():
                obs.inc("service.flushes", cause=cause)
                obs.observe("service.batch_size", size, buckets=obs.DEFAULT_SIZE_BUCKETS)
            await self._inflight.acquire()
            self._inflight_count += 1
            self.stats.max_inflight_seen = max(
                self.stats.max_inflight_seen, self._inflight_count
            )
            task = asyncio.create_task(self._run_batch(batch, size))
            self._inflight_tasks.add(task)
            task.add_done_callback(self._inflight_tasks.discard)

    async def _run_batch(self, batch: List[_Request], size: int) -> None:
        """Account budgets, answer one micro-batch, simulate latency, resolve."""
        self.stats.n_batches += 1
        self.stats.n_dispatched_queries += size
        self.stats.max_batch_size_seen = max(self.stats.max_batch_size_seen, size)
        with obs.span("service.batch", subsystem="service", size=size), \
                obs.timer("service.batch_seconds"):
            await self._run_batch_inner(batch, size)

    async def _run_batch_inner(self, batch: List[_Request], size: int) -> None:
        try:
            if self.store is not None:
                before_votes = self.store.n_votes
                admitted, answers = self._serve_via_store(batch)
                # An all-hit micro-batch appended no fresh votes: every query
                # was answered from the warehouse's read index, nothing went
                # to the crowd, so no simulated round trip is owed.  This is
                # what makes a warm store *faster* than the direct path
                # instead of merely cheaper.
                crowd_was_asked = self.store.n_votes > before_votes
            else:
                # Budget accounting first: a session over budget has its
                # request failed here and its queries never reach the backend.
                admitted = []
                for request in batch:
                    try:
                        request.session.counter.record_batch(
                            request.n_chargeable, tag=request.session.tag
                        )
                    except QueryBudgetExceededError as error:
                        if not request.future.done():
                            request.future.set_exception(error)
                    else:
                        admitted.append(request)
                # Answers are computed synchronously *before* the latency
                # sleep so backends see queries in dispatch order even when
                # several batches overlap their simulated round trips
                # (determinism of persistent noise draws depends on
                # presentation order).
                answers = self._answer(admitted)
                crowd_was_asked = True
            latency = self.config.latency
            if self.config.jitter:
                latency += float(self._rng.random()) * self.config.jitter
            if latency > 0 and crowd_was_asked:
                await asyncio.sleep(latency)
            for request, result in zip(admitted, answers):
                if not request.future.done():
                    request.future.set_result(result)
        except Exception as error:  # a backend failure fails every co-batched request
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(error)
        finally:
            self._inflight_count -= 1
            self._inflight.release()

    def _serve_via_store(
        self, batch: List[_Request]
    ) -> Tuple[List[_Request], List[np.ndarray]]:
        """Serve one micro-batch through the shared answer warehouse.

        Requests are served sequentially in dispatch order — an earlier
        request's fresh votes resolve a later co-batched request's repeats,
        which is exactly the cross-session dedup the store exists for.  Each
        request charges its own session counter with the true hit mask; a
        budget overrun fails only the offending request (its warehouse misses
        from this serving call were already dispatched, as on the direct
        oracle path).

        Deliberate trade-off versus the storeless path's single merged
        backend call: per-request serving keeps the charging and replication
        semantics per session (who pays for a shared miss, vote order within
        a batch) simple and testable, while the expensive resource — the
        simulated crowd round trip — is still paid once per micro-batch.
        What splits is only the in-process ``compare_batch`` compute, and
        warehouse hits skip the backend entirely.
        """
        admitted: List[_Request] = []
        answers: List[np.ndarray] = []
        for request in batch:
            stored = self._stored[request.kind]
            try:
                result = stored.serve_batch(
                    *request.arrays,
                    counter=request.session.counter,
                    tag=request.session.tag,
                )
            except QueryBudgetExceededError as error:
                if not request.future.done():
                    request.future.set_exception(error)
            else:
                admitted.append(request)
                answers.append(result)
        return admitted, answers

    def _answer(self, batch: List[_Request]) -> List[np.ndarray]:
        """Answer the admitted requests, one backend call per query kind."""
        answers: Dict[int, np.ndarray] = {}
        for kind in (KIND_COMPARISON, KIND_QUADRUPLET):
            group = [
                (pos, request)
                for pos, request in enumerate(batch)
                if request.kind == kind
            ]
            if not group:
                continue
            backend = self._backend_for(kind)
            stacked = [
                np.concatenate([request.arrays[axis] for _, request in group])
                for axis in range(len(group[0][1].arrays))
            ]
            merged = backend.compare_batch(*stacked)
            offset = 0
            for pos, request in group:
                answers[pos] = merged[offset : offset + request.n]
                offset += request.n
        return [answers[pos] for pos in range(len(batch))]
