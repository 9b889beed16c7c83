"""Tests for the async crowd-oracle service layer (`repro.service`).

Every async test runs through :func:`run_async`, which wraps the coroutine
in ``asyncio.wait_for`` — a per-test timeout guard so a wedged collector or
a lost future fails the test instead of hanging the suite (the CI container
has no pytest-timeout plugin).  Synchronous-adapter tests get the same guard
from :class:`ServiceRuntime`'s ``default_timeout``.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.exceptions import (
    InvalidParameterError,
    QueryBudgetExceededError,
    ServiceClosedError,
)
from repro.kcenter.adversarial import kcenter_adversarial
from repro.maximum.count_max import count_max
from repro.metric.space import PointCloudSpace
from repro.oracles.comparison import ValueComparisonOracle
from repro.oracles.counting import QueryCounter
from repro.oracles.keys import comparison_key
from repro.oracles.noise import AdversarialNoise, ExactNoise, ProbabilisticNoise
from repro.oracles.quadruplet import DistanceQuadrupletOracle
from repro.service import (
    CrowdOracleService,
    ServiceComparisonAdapter,
    ServiceConfig,
    ServiceQuadrupletAdapter,
    ServiceRuntime,
)
from repro.service.__main__ import main as service_main
from repro.service.load import run_comparison_load
from repro.store import AnswerStore

#: Per-test asyncio timeout guard, seconds.
GUARD = 20.0


def run_async(coro):
    """Run *coro* with the suite's timeout guard."""
    return asyncio.run(asyncio.wait_for(coro, GUARD))


def _values(n=50, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 100.0, size=n)


def _space(n=18, seed=0):
    return PointCloudSpace(np.random.default_rng(seed).normal(size=(n, 2)))


class TestServiceConfig:
    def test_defaults_valid(self):
        ServiceConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_window": -0.1},
            {"max_batch_size": 0},
            {"max_pending": 0},
            {"max_inflight": 0},
            {"latency": -1.0},
            {"jitter": -0.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(**kwargs)

    def test_service_needs_a_backend(self):
        with pytest.raises(InvalidParameterError):
            CrowdOracleService()


class TestAsyncRoundtrips:
    def test_single_comparison_query(self):
        async def scenario():
            values = _values()
            backend = ValueComparisonOracle(values, noise=ExactNoise())
            async with CrowdOracleService(comparison=backend) as service:
                session = service.open_session()
                assert await session.compare(3, 7) == (values[3] <= values[7])
                assert await session.compare(7, 3) == (values[7] <= values[3])

        run_async(scenario())

    def test_single_quadruplet_query(self):
        async def scenario():
            space = _space()
            backend = DistanceQuadrupletOracle(space, noise=ExactNoise())
            async with CrowdOracleService(quadruplet=backend) as service:
                session = service.open_session()
                expected = space.distance(0, 1) <= space.distance(2, 3)
                assert await session.quadruplet(0, 1, 2, 3) == expected

        run_async(scenario())

    def test_batched_queries_match_direct_oracle(self):
        async def scenario():
            values = _values()
            backend = ValueComparisonOracle(values, noise=ExactNoise())
            direct = ValueComparisonOracle(values, noise=ExactNoise())
            rng = np.random.default_rng(5)
            i = rng.integers(0, len(values), size=200)
            j = rng.integers(0, len(values), size=200)
            async with CrowdOracleService(comparison=backend) as service:
                session = service.open_session()
                answers = await session.compare_batch(i, j)
            assert np.array_equal(answers, direct.compare_batch(i, j))

        run_async(scenario())

    def test_missing_backend_kind_rejected(self):
        async def scenario():
            backend = ValueComparisonOracle(_values(), noise=ExactNoise())
            async with CrowdOracleService(comparison=backend) as service:
                session = service.open_session()
                with pytest.raises(InvalidParameterError):
                    await session.quadruplet(0, 1, 2, 3)

        run_async(scenario())

    def test_concurrent_sessions_all_answer_correctly(self):
        async def scenario():
            values = _values(80, seed=2)
            backend = ValueComparisonOracle(values, noise=ExactNoise())
            config = ServiceConfig(batch_window=0.02, latency=0.001)
            async with CrowdOracleService(comparison=backend, config=config) as service:

                async def one_session(seed):
                    rng = np.random.default_rng(seed)
                    session = service.open_session()
                    for _ in range(25):
                        i, j = int(rng.integers(0, 80)), int(rng.integers(0, 80))
                        assert await session.compare(i, j) == (values[i] <= values[j])

                await asyncio.gather(*(one_session(s) for s in range(8)))
                assert service.stats.n_queries == 8 * 25
                # Coalescing happened: far fewer batches than queries.
                assert service.stats.n_batches < 8 * 25

        run_async(scenario())

    def test_invalid_index_fails_only_the_offender(self):
        async def scenario():
            values = _values()
            backend = ValueComparisonOracle(values, noise=ExactNoise())
            config = ServiceConfig(batch_window=0.05)
            async with CrowdOracleService(comparison=backend, config=config) as service:
                good = service.open_session()
                bad = service.open_session()
                # Both submissions would land in the same micro-batch; the
                # out-of-range index is rejected in the offender's frame at
                # submit time and never reaches the shared dispatch.
                results = await asyncio.gather(
                    good.compare(0, 1),
                    bad.compare(len(values) + 5, 0),
                    return_exceptions=True,
                )
                assert results[0] == (values[0] <= values[1])
                assert isinstance(results[1], InvalidParameterError)
                assert bad.counter.charged_queries == 0

        run_async(scenario())

    def test_submit_after_stop_rejected(self):
        async def scenario():
            backend = ValueComparisonOracle(_values(), noise=ExactNoise())
            service = CrowdOracleService(comparison=backend)
            await service.start()
            await service.stop()
            session = service.open_session()
            with pytest.raises(ServiceClosedError):
                await session.compare(0, 1)

        run_async(scenario())


class TestMicroBatching:
    def test_simultaneous_queries_coalesce_into_few_batches(self):
        async def scenario():
            backend = ValueComparisonOracle(_values(), noise=ExactNoise())
            config = ServiceConfig(batch_window=0.2)
            async with CrowdOracleService(comparison=backend, config=config) as service:
                sessions = [service.open_session() for _ in range(8)]
                await asyncio.gather(*(s.compare(k, k + 1) for k, s in enumerate(sessions)))
                # All eight queries were queued within one 200 ms window.
                assert service.stats.n_batches <= 2
                assert service.stats.n_dispatched_queries == 8

        run_async(scenario())

    def test_size_trigger_flushes_before_window(self):
        async def scenario():
            backend = ValueComparisonOracle(_values(), noise=ExactNoise())
            # A huge window with max_batch_size=4: only the size trigger can
            # flush within the guard timeout.
            config = ServiceConfig(batch_window=60.0, max_batch_size=4)
            async with CrowdOracleService(comparison=backend, config=config) as service:
                sessions = [service.open_session() for _ in range(8)]
                await asyncio.gather(*(s.compare(k, k + 1) for k, s in enumerate(sessions)))
                assert service.stats.n_batches == 2
                assert service.stats.max_batch_size_seen == 4
                assert service.stats.mean_batch_size == 4.0

        run_async(scenario())

    def test_zero_window_still_drains_already_queued_requests(self):
        async def scenario():
            backend = ValueComparisonOracle(_values(), noise=ExactNoise())
            # Window 0 means "don't wait", not "don't batch": with latency
            # keeping the collector busy, queued-up queries coalesce anyway.
            config = ServiceConfig(batch_window=0.0, latency=0.005, max_inflight=1)
            async with CrowdOracleService(comparison=backend, config=config) as service:
                sessions = [service.open_session() for _ in range(12)]
                await asyncio.gather(*(s.compare(k, k + 1) for k, s in enumerate(sessions)))
                assert service.stats.n_dispatched_queries == 12
                # First dispatch may carry few, but the rest pile up behind
                # the 5 ms round trip and drain together.
                assert service.stats.n_batches < 12

        run_async(scenario())

    def test_batch_request_larger_than_max_batch_still_served_whole(self):
        async def scenario():
            backend = ValueComparisonOracle(_values(), noise=ExactNoise())
            config = ServiceConfig(max_batch_size=8)
            async with CrowdOracleService(comparison=backend, config=config) as service:
                session = service.open_session()
                i = np.arange(0, 30)
                j = np.arange(1, 31)
                answers = await session.compare_batch(i, j % 50)
                assert len(answers) == 30

        run_async(scenario())


class TestBackpressure:
    def test_bounded_queue_never_exceeded(self):
        async def scenario():
            backend = ValueComparisonOracle(_values(), noise=ExactNoise())
            config = ServiceConfig(
                batch_window=0.0,
                max_batch_size=2,
                max_pending=4,
                max_inflight=2,
                latency=0.002,
            )
            async with CrowdOracleService(comparison=backend, config=config) as service:
                sessions = [service.open_session() for _ in range(24)]
                await asyncio.gather(*(s.compare(k % 49, k % 49 + 1) for k, s in enumerate(sessions)))
                assert service.stats.max_pending_seen <= 4
                assert service.stats.max_inflight_seen <= 2
                assert service.stats.n_dispatched_queries == 24

        run_async(scenario())


class TestBudgets:
    def test_budget_exhaustion_mid_flight_fails_only_that_session(self):
        async def scenario():
            backend = ValueComparisonOracle(_values(), noise=ExactNoise())
            async with CrowdOracleService(comparison=backend) as service:
                capped = service.open_session(budget=5)
                free = service.open_session()
                for k in range(5):
                    await capped.compare(k, k + 1)
                with pytest.raises(QueryBudgetExceededError):
                    await capped.compare(10, 11)
                # Clamped like the scalar path: budget + 1 charged at raise.
                assert capped.counter.charged_queries == 6
                # Subsequent queries on the exhausted session keep failing...
                with pytest.raises(QueryBudgetExceededError):
                    await capped.compare(12, 13)
                # ...while other sessions are unaffected.
                assert await free.compare(0, 1) == (
                    _values()[0] <= _values()[1]
                )
                assert free.counter.charged_queries == 1

        run_async(scenario())

    def test_self_comparisons_are_free_like_the_direct_path(self):
        async def scenario():
            backend = ValueComparisonOracle(_values(), noise=ExactNoise())
            async with CrowdOracleService(comparison=backend) as service:
                session = service.open_session(budget=1)
                assert await session.compare(4, 4) is True
                assert session.counter.charged_queries == 0

        run_async(scenario())

    def test_budget_overrun_inside_one_batch_request(self):
        async def scenario():
            backend = ValueComparisonOracle(_values(), noise=ExactNoise())
            async with CrowdOracleService(comparison=backend) as service:
                session = service.open_session(budget=10)
                with pytest.raises(QueryBudgetExceededError):
                    await session.compare_batch(np.arange(16), np.arange(16) + 1)
                assert session.counter.charged_queries == 11

        run_async(scenario())


class _FlakyComparisonOracle(ValueComparisonOracle):
    """A comparison backend whose ``compare_batch`` raises while ``failing`` is set."""

    failing = False

    def compare_batch(self, i, j):
        if self.failing:
            raise RuntimeError("crowd backend unavailable")
        return super().compare_batch(i, j)


class TestBackendFailure:
    @pytest.mark.parametrize("with_store", [False, True], ids=["storeless", "store"])
    def test_backend_error_fails_every_co_batched_request(self, tmp_path, with_store):
        async def scenario():
            values = _values()
            backend = _FlakyComparisonOracle(values, noise=ExactNoise())
            store = AnswerStore(tmp_path / "s") if with_store else None
            # One in-flight slot: a slot the failed batch failed to release
            # would block the follow-up request below.
            config = ServiceConfig(batch_window=0.01, latency=0.0, max_inflight=1)
            async with CrowdOracleService(
                comparison=backend, config=config, store=store
            ) as service:
                first, second = service.open_session(), service.open_session()
                backend.failing = True
                results = await asyncio.gather(
                    first.compare(0, 1), second.compare(2, 3), return_exceptions=True
                )
                assert service.stats.n_batches == 1  # the two requests co-batched
                assert isinstance(results[0], RuntimeError)
                assert results[1] is results[0]
                backend.failing = False
                answer = await asyncio.wait_for(first.compare(0, 1), 2.0)
                assert answer == (values[0] <= values[1])
            if store is not None:
                assert store.n_votes == 1  # only the answer that succeeded
                store.close()

        run_async(scenario())


#: Queries of the shutdown tests: distinct, ``i < j`` (never flipped).
_SHUTDOWN_QUERIES = [(0, 10), (1, 11), (2, 12), (3, 13), (4, 14)]


def _shutdown_service(store, latency, max_pending=1024):
    """A stored service where one micro-batch sleeps while others wait.

    One query per micro-batch and one in-flight slot: while the first batch
    sleeps out its *latency*, the collector holds the second request and
    the rest wait in the queue (or, past *max_pending*, on it).
    """
    backend = ValueComparisonOracle(_values(), noise=ProbabilisticNoise(p=0.3, seed=2))
    config = ServiceConfig(
        batch_window=0.0,
        max_batch_size=1,
        max_inflight=1,
        max_pending=max_pending,
        latency=latency,
    )
    return CrowdOracleService(comparison=backend, config=config, store=store)


def _check_outcomes_against_store(directory, outcomes):
    """Answered queries read back from a reopened store; failed ones left no vote.

    *outcomes* maps each query to its answer or its exception; every
    exception must be :class:`ServiceClosedError`.
    """
    answered = {q: a for q, a in outcomes.items() if not isinstance(a, BaseException)}
    closed = [q for q, a in outcomes.items() if isinstance(a, BaseException)]
    assert all(isinstance(outcomes[q], ServiceClosedError) for q in closed)
    reopened = AnswerStore(directory)
    try:
        assert reopened.n_votes == len(answered)
        for (i, j), answer in answered.items():
            assert reopened.lookup(comparison_key(i, j, len(_values()))[0]) is bool(answer)
        for i, j in closed:
            assert reopened.lookup(comparison_key(i, j, len(_values()))[0]) is None
    finally:
        reopened.close()
    return answered, closed


class TestShutdownWithWorkInFlight:
    """``stop()`` while a micro-batch sleeps: it finishes, the queue fails."""

    def test_stop_finishes_in_flight_batches_and_fails_the_queue(self, tmp_path):
        async def scenario():
            store = AnswerStore(tmp_path / "s", n_shards=2)
            # max_pending=2: the fifth producer is blocked on the full queue.
            service = _shutdown_service(store, latency=0.3, max_pending=2)
            await service.start()
            tasks = [
                asyncio.create_task(service.open_session().compare(i, j))
                for i, j in _SHUTDOWN_QUERIES
            ]
            await asyncio.sleep(0.1)  # the first batch is sleeping now
            assert service.stats.n_batches == 1
            await service.stop()
            _, pending = await asyncio.wait(tasks, timeout=1.0)
            assert not pending
            store.close()
            return [
                task.exception() if task.exception() else task.result()
                for task in tasks
            ]

        results = run_async(scenario())
        outcomes = dict(zip(_SHUTDOWN_QUERIES, results))
        answered, closed = _check_outcomes_against_store(tmp_path / "s", outcomes)
        # The sleeping batch and the request the collector already held are
        # served; the two queued requests and the blocked producer fail.
        assert list(answered) == _SHUTDOWN_QUERIES[:2]
        assert closed == _SHUTDOWN_QUERIES[2:]

    def test_runtime_stop_with_work_in_flight(self, tmp_path):
        store = AnswerStore(tmp_path / "s", n_shards=2)
        service = _shutdown_service(store, latency=0.5)
        runtime = ServiceRuntime(service, default_timeout=GUARD).start()
        outcomes = {}

        def worker(query):
            adapter = ServiceComparisonAdapter(runtime, service.open_session())
            try:
                outcomes[query] = adapter.compare(*query)
            except ServiceClosedError as error:
                outcomes[query] = error

        threads = [threading.Thread(target=worker, args=(q,)) for q in _SHUTDOWN_QUERIES]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + GUARD
        while service.stats.n_requests < len(threads) and time.monotonic() < deadline:
            time.sleep(0.005)
        runtime.stop()
        for thread in threads:
            thread.join(GUARD)
        assert not any(thread.is_alive() for thread in threads)
        assert not runtime.running
        store.close()
        assert sorted(outcomes) == _SHUTDOWN_QUERIES
        answered, closed = _check_outcomes_against_store(tmp_path / "s", outcomes)
        # Which thread's request went first is up to the scheduler; with a
        # 0.5 s round trip some are in flight and some queued at the stop.
        assert answered and closed


class TestSyncAdapters:
    def test_count_max_bit_identical_probabilistic(self):
        values = _values(40, seed=3)
        items = list(range(40))

        def direct_winner():
            oracle = ValueComparisonOracle(
                values, noise=ProbabilisticNoise(p=0.2, seed=11), counter=QueryCounter()
            )
            return count_max(items, oracle, seed=5)

        backend = ValueComparisonOracle(
            values, noise=ProbabilisticNoise(p=0.2, seed=11), counter=QueryCounter()
        )
        service = CrowdOracleService(comparison=backend)
        with ServiceRuntime(service, default_timeout=GUARD) as runtime:
            adapter = ServiceComparisonAdapter(runtime, service.open_session())
            service_winner = count_max(items, adapter, seed=5)
        assert service_winner == direct_winner()

    def test_kcenter_adversarial_bit_identical(self):
        space = _space(30, seed=4)

        def run(oracle):
            return kcenter_adversarial(oracle, k=4, seed=9)

        direct = run(
            DistanceQuadrupletOracle(
                space, noise=AdversarialNoise(mu=0.3, seed=2), counter=QueryCounter()
            )
        )
        backend = DistanceQuadrupletOracle(
            space, noise=AdversarialNoise(mu=0.3, seed=2), counter=QueryCounter()
        )
        service = CrowdOracleService(quadruplet=backend)
        with ServiceRuntime(service, default_timeout=GUARD) as runtime:
            adapter = ServiceQuadrupletAdapter(runtime, service.open_session())
            served = run(adapter)
        assert served.centers == direct.centers
        assert served.assignment == direct.assignment

    def test_adapter_exposes_session_counter(self):
        backend = ValueComparisonOracle(_values(), noise=ExactNoise())
        service = CrowdOracleService(comparison=backend)
        with ServiceRuntime(service, default_timeout=GUARD) as runtime:
            session = service.open_session(budget=100)
            adapter = ServiceComparisonAdapter(runtime, session)
            adapter.compare(0, 1)
            adapter.compare_batch([1, 2], [3, 4])
            assert adapter.counter is session.counter
            assert adapter.counter.charged_queries == 3

    def test_sync_sessions_from_many_threads(self):
        values = _values(30, seed=6)
        items = list(range(30))
        true_max = int(np.argmax(values))
        backend = ValueComparisonOracle(values, noise=ExactNoise())
        service = CrowdOracleService(
            comparison=backend, config=ServiceConfig(batch_window=0.005)
        )
        winners = []
        with ServiceRuntime(service, default_timeout=GUARD) as runtime:

            def worker():
                adapter = ServiceComparisonAdapter(runtime, service.open_session())
                winners.append(count_max(items, adapter, seed=0))

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(GUARD)
        assert winners == [true_max] * 4

    def test_runtime_restartable_and_idempotent(self):
        backend = ValueComparisonOracle(_values(), noise=ExactNoise())
        service = CrowdOracleService(comparison=backend)
        runtime = ServiceRuntime(service, default_timeout=GUARD)
        runtime.start()
        runtime.start()  # no-op
        adapter = ServiceComparisonAdapter(runtime, service.open_session())
        assert isinstance(adapter.compare(0, 1), bool)
        runtime.stop()
        runtime.stop()  # no-op
        assert not runtime.running


class TestLoadDriverAndCli:
    def test_load_driver_reports_deterministic_counts(self):
        async def scenario():
            backend = ValueComparisonOracle(_values(100, seed=1), noise=ExactNoise())
            config = ServiceConfig(batch_window=0.002, latency=0.001)
            async with CrowdOracleService(comparison=backend, config=config) as service:
                return await run_comparison_load(
                    service, n_sessions=4, queries_per_session=10, n_records=100, seed=3
                )

        first = run_async(scenario())
        second = run_async(scenario())
        assert first["n_queries"] == 40
        assert first["yes_answers"] == second["yes_answers"]
        assert first["measured"]["throughput_qps"] > 0
        assert first["measured"]["latency_p95_ms"] >= first["measured"]["latency_p50_ms"]

    def test_cli_runs_and_prints_summary(self, capsys):
        rc = service_main(
            [
                "--sessions", "4",
                "--queries", "5",
                "--records", "50",
                "--latency-ms", "1",
                "--window-ms", "2",
                "--seed", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "20 queries from 4 sessions" in out
        assert "latency: p50" in out

    def test_cli_store_shards_plumbs_through_to_the_manifest(self, tmp_path, capsys):
        # --store-shards must reach AnswerStore: the warehouse the service
        # creates is laid out at the requested shard count, and a later run
        # without the flag adopts the manifest's count instead of the default.
        import json

        from repro.store import format as fmt

        store_dir = tmp_path / "warehouse"
        base_args = [
            "--sessions", "2",
            "--queries", "4",
            "--records", "30",
            "--latency-ms", "0",
            "--window-ms", "1",
            "--store-dir", str(store_dir),
        ]
        assert service_main(base_args + ["--store-shards", "3"]) == 0
        capsys.readouterr()
        manifest = json.loads(fmt.manifest_path(store_dir).read_text())
        assert manifest["n_shards"] == 3
        assert service_main(base_args) == 0  # manifest wins over the default
        assert json.loads(fmt.manifest_path(store_dir).read_text())["n_shards"] == 3

    def test_cli_rejects_invalid_parameters(self, capsys):
        assert service_main(["--sessions", "0"]) == 2
