"""The benchmark's workloads: inputs from a seed, the timed phase, checks.

Every workload follows the same pass protocol, driven by ``run.py``:

``setup(seed, workdir, clock)``
    builds the inputs (datasets, spaces and their spill files, an empty
    warehouse) and returns them; this is what ``setup_s`` times.
``run(inputs, clock)``
    the timed phase; returns a :class:`PassResult` whose :class:`Timeline`
    marks the phase, its jobs and its requests (``wall_s`` and the latency
    percentiles are estimated from the timelines of all passes).
``check(inputs, result)``
    output checks and the quality ratios, outside any timed region.
``teardown(inputs)``
    removes what the pass wrote under *workdir*.

*clock* is ``None`` in untraced passes; in traced passes it is the
:class:`~probes.LayerClock` that the timing subclasses report to.  The
program only ever receives the generated inputs, never the seed.
"""

from __future__ import annotations

import asyncio
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from probes import (
    ComparisonProbe,
    QuadrupletProbe,
    Timeline,
    TimedAdversarialNoise,
    TimedProbabilisticNoise,
    TimedSpace,
    TimedStore,
)
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import make_large_uniform_space
from repro.evaluation.merges import average_merge_distance
from repro.hierarchical import exact_linkage, noisy_linkage
from repro.kcenter import (
    greedy_kcenter_exact,
    kcenter_adversarial,
    kcenter_objective,
    kcenter_probabilistic,
)
from repro.maximum.count_max import count_max, resolve_count_winner
from repro.metric.lazy import DEFAULT_BLOCK_SIZE
from repro.metric.space import PointCloudSpace
from repro.oracles.base import distance_comparison_view
from repro.oracles.comparison import ValueComparisonOracle
from repro.oracles.counting import QueryCounter
from repro.oracles.noise import AdversarialNoise, ProbabilisticNoise
from repro.oracles.quadruplet import DistanceQuadrupletOracle
from repro.service import CrowdOracleService, ServiceConfig
from repro.store.keys import comparison_codes
from repro.store.warehouse import AnswerStore


@dataclass
class PassResult:
    """What one timed phase produced, before checks."""

    #: Marks of the timed phase: its start and end, each job's and each
    #: request's (an oracle call or, in crowd-serve, one session query).
    timeline: Timeline
    charged: int
    answered: int
    outputs: list
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    #: Exact counts that must repeat for the same code and seed.
    exact: Dict[str, float] = field(default_factory=dict)
    #: Raw per-layer counters the traced report is built from.
    layer: Dict[str, float] = field(default_factory=dict)


def _seeds(seed: int, n: int) -> List[int]:
    """*n* derived 31-bit seeds; the workload seed is the only source."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=n)]


def _rebuild(space: PointCloudSpace, clock, **kwargs) -> PointCloudSpace:
    """The same space as a :class:`TimedSpace` in traced passes."""
    if clock is None and not kwargs:
        return space
    args = dict(distance_fn=space.distance_fn, labels=space.labels, backend=space.backend)
    args.update(kwargs)
    if clock is None:
        return PointCloudSpace(space.points, **args)
    return TimedSpace(space.points, clock, **args)


def _noise(kind: str, level: float, seed: int, clock):
    if kind == "probabilistic":
        if clock is None:
            return ProbabilisticNoise(p=level, seed=seed)
        return TimedProbabilisticNoise(clock, p=level, seed=seed)
    if clock is None:
        return AdversarialNoise(mu=level, seed=seed)
    return TimedAdversarialNoise(clock, mu=level, seed=seed)


def _backend_counts(spaces) -> Dict[str, float]:
    """Sum the lazy/disk backend counters of *spaces* (dense spaces have none)."""
    total = {"computed": 0, "hits": 0, "misses": 0, "reloads": 0, "spill_bytes": 0}
    for space in spaces:
        stats = space.backend_stats()
        if not stats:
            continue
        size = stats["block_size"]
        total["computed"] += (
            stats["materialized_blocks"] * size * size
            + stats["direct_pairs"]
            + stats.get("rows_stored", 0) * len(space)
        )
        total["hits"] += stats["hits"]
        total["misses"] += stats["misses"]
        total["reloads"] += stats.get("reloads", 0)
        total["spill_bytes"] += stats.get("spill_bytes", 0)
    return total


def _oracle_job_result(jobs, timeline: Timeline, failures, spaces) -> PassResult:
    """Fold the per-job probes of a batch workload into one PassResult."""
    probes = [job["probe"] for job in jobs if "probe" in job]
    sizes = np.concatenate([np.asarray(p.sizes) for p in probes])
    charged = sum(p.counter.charged_queries for p in probes)
    answered = sum(p.counter.total_queries for p in probes)
    cached = sum(p.counter.cached_queries for p in probes)
    backend = _backend_counts(spaces)
    return PassResult(
        timeline=timeline,
        charged=charged,
        answered=answered,
        outputs=jobs,
        failures=failures,
        attempted=len(jobs),
        exact={
            "charged_queries": charged,
            "algo.oracle_calls": len(sizes),
            "metric.distances_computed": backend["computed"],
        },
        layer={
            "oracle_calls": len(sizes),
            "batch_sizes": sizes,
            "memo_total": answered,
            "memo_cached": cached,
            **{f"backend_{key}": value for key, value in backend.items()},
        },
    )


def _run_jobs(jobs, solve: Callable, clock, warmup=()) -> tuple:
    """Run ``solve(job, timeline, clock)`` per job, in an ``algo`` span when traced.

    The *warmup* jobs run first, untimed and untraced, so that first-call
    costs (fresh caches, first allocations) fall outside the timed phase.
    """
    failures, timeline = [], Timeline()

    def attempt(job, timeline, clock):
        try:
            if clock is None:
                job["output"] = solve(job, timeline, clock)
            else:
                job["output"] = clock.call("algo", solve, job, timeline, clock)
        except Exception as error:  # a failed job is counted, never fatal
            failures.append(f"{job['name']}: {type(error).__name__}: {error}")
            job["output"] = None

    if clock is not None:
        clock.active = False
    for job in warmup:
        attempt(job, Timeline(), None)
    if clock is not None:
        clock.active = True
    timeline.mark()
    for job in jobs:
        timeline.mark()
        attempt(job, timeline, clock)
        timeline.mark()
    timeline.mark()
    return timeline, failures


class _References:
    """Exact solutions for the output checks, computed once per job.

    Every pass of a run rebuilds the same inputs from the seed, so the
    exact cost a job's output is compared with is the same in every pass.
    """

    def __init__(self):
        self._cache: dict = {}

    def get(self, key, compute: Callable):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


class PaperNoisy:
    """Figure 6/7 algorithms at paper-quick scale, then a large-n section.

    The paper's algorithms run on the dense metric backend; the large-n
    section (:class:`LargeN`) runs Count-Max and greedy k-center on the lazy
    and disk backends, so this one workload covers every layer below the
    service.
    """

    name = "paper-noisy"
    #: (job, dataset, n, k, noise kind, noise level) per instance in a pass:
    #: the Figure 6 dblp panels and Figure 7's single linkage, small enough
    #: that a run repeats the pass many times (see ``run.timeline_estimate``).
    #: Two probabilistic instances average out most of the seed-to-seed
    #: change in their query count, and keep the share of their ~190-query
    #: batches among all requests near 3%, well above the 1% that sets p99;
    #: linkage's single-query requests are ~60% of all, so p50 lies inside
    #: them rather than on their edge.
    INSTANCES = (
        ("kcenter-probabilistic", "dblp", 100, 4, "probabilistic", 0.1),
        ("kcenter-probabilistic", "dblp", 100, 4, "probabilistic", 0.1),
        ("kcenter-adversarial", "dblp", 120, 8, "adversarial", 0.5),
        ("linkage-single", "dblp", 45, 0, "adversarial", 0.5),
    )

    def __init__(self):
        self.references = _References()
        self.large = LargeN()

    def setup(self, seed: int, workdir: Path, clock) -> dict:
        seeds = iter(_seeds(seed, 4 * len(self.INSTANCES) + self.large.SEEDS))
        jobs = []
        for index, (job, dataset, n, k, kind, level) in enumerate(self.INSTANCES):
            space = _rebuild(load_dataset(dataset, n_points=n, seed=next(seeds)), clock)
            jobs.append(
                {
                    "name": f"{job}#{index}",
                    "job": job,
                    "space": space,
                    "k": k,
                    "noise": (kind, level, next(seeds)),
                    "first_center": next(seeds) % len(space),
                    "seed": next(seeds),
                }
            )
        large = self.large.setup(seeds, workdir, clock)
        return {"seed": seed, "paper": jobs, "large": large, "jobs": jobs + large["jobs"]}

    def run(self, inputs: dict, clock) -> PassResult:
        jobs, large = inputs["jobs"], inputs["large"]
        timeline, failures = _run_jobs(jobs, self._solve, clock, large["warmup"])
        spaces = [job["space"] for job in inputs["paper"]] + large["spaces"]
        return _oracle_job_result(jobs, timeline, failures, spaces)

    def _solve(self, job: dict, timeline: Timeline, clock):
        if job["job"] in LargeN.JOBS:
            return self.large.solve(job, timeline, clock)
        oracle = DistanceQuadrupletOracle(
            job["space"], noise=_noise(*job["noise"], clock), counter=QueryCounter()
        )
        probe = job["probe"] = QuadrupletProbe(oracle, timeline, clock)
        n, k = len(job["space"]), job["k"]
        if job["job"] == "kcenter-probabilistic":
            return kcenter_probabilistic(
                probe,
                k,
                min_cluster_size=max(4, n // (4 * k)),
                first_center=job["first_center"],
                seed=job["seed"],
            )
        if job["job"] == "kcenter-adversarial":
            return kcenter_adversarial(probe, k, first_center=job["first_center"], seed=job["seed"])
        return noisy_linkage(probe, linkage="single", space=job["space"], seed=job["seed"])

    def check(self, inputs: dict, result: PassResult) -> tuple:
        quality, failures, checked = self.large.check(inputs["large"])
        for job in inputs["paper"]:
            output, space = job["output"], job["space"]
            if output is None:
                continue
            n, key = len(space), (inputs["seed"], job["name"])
            if job["job"].startswith("kcenter"):
                if len(set(output.centers)) != job["k"]:
                    failures.append(f"{job['name']}: {len(set(output.centers))} distinct centers, want {job['k']}")
                if sorted(output.assignment) != list(range(n)):
                    failures.append(f"{job['name']}: not every point is assigned")
                exact = self.references.get(
                    key,
                    lambda: kcenter_objective(
                        space, greedy_kcenter_exact(space, job["k"], first_center=job["first_center"])
                    ),
                )
                quality.append(kcenter_objective(space, output) / exact)
            else:
                if output.n_merges != n - 1:
                    failures.append(f"{job['name']}: {output.n_merges} merges, want {n - 1}")
                exact = self.references.get(
                    key, lambda: average_merge_distance(exact_linkage(space, linkage="single"), space)
                )
                quality.append(average_merge_distance(output, space) / exact)
        return quality, failures, checked + len(inputs["paper"])

    def teardown(self, inputs: dict) -> None:
        self.large.teardown(inputs["large"])
        inputs.clear()


class LargeN:
    """Count-Max and greedy k-center where nearly all time is in ``repro.metric``.

    The large-n section of ``paper-noisy``: it builds its own inputs and jobs,
    which the workload runs after the paper's algorithms.

    Each oracle call, k-center run and objective is one indivisible unit of
    the timed phase, and a unit is only timed free of interference if some
    repetition of it falls wholly into a quiet stretch of the host; so every
    unit is kept to ~5-25 ms, with blocks of 256 rather than the default 1024
    on the lazy space (a 1024 block alone takes ~60-100 ms to fill).
    """

    #: Job kinds this section solves.
    JOBS = ("countmax", "greedy")
    #: Count-Max problems on the lazy backend; each draws its sample from
    #: LAZY_BLOCKS adjacent distance blocks, so every problem materialises
    #: whole blocks (65,536 distances each) for a few dozen useful ones.
    #: Many small problems, so the latency percentiles are not set by one.
    LAZY_N = 50_000
    LAZY_BLOCK_SIZE = 256
    LAZY_PROBLEMS = 12
    LAZY_SAMPLE = 32
    LAZY_BLOCKS = 2
    #: Count-Max problems on the disk backend at a million points, where the
    #: oracle's pair keys no longer fit in int64.
    HUGE_N = 1_000_000
    HUGE_PROBLEMS = 4
    HUGE_SAMPLE = 64
    #: Greedy k-center plus its objective on the disk backend: full distance
    #: rows are spilled by the greedy sweep and reloaded by the objective.
    DISK_N = 20_000
    DISK_RUNS = 4
    DISK_K = 2
    MU = 0.1
    #: Derived seeds :meth:`setup` draws (one more job of each kind than is
    #: timed: the first is the warm-up).
    SEEDS = 3 + 4 * (LAZY_PROBLEMS + HUGE_PROBLEMS + 2) + DISK_RUNS + 1

    def setup(self, s, workdir: Path, clock) -> dict:
        """Inputs and jobs, drawing seeds from the iterator *s*."""
        spill = workdir / "spill"
        lazy = _rebuild(
            make_large_uniform_space(self.LAZY_N, seed=next(s), backend="lazy"),
            clock,
            block_size=self.LAZY_BLOCK_SIZE,
        )
        huge = _rebuild(
            make_large_uniform_space(self.HUGE_N, seed=next(s), backend="lazy"),
            clock,
            backend="disk",
            spill_dir=spill / "huge",
        )
        disk = _rebuild(
            make_large_uniform_space(self.DISK_N, seed=next(s), backend="lazy"),
            clock,
            backend="disk",
            spill_dir=spill / "disk",
        )
        jobs, warmup = [], []
        for name, space, problems, sample, block, span in (
            (
                "countmax-lazy",
                lazy,
                self.LAZY_PROBLEMS,
                self.LAZY_SAMPLE,
                self.LAZY_BLOCK_SIZE,
                self.LAZY_BLOCKS * self.LAZY_BLOCK_SIZE,
            ),
            ("countmax-disk", huge, self.HUGE_PROBLEMS, self.HUGE_SAMPLE, DEFAULT_BLOCK_SIZE, self.HUGE_N),
        ):
            for index in range(problems + 1):
                rng = np.random.default_rng(next(s))
                q = int(rng.integers(len(space)))
                # The sample comes from ``span`` ids starting on a block edge.
                low = int(rng.integers((len(space) - span) // block + 1)) * block
                items = low + rng.choice(span, size=sample + 1, replace=False)
                items = [int(x) for x in items if x != q][:sample]
                (jobs if index else warmup).append(
                    {
                        "name": f"{name}#{index}",
                        "job": "countmax",
                        "space": space,
                        "query": q,
                        "items": items,
                        "noise_seed": next(s),
                        "seed": next(s),
                    }
                )
        for index in range(self.DISK_RUNS + 1):
            job = {"name": f"greedy-disk#{index}", "job": "greedy", "space": disk, "seed": next(s)}
            (jobs if index else warmup).append(job)
        return {"jobs": jobs, "warmup": warmup, "spaces": [lazy, huge, disk], "spill": spill}

    def solve(self, job: dict, timeline: Timeline, clock):
        space = job["space"]
        if job["job"] == "greedy":
            result = greedy_kcenter_exact(space, self.DISK_K, seed=job["seed"])
            timeline.mark()  # the objective is a unit of its own
            return result, kcenter_objective(space, result)
        noise = _noise("adversarial", self.MU, job["noise_seed"], clock)
        oracle = DistanceQuadrupletOracle(space, noise=noise, counter=QueryCounter())
        probe = job["probe"] = QuadrupletProbe(oracle, timeline, clock)
        return count_max(job["items"], distance_comparison_view(probe, job["query"]), seed=job["seed"])

    def check(self, inputs: dict) -> tuple:
        quality, failures = [], []
        jobs = inputs["warmup"] + inputs["jobs"]
        for job in jobs:
            output, space = job["output"], job["space"]
            if output is None:
                continue
            if job["job"] == "countmax":
                if output not in set(job["items"]):
                    failures.append(f"{job['name']}: winner {output} is not in its sample")
                    continue
                dists = space.distances_from(job["query"], job["items"])
                quality.append(float(dists.max()) / space.distance(job["query"], output))
            else:
                clustering, _ = output
                if len(set(clustering.centers)) != self.DISK_K:
                    failures.append(f"{job['name']}: {len(set(clustering.centers))} distinct centers")
                if len(clustering.assignment) != len(space):
                    failures.append(f"{job['name']}: not every point is assigned")
        return quality, failures, len(jobs)

    def teardown(self, inputs: dict) -> None:
        spill = inputs["spill"]
        inputs.clear()
        shutil.rmtree(spill, ignore_errors=True)


class CrowdServe:
    """Closed-loop sessions through service -> warehouse -> oracle."""

    name = "crowd-serve"
    SESSIONS = 16
    PROBLEMS = 24  # per session, timed
    #: Untimed problems each session solves first, so the timed phase starts
    #: on an open warehouse and a running service: without them the first
    #: rounds' cold-start latency is ~1% of the requests and sets p99.
    WARMUP = 2
    GROUP = 5  # records per Count-Max problem: 10 queries each
    RECORDS = 2000
    ZIPF = 1.1
    P = 0.1
    SHARDS = 8
    CONFIG = dict(batch_window=0.0, latency=0.0, jitter=0.0)
    #: The warehouse must live in the checkout, which is usually a real disk:
    #: there an fsync per request adds disk time and tail noise from other
    #: tenants (p99 spread 55% over ten seeds, against ~6% without), which
    #: is not the program's own cost.  On tmpfs an fsync is nearly free, so
    #: "none" keeps the measured path (one WAL write per request) the same.
    SYNC = "none"

    def environment(self, workdir: Path) -> dict:
        """The settings a comparison must hold equal on both sides."""
        return {
            "loop": "closed",
            "sessions": self.SESSIONS,
            "think_time_s": 0.0,
            "event_loop_threads": 1,
            "queries_per_session": self.PROBLEMS * self.GROUP * (self.GROUP - 1) // 2,
            "warmup_queries_per_session": self.WARMUP * self.GROUP * (self.GROUP - 1) // 2,
            "sync": self.SYNC,
            "n_shards": self.SHARDS,
            **self.CONFIG,
            "store_filesystem": _filesystem_of(workdir),
            "store_on_tmpfs": _filesystem_of(workdir) == "tmpfs",
        }

    def setup(self, seed: int, workdir: Path, clock) -> dict:
        rng = np.random.default_rng(seed)
        values = rng.uniform(1.0, 2.0, size=self.RECORDS)
        weights = 1.0 / np.arange(1, self.RECORDS + 1) ** self.ZIPF
        weights = weights[rng.permutation(self.RECORDS)]
        weights /= weights.sum()
        pairs = [(a, b) for a in range(self.GROUP) for b in range(a + 1, self.GROUP)]
        sessions = []
        for _ in range(self.SESSIONS):
            problems = []
            for _ in range(self.WARMUP + self.PROBLEMS):
                members = rng.choice(self.RECORDS, size=self.GROUP, replace=False, p=weights)
                order = rng.permutation(len(pairs))
                swap = rng.random(len(pairs)) < 0.5
                queries = [
                    (int(members[pairs[o][1]]), int(members[pairs[o][0]]))
                    if s
                    else (int(members[pairs[o][0]]), int(members[pairs[o][1]]))
                    for o, s in zip(order, swap)
                ]
                problems.append((members.tolist(), queries, int(rng.integers(2**31))))
            sessions.append(problems)
        store_dir = workdir / "store"
        shutil.rmtree(store_dir, ignore_errors=True)
        args = dict(n_shards=self.SHARDS, sync=self.SYNC)
        store = AnswerStore(store_dir, **args) if clock is None else TimedStore(store_dir, clock, **args)
        return {
            "values": values,
            "sessions": sessions,
            "store": store,
            "store_dir": store_dir,
            "noise_seed": int(rng.integers(2**31)),
            "service_seed": int(rng.integers(2**31)),
        }

    def run(self, inputs: dict, clock) -> PassResult:
        backend = ValueComparisonOracle(
            inputs["values"],
            noise=_noise("probabilistic", self.P, inputs["noise_seed"], clock),
            counter=QueryCounter(),
        )
        if clock is not None:
            backend = ComparisonProbe(backend, clock=clock)
        service = CrowdOracleService(
            comparison=backend,
            config=ServiceConfig(seed=inputs["service_seed"], **self.CONFIG),
            store=inputs["store"],
        )
        timeline = Timeline()
        reports = asyncio.run(self._serve(service, inputs["sessions"], timeline, clock))
        stats = inputs["store"].stats()
        # A session's counter covers its warm-up and timed reports alike.
        charged = sum(s["counter"].charged_queries for s in reports[len(reports) // 2 :])
        failures = [f for s in reports for f in s["failures"]]
        return PassResult(
            timeline=timeline,
            charged=charged,
            answered=len(timeline.requests),
            outputs=reports,
            failures=failures,
            attempted=sum(len(q) for problems in inputs["sessions"] for _, q, _ in problems),
            exact={
                "charged_queries": charged,
                "store.appends": stats["n_appends"],
                "store.fsyncs": stats["n_fsyncs"],
                "service.batches": service.stats.n_batches,
            },
            layer={
                "memo_total": backend.counter.total_queries,
                "memo_cached": backend.counter.cached_queries,
                "store_appends": stats["n_appends"],
                "store_fsyncs": stats["n_fsyncs"],
                "store_wal_bytes": stats["wal_bytes"],
                "service_batches": service.stats.n_batches,
                "service_mean_batch": service.stats.mean_batch_size,
            },
        )

    async def _serve(self, service, sessions, timeline: Timeline, clock) -> list:
        """Serve every session: the warm-up problems, then the timed ones.

        The timed phase runs from the first timed submit to the last answer;
        returns the warm-up reports followed by the timed reports.
        """
        async with service:
            handles = [service.open_session(name=f"s{i}") for i in range(len(sessions))]
            if clock is not None:
                clock.active = False
            warm = await asyncio.gather(
                *(
                    self._session(h, problems[: self.WARMUP], Timeline(), None)
                    for h, problems in zip(handles, sessions)
                )
            )
            if clock is not None:
                clock.active = True
            frame = None if clock is None else clock.begin("service")
            timeline.mark()
            timed = await asyncio.gather(
                *(
                    self._session(h, problems[self.WARMUP :], timeline, clock)
                    for h, problems in zip(handles, sessions)
                )
            )
            timeline.mark()
            if frame is not None:
                clock.end(frame)
        return warm + timed

    @staticmethod
    async def _session(handle, problems, timeline: Timeline, clock) -> dict:
        """One closed-loop client: next query only after the previous answer."""
        acks, winners, failures = [], [], []
        frame = None if clock is None else clock.begin("client")
        for members, queries, tie_seed in problems:
            wins = {m: 0 for m in members}
            for i, j in queries:
                if frame is not None:
                    clock.end(frame)
                sent = timeline.mark()
                try:
                    yes = await handle.compare(i, j)
                except Exception as error:  # a failed query is counted, never fatal
                    failures.append(f"{handle.name} ({i}, {j}): {type(error).__name__}: {error}")
                    yes = None
                timeline.request(sent)
                if clock is not None:
                    frame = clock.begin("client")
                if yes is None:
                    continue
                acks.append((i, j, yes))
                wins[j if yes else i] += 1
            winners.append((members, resolve_count_winner(wins, seed=tie_seed)))
        if frame is not None:
            clock.end(frame)
        return {
            "counter": handle.counter,
            "acks": acks,
            "winners": winners,
            "failures": failures,
        }

    def check(self, inputs: dict, result: PassResult) -> tuple:
        """Read every acknowledged answer back through the reopened warehouse."""
        failures, quality = [], []
        values = inputs["values"]
        for session in result.outputs:
            for members, winner in session["winners"]:
                if winner not in members:
                    failures.append(f"winner {winner} is not in its problem {members}")
                    continue
                quality.append(float(values[members].max() / values[winner]))
        store = inputs["store"]
        store.close()
        start = perf_counter()
        reopened = AnswerStore(inputs["store_dir"], n_shards=self.SHARDS, sync=self.SYNC)
        result.layer["recover_s"] = perf_counter() - start
        try:
            acks = [ack for session in result.outputs for ack in session["acks"]]
            i = np.asarray([a[0] for a in acks], dtype=np.int64)
            j = np.asarray([a[1] for a in acks], dtype=np.int64)
            served = np.asarray([a[2] for a in acks], dtype=bool)
            codes, flipped, _ = comparison_codes(i, j, self.RECORDS)
            for ack, code, want in zip(acks, codes.tolist(), (served ^ flipped).tolist()):
                if reopened.lookup(code) is not want:
                    failures.append(f"acknowledged answer {ack} reads back differently after reopen")
        finally:
            reopened.close()
        return quality, failures, sum(len(s["winners"]) for s in result.outputs) + len(acks)

    def teardown(self, inputs: dict) -> None:
        store_dir = inputs["store_dir"]
        inputs["store"].close()
        inputs.clear()
        shutil.rmtree(store_dir, ignore_errors=True)


def _filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding *path* ("unknown" off Linux)."""
    try:
        lines = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target, best, fstype = str(Path(path).resolve()), -1, "unknown"
    for line in lines:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) > best:
            best, fstype = len(mount), parts[2]
    return fstype


WORKLOADS = {w.name: w for w in (PaperNoisy(), CrowdServe())}
