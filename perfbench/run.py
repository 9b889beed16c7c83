"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-noisy --seed 1 --seconds 55 --trace 0

The run repeats *passes* for ``--seconds`` (at least three; four with
``--trace 1``), starting no pass that would end past the deadline.  A pass
builds the workload's inputs from the seed (``setup_s``), runs the timed
phase, then checks the outputs outside any timed region.  Every pass does
identical work and marks the same events on a timeline, so ``setup_s`` is the
median over passes, while ``wall_s`` and each request's latency are read off
the timeline that takes every gap between two marks at its fastest
repetition (see :func:`timeline_estimate`).

``--trace 0`` passes run the program as it is, with ``repro.obs`` disabled
and no profiler or allocation tracer; only the client side marks the start
and end of each job and each request it makes.  ``--trace 1`` alternates
untraced passes with traced passes, whose layer boundaries report to a
:class:`probes.LayerClock`; it prints the per-layer metrics plus the tracing
overhead, and writes the spans of the fastest traced pass to
``.perfbench/trace-<workload>-seed<n>.jsonl``.

Exact counts (charged queries, oracle calls, distances computed, appends,
fsyncs, batches) must repeat in every pass; if they do not, the run reports
itself unsteady and fails.  A failed job, query or output check also fails
the run: the JSON line then has ``"correct": false`` and the exit code is 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One thread per process: on a host with few cores an idle BLAS thread pool
# only adds scheduler noise, and the workloads make no large matrix products.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings above)

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


#: Fewest passes a run makes, so every gap of the timeline has repetitions.
MIN_PASSES = 3


def one_pass(workload, seed: int, workdir: Path, traced: bool) -> dict:
    """Set up, run and check one pass; returns its raw measurements."""
    from probes import LayerClock

    clock = LayerClock() if traced else None
    gc.collect()  # the previous pass's inputs are gone before these are built
    start = perf_counter()
    inputs = workload.setup(seed, workdir, clock)
    setup_s = perf_counter() - start
    try:
        gc.collect()
        if clock is not None:
            clock.active = True
        result = workload.run(inputs, clock)
        if clock is not None:
            clock.active = False
        quality, check_failures, checks = workload.check(inputs, result)
    finally:
        workload.teardown(inputs)
    marks = np.asarray(result.timeline.marks)
    requests = np.asarray(result.timeline.requests, dtype=np.int64).reshape(-1, 2)
    mean_quality = statistics.fmean(quality) if quality else None
    return {
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": float(marks[-1] - marks[0]),
        "marks": marks,
        "requests": requests,
        "charged": result.charged,
        "answered": result.answered,
        "quality": mean_quality,
        "attempted": result.attempted + checks,
        "failures": result.failures + check_failures,
        "exact": dict(
            result.exact,
            quality_ratio=mean_quality,
            # Which events a pass marks, and in which order, must repeat.
            timeline=(len(marks), hash(requests.tobytes())),
        ),
        "layer": result.layer,
        "clock": clock,
    }


def timeline_estimate(passes: list) -> tuple:
    """Timed-phase seconds and each request's latency, free of interference.

    Every pass makes the same requests on the same inputs in the same order,
    so the gap between marks *k* and *k + 1* covers the same work in every
    pass, and anything that makes one repetition of it slower than another
    is interference from outside the program.  On a shared host that
    interference slows whole stretches of a run, by up to 1.7x, while the
    program's own cost is in every repetition; so each gap is taken at its
    fastest repetition, and the estimated timeline is the running sum of
    those gaps.  ``wall_s`` is its length and a request's latency is the
    distance between its submit and answer marks on it.  Passes whose marks
    differ from the first pass's are left out (the run reports them as
    unsteady).
    """
    first = passes[0]
    same = [p["marks"] for p in passes if len(p["marks"]) == len(first["marks"])]
    gaps = np.diff(np.stack(same), axis=1).min(axis=0)
    timeline = np.concatenate(([0.0], np.cumsum(gaps)))
    requests = first["requests"]
    latency = timeline[requests[:, 1]] - timeline[requests[:, 0]]
    return float(timeline[-1]), latency


def fastest(passes: list) -> dict:
    """The least-interfered pass: the source of the per-layer breakdown."""
    return min(passes, key=lambda p: p["wall_s"])


def end_to_end(passes: list) -> dict:
    """The end-to-end metrics, from the untraced passes."""
    plain = [p for p in passes if not p["traced"]]

    def median(key):
        return statistics.median(p[key] for p in plain)

    wall_s, latency = timeline_estimate(plain)
    return {
        "setup_s": (median("setup_s"), "s"),
        "wall_s": (wall_s, "s"),
        "charged_queries": (plain[0]["charged"], "count"),
        "quality_ratio": (plain[0]["quality"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "served_qps": (_ratio(plain[0]["answered"], wall_s), "1/s"),
        "query_p50_ms": (1e3 * float(np.quantile(latency, 0.50)), "ms"),
        "query_p99_ms": (1e3 * float(np.quantile(latency, 0.99)), "ms"),
    }


def per_layer(passes: list) -> dict:
    """The per-layer metrics, from the fastest traced pass."""
    traced = [p for p in passes if p["traced"]]
    best = fastest(traced)
    clock, layer = best["clock"], best["layer"]

    def self_s(name):
        return clock.self_time.get(name, 0.0)

    def calls(name):
        return clock.calls.get(name, 0)

    def count(name):
        return clock.counts.get(name, 0)

    sizes = np.asarray(layer.get("batch_sizes", []), dtype=float)
    store_layers = ("store.lookup", "store.append", "store.flush")
    traced_wall = timeline_estimate(traced)[0]
    plain_wall = timeline_estimate([p for p in passes if not p["traced"]])[0]
    unattributed = best["wall_s"] - sum(clock.self_time.values())
    appends = layer.get("store_appends", 0)
    return {
        "algo.self_s": (self_s("algo"), "s"),
        "algo.oracle_calls": (layer.get("oracle_calls", 0), "count"),
        "algo.batch_p50": (float(np.median(sizes)) if sizes.size else 0.0, "count"),
        "algo.batch_mean": (float(sizes.mean()) if sizes.size else 0.0, "count"),
        "oracle.self_s": (self_s("oracle"), "s"),
        "oracle.us_per_call": (1e6 * _ratio(self_s("oracle"), calls("oracle")), "us"),
        "oracle.queries": (count("oracle.queries"), "count"),
        "memo.hit_ratio": (_ratio(layer["memo_cached"], layer["memo_total"]), "ratio"),
        "noise.self_s": (self_s("noise"), "s"),
        "noise.calls": (calls("noise"), "count"),
        "noise.fresh_keys": (count("noise.keys"), "count"),
        "metric.self_s": (self_s("metric"), "s"),
        "metric.calls": (calls("metric"), "count"),
        "metric.pairs": (count("metric.pairs"), "count"),
        "metric.distances_computed": (layer.get("backend_computed", 0), "count"),
        "metric.useful_ratio": (
            _ratio(count("metric.pairs"), layer.get("backend_computed", 0)),
            "ratio",
        ),
        "metric.block_hit_ratio": (
            _ratio(
                layer.get("backend_hits", 0),
                layer.get("backend_hits", 0) + layer.get("backend_misses", 0),
            ),
            "ratio",
        ),
        "metric.reloads": (layer.get("backend_reloads", 0), "count"),
        "metric.spill_mb": (layer.get("backend_spill_bytes", 0) / 1e6, "MB"),
        "store.lookup_s": (self_s("store.lookup"), "s"),
        "store.append_s": (self_s("store.append"), "s"),
        "store.flush_s": (self_s("store.flush"), "s"),
        "store.calls": (sum(calls(name) for name in store_layers), "count"),
        "store.hit_ratio": (_ratio(count("store.hits"), count("store.lookups")), "ratio"),
        "store.appends": (appends, "count"),
        "store.fsyncs": (layer.get("store_fsyncs", 0), "count"),
        "store.wal_bytes_per_append": (_ratio(layer.get("store_wal_bytes", 0), appends), "bytes"),
        "store.recover_s": (min(p["layer"].get("recover_s", 0.0) for p in traced), "s"),
        "service.self_s": (self_s("service"), "s"),
        "service.batches": (layer.get("service_batches", 0), "count"),
        "service.mean_batch": (layer.get("service_mean_batch", 0.0), "count"),
        "client.self_s": (self_s("client"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead": (_ratio(traced_wall, plain_wall), "ratio"),
        "trace.unattributed_s": (unattributed, "s"),
    }


def traced_exact(p: dict) -> dict:
    """Exact counts only a traced pass can see."""
    clock = p["clock"]
    return {
        "metric.pairs": clock.counts.get("metric.pairs", 0),
        "oracle.queries": clock.counts.get("oracle.queries", 0),
        "noise.keys": clock.counts.get("noise.keys", 0),
        "layer_calls": dict(sorted(clock.calls.items())),
    }


def unsteady_counts(passes: list) -> list:
    """Describe every exact count that differs between passes of one run."""
    problems = []
    for key in passes[0]["exact"]:
        values = {repr(p["exact"][key]) for p in passes}
        if len(values) > 1:
            problems.append(f"{key} differs between passes: {sorted(values)}")
    traced = [traced_exact(p) for p in passes if p["traced"]]
    for key in traced[0] if traced else ():
        values = {repr(t[key]) for t in traced}
        if len(values) > 1:
            problems.append(f"{key} differs between traced passes: {sorted(values)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {source}: {error}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != source:
        print(f"perfbench: repro imported from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    from repro import obs

    if obs.enabled():
        print("perfbench: repro.obs must be disabled for timing", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    passes = []
    try:
        start = perf_counter()
        deadline = start + args.seconds
        least = 2 * MIN_PASSES - 2 if args.trace else MIN_PASSES
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(one_pass(workload, args.seed, workdir, traced))
            now = perf_counter()
            # Passes take about equally long: start none that would overrun.
            if len(passes) >= least and now + (now - start) / len(passes) > deadline:
                break
        environment = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "passes": len(passes),
            "traced_passes": sum(p["traced"] for p in passes),
            "pass_wall_s": [round(p["wall_s"], 6) for p in passes],
            "pass_setup_s": [round(p["setup_s"], 6) for p in passes],
            # Latency percentiles are over the requests of one pass.
            "latency_requests": len(passes[0]["requests"]),
            "timeline_marks": len(passes[0]["marks"]),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        }
        if hasattr(workload, "environment"):
            environment.update(workload.environment(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p["failures"]]
    unsteady = unsteady_counts(passes)
    for line in failures[:20] + [f"unsteady: {u}" for u in unsteady]:
        print(f"perfbench: {line}", file=sys.stderr)

    if args.trace:
        clock = fastest([p for p in passes if p["traced"]])["clock"]
        trace_path = WORKDIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        clock.write_jsonl(trace_path, environment, origin=min(span[3] for span in clock.spans))
        environment["trace_file"] = str(trace_path.relative_to(ROOT))
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes)

    correct = not failures and not unsteady
    print(json.dumps({"environment": environment}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(p["attempted"] for p in passes),
                "failed": len(failures) + len(unsteady),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
