"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload crowd-serve --seeds 1 2 3 4 5 --seconds 20 [--trace 1]

For every metric this prints the median over the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of that median, next to the bound ``BENCHMARK.json`` fixes for it.
Passing a seed twice re-runs it: the exact counts of runs with the same
seed must then be identical, or the benchmark is reported unsteady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics that are exact counts: equal seeds must give equal values.
EXACT = (
    "charged_queries",
    "quality_ratio",
    "algo.oracle_calls",
    "metric.pairs",
    "metric.distances_computed",
    "store.appends",
    "store.fsyncs",
    "service.batches",
)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run failed with exit code {done.returncode}: {' '.join(command)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = [(seed, run_once(args.workload, seed, seconds, args.trace)) for seed in args.seeds]
    unsteady = []
    by_seed: dict = {}
    for seed, result in runs:
        by_seed.setdefault(seed, []).append(result["metrics"])
    for seed, results in by_seed.items():
        for name in EXACT:
            values = {r[name]["value"] for r in results if name in r}
            if len(values) > 1:
                unsteady.append(f"seed {seed}: {name} takes {sorted(values)}")

    first_of_seed = [results[0] for results in by_seed.values()]
    print(f"{args.workload}: {len(runs)} runs, {len(by_seed)} seeds, trace {args.trace}")
    for seed, result in runs:
        shown = list(result["metrics"].items())[:4]
        print(f"  seed {seed}: " + "  ".join(f"{k}={v['value']:.5g}" for k, v in shown))
    for name in runs[0][1]["metrics"]:
        values = [r[name]["value"] for r in first_of_seed]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- spread >= bound/3"
        print(f"  {name:28s} median {median:12.6g}  spread {spread:7.2%}  bound {bound}{flag}")
    for line in unsteady:
        print(f"  UNSTEADY {line}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
