"""Per-call cost of the quadruplet oracle by batch size.

    PYTHONPATH=src python scripts/oracle_call_cost.py [--sizes 1 9 32 33 128] [--repeats 9]

Times ``DistanceQuadrupletOracle.compare_batch`` on dblp n=100 (dense
backend) with ``ProbabilisticNoise(p=0.1)``, for each batch size *m*, over
200 batches of random queries:

* ``fresh`` — a new oracle, so no query is in its answer memo; the space has
  computed every distance pair before, as it has in a running algorithm;
* ``hit`` — the same batches again on the same oracle, all memo hits;
* ``loop fresh`` / ``loop hit`` — the same two passes as a loop of scalar
  ``compare`` calls.

Prints microseconds per call (per batch, or per m scalar calls), the best
of ``--repeats`` runs, as a Markdown table.
"""

from __future__ import annotations

import argparse
from time import perf_counter

import numpy as np

from repro.datasets.registry import load_dataset
from repro.oracles.noise import ProbabilisticNoise
from repro.oracles.quadruplet import DistanceQuadrupletOracle

BATCHES = 200


def _timed(fn, batches) -> float:
    start = perf_counter()
    for batch in batches:
        fn(*batch)
    return (perf_counter() - start) / len(batches) * 1e6


def _loop(oracle):
    def run(a, b, c, d):
        for query in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()):
            oracle.compare(*query)

    return run


def measure(space, m: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    batches = [tuple(rng.integers(0, len(space), size=(4, m))) for _ in range(BATCHES)]
    warm = DistanceQuadrupletOracle(space, noise=ProbabilisticNoise(p=0.1, seed=seed))
    for a, b, c, d in batches:  # every distance pair computed once
        for query in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()):
            warm.compare(*query)
    row = {}
    for name, call in (("batch", lambda o: o.compare_batch), ("loop", _loop)):
        oracle = DistanceQuadrupletOracle(space, noise=ProbabilisticNoise(p=0.1, seed=seed))
        row[f"{name} fresh"] = _timed(call(oracle), batches)
        row[f"{name} hit"] = _timed(call(oracle), batches)
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 9, 32, 33, 128])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    space = load_dataset("dblp", n_points=100, seed=3)
    columns = ("batch hit", "batch fresh", "loop hit", "loop fresh")
    print("| m | " + " | ".join(f"{c} (us)" for c in columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for m in args.sizes:
        runs = [measure(space, m, seed) for seed in range(args.repeats)]
        best = {c: min(run[c] for run in runs) for c in columns}
        print(f"| {m} | " + " | ".join(f"{best[c]:.1f}" for c in columns) + " |")


if __name__ == "__main__":
    main()
