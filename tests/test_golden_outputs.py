"""Behaviour lock: seeded outputs of the paper's robust algorithms.

Pins, for seeds 1-3, what Alg 7 probabilistic k-center, Alg 6 adversarial
k-center, robust single linkage and Count-Max "farthest from q" return on
dense dblp instances of the benchmark's ``paper-noisy`` shapes (n = 100,
120 and 45), together with the oracle's query accounting.  Any change to
the oracle stack that alters an answer, a noise draw or the memo shows up
here as a diff against ``fixtures/algorithms_golden.json``.

To regenerate the fixture after an intended behaviour change::

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.hierarchical import noisy_linkage
from repro.kcenter import kcenter_adversarial, kcenter_probabilistic
from repro.maximum.count_max import count_max
from repro.oracles import (
    AdversarialNoise,
    DistanceQuadrupletOracle,
    ProbabilisticNoise,
    QueryCounter,
)
from repro.oracles.base import distance_comparison_view

FIXTURE = Path(__file__).parent / "fixtures" / "algorithms_golden.json"
SEEDS = (1, 2, 3)
#: Count-Max sample sizes: 10, 28, 66 and 780 queries per problem, so the
#: problems issue batches on both sides of any small-batch cut-off.
COUNT_MAX_SAMPLES = (5, 8, 12, 40)


def _oracle(space, noise) -> DistanceQuadrupletOracle:
    return DistanceQuadrupletOracle(space, noise=noise, counter=QueryCounter())


def _counts(oracle) -> dict:
    counter = oracle.counter
    return {
        "total": counter.total_queries,
        "charged": counter.charged_queries,
        "cached": counter.cached_queries,
    }


def _clustering(result, oracle) -> dict:
    return {
        "centers": [int(c) for c in result.centers],
        "assignment": [int(result.assignment[i]) for i in sorted(result.assignment)],
        "queries": _counts(oracle),
    }


def _kcenter_probabilistic(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    space = load_dataset("dblp", n_points=100, seed=int(rng.integers(2**31)))
    oracle = _oracle(space, ProbabilisticNoise(p=0.1, seed=int(rng.integers(2**31))))
    k = 4
    result = kcenter_probabilistic(
        oracle,
        k,
        min_cluster_size=max(4, len(space) // (4 * k)),
        first_center=int(rng.integers(len(space))),
        seed=int(rng.integers(2**31)),
    )
    return _clustering(result, oracle)


def _kcenter_adversarial(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    space = load_dataset("dblp", n_points=120, seed=int(rng.integers(2**31)))
    oracle = _oracle(space, AdversarialNoise(mu=0.5, seed=int(rng.integers(2**31))))
    result = kcenter_adversarial(
        oracle, 8, first_center=int(rng.integers(len(space))), seed=int(rng.integers(2**31))
    )
    return _clustering(result, oracle)


def _linkage_single(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    space = load_dataset("dblp", n_points=45, seed=int(rng.integers(2**31)))
    oracle = _oracle(space, AdversarialNoise(mu=0.5, seed=int(rng.integers(2**31))))
    dendrogram = noisy_linkage(
        oracle, linkage="single", space=space, seed=int(rng.integers(2**31))
    )
    return {
        "merges": [
            [int(step.left), int(step.right), [int(x) for x in step.witness_pair]]
            for step in dendrogram.merges
        ],
        "queries": _counts(oracle),
    }


def _count_max_farthest(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    space = load_dataset("dblp", n_points=100, seed=int(rng.integers(2**31)))
    oracle = _oracle(space, ProbabilisticNoise(p=0.1, seed=int(rng.integers(2**31))))
    winners = []
    for size in COUNT_MAX_SAMPLES:
        q = int(rng.integers(len(space)))
        others = np.array([x for x in range(len(space)) if x != q])
        items = [int(x) for x in rng.choice(others, size=size, replace=False)]
        view = distance_comparison_view(oracle, q)
        winners.append(int(count_max(items, view, seed=int(rng.integers(2**31)))))
    return {"winners": winners, "queries": _counts(oracle)}


CASES = {
    "kcenter-probabilistic": _kcenter_probabilistic,
    "kcenter-adversarial": _kcenter_adversarial,
    "linkage-single": _linkage_single,
    "countmax-farthest": _count_max_farthest,
}


def _compute_all() -> dict:
    return {name: {str(s): fn(s) for s in SEEDS} for name, fn in CASES.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_matches_golden(golden, case, seed):
    assert CASES[case](seed) == golden[case][str(seed)]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
