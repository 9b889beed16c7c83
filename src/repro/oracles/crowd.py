"""Simulated crowd oracle with distance-bucket accuracy profiles.

The paper's user study (Section 6.2, Figure 4) measures the accuracy of crowd
answers to quadruplet queries as a function of which *distance buckets* the
two compared pairs fall into: accuracy is lowest (~0.5) when both pairs fall
in the same bucket and rises towards 1.0 as the buckets move apart, with a
sharp cut-off once the distance ratio exceeds roughly 1.45 on datasets that
satisfy the adversarial model.

Because the real Mechanical Turk workers are unavailable, the
:class:`CrowdQuadrupletOracle` reproduces exactly that behaviour: per-query
accuracy is looked up in a :class:`BucketAccuracyProfile`, the (persistent)
answer is drawn once, and an optional majority vote over ``n_workers``
simulated workers is applied — the same aggregation the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.metric.space import MetricSpace
from repro.oracles.base import BaseQuadrupletOracle, check_index_arrays
from repro.oracles.counting import QueryCounter
from repro.oracles.keys import quadruplet_key
from repro.rng import SeedLike, ensure_rng


@dataclass
class BucketAccuracyProfile:
    """Accuracy of a simulated crowd as a function of compared distances.

    The profile discretises distances into ``n_buckets`` equal-width buckets
    over ``[0, max_distance]`` and assigns an accuracy to every pair of
    buckets.  Accuracy is modelled as

    ``accuracy = base + (top - base) * min(1, gap / saturation_gap)``

    where ``gap`` is the absolute difference of bucket indices.  With the
    default parameters this reproduces the qualitative shape of Figure 4:
    ~0.5 on the diagonal, ~1.0 once the buckets are a few steps apart.
    """

    n_buckets: int = 10
    max_distance: float = 1.0
    base_accuracy: float = 0.55
    top_accuracy: float = 0.99
    saturation_gap: int = 3

    def __post_init__(self):
        if self.n_buckets < 1:
            raise InvalidParameterError("n_buckets must be at least 1")
        if not 0.0 < self.max_distance:
            raise InvalidParameterError("max_distance must be positive")
        if not 0.0 <= self.base_accuracy <= 1.0:
            raise InvalidParameterError("base_accuracy must be in [0, 1]")
        if not 0.0 <= self.top_accuracy <= 1.0:
            raise InvalidParameterError("top_accuracy must be in [0, 1]")
        if self.saturation_gap < 1:
            raise InvalidParameterError("saturation_gap must be at least 1")

    def bucket_of(self, distance: float) -> int:
        """Bucket index of a distance (clamped to the last bucket)."""
        if distance < 0:
            raise InvalidParameterError("distance must be non-negative")
        width = self.max_distance / self.n_buckets
        if width == 0:
            return 0
        return min(self.n_buckets - 1, int(distance / width))

    def accuracy(self, d_left: float, d_right: float) -> float:
        """Probability that a single simulated worker answers this query correctly."""
        gap = abs(self.bucket_of(d_left) - self.bucket_of(d_right))
        frac = min(1.0, gap / self.saturation_gap)
        return self.base_accuracy + (self.top_accuracy - self.base_accuracy) * frac

    def accuracy_matrix(self) -> np.ndarray:
        """Accuracy for every pair of buckets, as plotted in Figure 4."""
        matrix = np.zeros((self.n_buckets, self.n_buckets), dtype=float)
        width = self.max_distance / self.n_buckets
        for i in range(self.n_buckets):
            for j in range(self.n_buckets):
                matrix[i, j] = self.accuracy((i + 0.5) * width, (j + 0.5) * width)
        return matrix

    @classmethod
    def adversarial_like(cls, max_distance: float, ratio_cutoff: float = 1.45) -> "BucketAccuracyProfile":
        """Profile matching datasets where noise vanishes past a distance-ratio cutoff (caltech/cities)."""
        return cls(
            n_buckets=12,
            max_distance=max_distance,
            base_accuracy=0.55,
            top_accuracy=1.0,
            saturation_gap=max(1, int(round((ratio_cutoff - 1.0) * 12))),
        )

    @classmethod
    def probabilistic_like(cls, max_distance: float, accuracy: float = 0.8) -> "BucketAccuracyProfile":
        """Profile matching datasets with substantial noise at all distances (amazon)."""
        return cls(
            n_buckets=12,
            max_distance=max_distance,
            base_accuracy=0.5,
            top_accuracy=accuracy,
            saturation_gap=6,
        )


class CrowdQuadrupletOracle(BaseQuadrupletOracle):
    """Quadruplet oracle whose error rate follows a crowd accuracy profile.

    Answers are persistent per canonical query and may be aggregated over a
    simulated pool of workers by majority vote (``n_workers`` odd).
    """

    def __init__(
        self,
        space: MetricSpace,
        profile: BucketAccuracyProfile,
        n_workers: int = 1,
        seed: SeedLike = None,
        counter: Optional[QueryCounter] = None,
        tag: Optional[str] = None,
    ):
        if n_workers < 1 or n_workers % 2 == 0:
            raise InvalidParameterError("n_workers must be a positive odd integer")
        self.space = space
        self.profile = profile
        self.n_workers = int(n_workers)
        self._rng = ensure_rng(seed)
        self._persisted: dict = {}
        self.counter = counter if counter is not None else QueryCounter()
        self.tag = tag

    def __len__(self) -> int:
        return len(self.space)

    def compare(self, a: int, b: int, c: int, d: int) -> bool:
        """Majority-vote crowd answer to "is d(a, b) <= d(c, d)?"."""
        a, b, c, d = int(a), int(b), int(c), int(d)
        n = len(self.space)
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n and 0 <= d < n):
            check_index_arrays(n, [a, b, c, d])
        query = quadruplet_key(a, b, c, d, n)
        if query is None:
            return True
        key, l1, l2, r1, r2, flipped = query
        if key in self._persisted:
            self.counter.record(cached=True, tag=self.tag)
        else:
            d_left = self.space.distance(l1, l2)
            d_right = self.space.distance(r1, r2)
            truth = d_left <= d_right
            acc = self.profile.accuracy(d_left, d_right)
            votes_correct = int(np.sum(self._rng.random(self.n_workers) < acc))
            majority_correct = votes_correct > self.n_workers // 2
            self._persisted[key] = truth if majority_correct else (not truth)
            self.counter.record(tag=self.tag)
        answer = self._persisted[key]
        return (not answer) if flipped else answer

    def empirical_accuracy(
        self,
        pairs_left: Sequence[tuple],
        pairs_right: Sequence[tuple],
    ) -> float:
        """Fraction of the given queries the crowd answers correctly (Figure 4 measurement)."""
        if len(pairs_left) != len(pairs_right):
            raise InvalidParameterError("pairs_left and pairs_right must have equal length")
        if not pairs_left:
            return float("nan")
        correct = 0
        for (a, b), (c, d) in zip(pairs_left, pairs_right):
            answer = self.compare(a, b, c, d)
            truth = self.space.distance(a, b) <= self.space.distance(c, d)
            correct += int(answer == truth)
        return correct / len(pairs_left)
