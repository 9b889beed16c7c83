"""Concrete quadruplet oracle over a metric space (Definition 2.3).

Also provides the pairwise *same-cluster* oracle used by the ``Oq`` baseline
in the paper's evaluation (optimal-cluster queries answered by the crowd).
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.metric.space import MetricSpace
from repro.oracles.base import (
    _SMALL_BATCH,
    BaseQuadrupletOracle,
    _as_index_arrays,
    cached_batch_answers,
    cached_small_answers,
    check_index_arrays,
)
from repro.oracles.counting import QueryCounter
from repro.oracles.keys import quadruplet_key, quadruplet_keys
from repro.oracles.noise import ExactNoise, NoiseModel, ProbabilisticNoise
from repro.rng import SeedLike, ensure_rng


class DistanceQuadrupletOracle(BaseQuadrupletOracle):
    """Answers "is d(a, b) <= d(c, d)?" over a hidden metric space with noise.

    Parameters
    ----------
    space:
        The hidden ground-truth metric space.
    noise:
        Noise model applied to every comparison of the two distances.
    counter:
        Optional shared query counter.
    tag:
        Optional accounting tag recorded with every query.
    cache_answers:
        When true (the default) the oracle memoises answers per canonical
        query, modelling a persistent crowd: repeating a question costs no
        new crowd work, so repeats are recorded as cached and not charged.
    """

    def __init__(
        self,
        space: MetricSpace,
        noise: Optional[NoiseModel] = None,
        counter: Optional[QueryCounter] = None,
        tag: Optional[str] = None,
        cache_answers: bool = True,
    ):
        self.space = space
        self.noise = noise if noise is not None else ExactNoise()
        self.counter = counter if counter is not None else QueryCounter()
        self.tag = tag
        self.cache_answers = bool(cache_answers)
        self._answer_cache: dict = {}

    def __len__(self) -> int:
        return len(self.space)

    def compare(self, a: int, b: int, c: int, d: int) -> bool:
        """Return Yes (True) when d(a, b) <= d(c, d), subject to noise.

        Comparing a pair against itself is answered Yes without charging a
        query.  Persistence keys are canonicalised so that the same two pairs
        presented in either order or orientation receive consistent answers.
        """
        a, b, c, d = int(a), int(b), int(c), int(d)
        n = len(self.space)
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n and 0 <= d < n):
            check_index_arrays(n, [a, b, c, d])
        query = quadruplet_key(a, b, c, d, n)
        if query is None:
            return True
        key, l1, l2, r1, r2, flipped = query
        cache = self._answer_cache
        if self.cache_answers and key in cache:
            self.counter.record(cached=True, tag=self.tag)
            answer = cache[key]
        else:
            space = self.space
            answer = self.noise.answer(space.distance(l1, l2), space.distance(r1, r2), key)
            if self.cache_answers:
                cache[key] = answer
            self.counter.record(tag=self.tag)
        return (not answer) if flipped else answer

    def compare_batch(self, a, b, c, d) -> np.ndarray:
        """Answer :meth:`compare` for every query of the index arrays.

        Answers, cache contents, noise draws and query accounting totals are
        identical to a loop of scalar calls in array order.  Fresh queries
        reach the metric space as two ``pair_distances`` calls (left pairs,
        right pairs) in first-occurrence order.  On a budget overrun the
        counter clamps to the scalar prefix (the cached positions are passed
        through, so the raise point matches the loop's exactly); the answer
        cache and the noise model, however, have already seen the whole
        batch by then, so their state covers every query, not just the
        recorded prefix.

        Batches of at most ``_SMALL_BATCH`` queries are served query by
        query in plain Python (:meth:`_compare_small`); larger ones by array
        operations, where only the answer-cache lookups walk a dict.
        """
        a, b, c, d = _as_index_arrays(a, b, c, d)
        m = len(a)
        if m <= _SMALL_BATCH:
            return self._compare_small(a.tolist(), b.tolist(), c.tolist(), d.tolist())
        n = len(self.space)
        check_index_arrays(n, a, b, c, d)
        out = np.ones(m, dtype=bool)
        codes, flipped, trivial, L1, L2, R1, R2 = quadruplet_keys(a, b, c, d, n)
        active = np.nonzero(~trivial)[0]
        if active.size == 0:
            return out
        L1a, L2a = L1[active], L2[active]
        R1a, R2a = R1[active], R2[active]
        codes_a = codes[active]

        if not self.cache_answers:
            d_left = self.space.pair_distances(L1a, L2a)
            d_right = self.space.pair_distances(R1a, R2a)
            answers = self.noise.answer_batch(d_left, d_right, codes_a)
            self.counter.record_batch(active.size, tag=self.tag)
        else:

            def fresh_answers(miss: np.ndarray) -> np.ndarray:
                d_left = self.space.pair_distances(L1a[miss], L2a[miss])
                d_right = self.space.pair_distances(R1a[miss], R2a[miss])
                return self.noise.answer_batch(d_left, d_right, codes_a[miss])

            answers, n_cached, cached_mask = cached_batch_answers(
                self._answer_cache, codes_a, fresh_answers
            )
            self.counter.record_batch(
                len(codes_a), n_cached=n_cached, tag=self.tag, cached_mask=cached_mask
            )
        out[active] = answers ^ flipped[active]
        return out

    def _compare_small(self, a: list, b: list, c: list, d: list) -> np.ndarray:
        """:meth:`compare_batch` for a few queries, one Python pass per query.

        Validates the indices once, canonicalises and keys each query like
        :meth:`compare` and makes one memo probe per query.  Only the
        first-occurrence misses, in batch order, reach the metric space —
        through the same two ``pair_distances`` calls the vectorised path
        makes, so lazy and disk backends see the same requests — and then
        the noise model's scalar ``answer``, which the noise contract makes
        equivalent to one ``answer_batch`` call.  The whole batch reaches
        the memo before the counter records it with its cached positions.
        """
        n = len(self.space)
        indices = a + b + c + d
        if indices and (min(indices) < 0 or max(indices) >= n):
            check_index_arrays(n, a, b, c, d)
        out = [True] * len(a)
        active, keys, flips = [], [], []
        l1s, l2s, r1s, r2s = [], [], [], []
        for pos, query in enumerate(map(quadruplet_key, a, b, c, d, repeat(n))):
            if query is None:
                continue
            key, l1, l2, r1, r2, flipped = query
            active.append(pos)
            keys.append(key)
            flips.append(flipped)
            l1s.append(l1)
            l2s.append(l2)
            r1s.append(r1)
            r2s.append(r2)
        if not active:
            return np.array(out, dtype=bool)

        def fresh_answers(miss) -> list:
            space = self.space
            d_left = space.pair_distances([l1s[p] for p in miss], [l2s[p] for p in miss])
            d_right = space.pair_distances([r1s[p] for p in miss], [r2s[p] for p in miss])
            return list(
                map(self.noise.answer, d_left.tolist(), d_right.tolist(), [keys[p] for p in miss])
            )

        if self.cache_answers:
            answers, cached_mask = cached_small_answers(self._answer_cache, keys, fresh_answers)
            self.counter.record_batch(len(keys), tag=self.tag, cached_mask=cached_mask)
        else:
            answers = fresh_answers(range(len(keys)))
            self.counter.record_batch(len(keys), tag=self.tag)
        for pos, answer, flipped in zip(active, answers, flips):
            out[pos] = answer != flipped
        return np.array(out, dtype=bool)

    def true_compare(self, a: int, b: int, c: int, d: int) -> bool:
        """Noise-free ground-truth comparison (tests and evaluation only)."""
        return self.space.distance(a, b) <= self.space.distance(c, d)


class SameClusterOracle:
    """Pairwise optimal-cluster query oracle for the ``Oq`` baseline.

    Answers "do records *i* and *j* belong to the same optimal cluster?".
    Following the user-study observations in Section 6.2.2, answers for pairs
    in *different* clusters are reliable (high precision) while answers for
    pairs in the *same* cluster miss with a higher rate (low recall), because
    a worker without a holistic view tends to say No for same-cluster pairs
    that merely look different.

    Parameters
    ----------
    labels:
        Ground-truth cluster label per record.
    false_negative_rate:
        Probability that a same-cluster pair is (wrongly) answered No.
    false_positive_rate:
        Probability that a different-cluster pair is (wrongly) answered Yes.
    seed:
        Seed for the persistent flip decisions.
    counter:
        Optional shared query counter.
    """

    def __init__(
        self,
        labels: Sequence[int],
        false_negative_rate: float = 0.5,
        false_positive_rate: float = 0.05,
        seed: SeedLike = None,
        counter: Optional[QueryCounter] = None,
    ):
        self.labels = np.asarray(labels, dtype=int)
        for name, rate in (
            ("false_negative_rate", false_negative_rate),
            ("false_positive_rate", false_positive_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise InvalidParameterError(f"{name} must be in [0, 1], got {rate}")
        self.false_negative_rate = float(false_negative_rate)
        self.false_positive_rate = float(false_positive_rate)
        self._rng = ensure_rng(seed)
        self._persisted: dict = {}
        self.counter = counter if counter is not None else QueryCounter()

    def __len__(self) -> int:
        return len(self.labels)

    def same_cluster(self, i: int, j: int) -> bool:
        """Noisy persistent answer to "are i and j in the same optimal cluster?"."""
        i, j = int(i), int(j)
        if i == j:
            return True
        key = (i, j) if i < j else (j, i)
        if key not in self._persisted:
            truth = bool(self.labels[i] == self.labels[j])
            if truth:
                answer = not (self._rng.random() < self.false_negative_rate)
            else:
                answer = self._rng.random() < self.false_positive_rate
            self._persisted[key] = answer
        self.counter.record()
        return self._persisted[key]


def make_probabilistic_quadruplet_oracle(
    space: MetricSpace, p: float, seed: SeedLike = None, counter: Optional[QueryCounter] = None
) -> DistanceQuadrupletOracle:
    """Convenience constructor for the common probabilistic-noise configuration."""
    return DistanceQuadrupletOracle(
        space, noise=ProbabilisticNoise(p=p, seed=seed), counter=counter
    )
