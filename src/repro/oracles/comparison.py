"""Concrete comparison oracle over scalar values (Definition 2.1)."""

from __future__ import annotations

from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import EmptyInputError
from repro.metric.space import ValueSpace
from repro.oracles.base import (
    _SMALL_BATCH,
    BaseComparisonOracle,
    _as_index_arrays,
    cached_batch_answers,
    cached_small_answers,
    check_index_arrays,
)
from repro.oracles.counting import QueryCounter
from repro.oracles.keys import comparison_key, comparison_keys
from repro.oracles.noise import ExactNoise, NoiseModel


class ValueComparisonOracle(BaseComparisonOracle):
    """Answers "is value(i) <= value(j)?" with a pluggable noise model.

    Parameters
    ----------
    values:
        The hidden ground-truth values, as a 1-D sequence or a
        :class:`~repro.metric.space.ValueSpace`.
    noise:
        The noise model; defaults to a perfect oracle.
    counter:
        Optional shared query counter (a fresh one is created otherwise).
    tag:
        Optional tag recorded with every query for per-phase accounting.
    cache_answers:
        When true (the default) repeated queries are served from a memo and
        recorded as cached (persistent-crowd behaviour).
    """

    def __init__(
        self,
        values: Sequence[float] | ValueSpace,
        noise: Optional[NoiseModel] = None,
        counter: Optional[QueryCounter] = None,
        tag: Optional[str] = None,
        cache_answers: bool = True,
    ):
        if isinstance(values, ValueSpace):
            self.space = values
        else:
            self.space = ValueSpace(np.asarray(values, dtype=float))
        if len(self.space) == 0:
            raise EmptyInputError("oracle needs at least one value")
        self.noise = noise if noise is not None else ExactNoise()
        self.counter = counter if counter is not None else QueryCounter()
        self.tag = tag
        self.cache_answers = bool(cache_answers)
        self._answer_cache: dict = {}

    def __len__(self) -> int:
        return len(self.space)

    def compare(self, i: int, j: int) -> bool:
        """Return Yes (True) when value(i) <= value(j), subject to noise.

        Comparing a record with itself is answered Yes without charging a
        query, mirroring the convention that ``Count`` sums over ``S \\ {v}``.
        """
        i, j = int(i), int(j)
        n = len(self.space)
        if not (0 <= i < n and 0 <= j < n):
            check_index_arrays(n, [i, j])
        query = comparison_key(i, j, n)
        if query is None:
            return True
        key, lo, hi, flipped = query
        cache = self._answer_cache
        if self.cache_answers and key in cache:
            self.counter.record(cached=True, tag=self.tag)
            answer = cache[key]
        else:
            values = self.space.values
            answer = self.noise.answer(values.item(lo), values.item(hi), key)
            if self.cache_answers:
                cache[key] = answer
            self.counter.record(tag=self.tag)
        return (not answer) if flipped else answer

    def compare_batch(self, i, j) -> np.ndarray:
        """Vectorised :meth:`compare` over index arrays.

        Same equivalence contract, and the same small-batch path, as
        :meth:`repro.oracles.quadruplet.DistanceQuadrupletOracle.compare_batch`.
        """
        i, j = _as_index_arrays(i, j)
        m = len(i)
        if m <= _SMALL_BATCH:
            return self._compare_small(i.tolist(), j.tolist())
        n = len(self.space)
        check_index_arrays(n, i, j)
        out = np.ones(m, dtype=bool)
        codes, flipped, trivial, lo, hi = comparison_keys(i, j, n)
        active = np.nonzero(~trivial)[0]
        if active.size == 0:
            return out
        lo_a, hi_a = lo[active], hi[active]
        codes_a = codes[active]
        values = self.space.values
        if not self.cache_answers:
            answers = self.noise.answer_batch(values[lo_a], values[hi_a], codes_a)
            self.counter.record_batch(active.size, tag=self.tag)
        else:

            def fresh_answers(miss: np.ndarray) -> np.ndarray:
                return self.noise.answer_batch(
                    values[lo_a[miss]], values[hi_a[miss]], codes_a[miss]
                )

            answers, n_cached, cached_mask = cached_batch_answers(
                self._answer_cache, codes_a, fresh_answers
            )
            self.counter.record_batch(
                len(codes_a), n_cached=n_cached, tag=self.tag, cached_mask=cached_mask
            )
        out[active] = answers ^ flipped[active]
        return out

    def _compare_small(self, i: list, j: list) -> np.ndarray:
        """:meth:`compare_batch` for a few queries, one Python pass per query.

        The comparison counterpart of
        :meth:`repro.oracles.quadruplet.DistanceQuadrupletOracle._compare_small`.
        """
        n = len(self.space)
        indices = i + j
        if indices and (min(indices) < 0 or max(indices) >= n):
            check_index_arrays(n, i, j)
        out = [True] * len(i)
        active, keys, flips, los, his = [], [], [], [], []
        for pos, query in enumerate(map(comparison_key, i, j, repeat(n))):
            if query is None:
                continue
            key, lo, hi, flipped = query
            active.append(pos)
            keys.append(key)
            flips.append(flipped)
            los.append(lo)
            his.append(hi)
        if not active:
            return np.array(out, dtype=bool)

        def fresh_answers(miss) -> list:
            value = self.space.values.item
            answer = self.noise.answer
            return [answer(value(los[p]), value(his[p]), keys[p]) for p in miss]

        if self.cache_answers:
            answers, cached_mask = cached_small_answers(self._answer_cache, keys, fresh_answers)
            self.counter.record_batch(len(keys), tag=self.tag, cached_mask=cached_mask)
        else:
            answers = fresh_answers(range(len(keys)))
            self.counter.record_batch(len(keys), tag=self.tag)
        for pos, answer, flipped in zip(active, answers, flips):
            out[pos] = answer != flipped
        return np.array(out, dtype=bool)

    def true_compare(self, i: int, j: int) -> bool:
        """Noise-free ground-truth comparison (used only by tests and evaluation)."""
        return self.space.value(i) <= self.space.value(j)
