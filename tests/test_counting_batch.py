"""Tests for batched query accounting (``record_batch``), budget exhaustion
mid-batch, ``cached_batch_answers`` hit accounting, and ``summary``."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, QueryBudgetExceededError
from repro.metric.space import PointCloudSpace
from repro.oracles.base import _SMALL_BATCH, cached_batch_answers
from repro.oracles.comparison import ValueComparisonOracle
from repro.oracles.counting import QueryCounter
from repro.oracles.noise import ProbabilisticNoise
from repro.oracles.quadruplet import DistanceQuadrupletOracle


def test_record_batch_matches_scalar_loop():
    batched = QueryCounter()
    scalar = QueryCounter()
    batched.record_batch(10, n_cached=3, tag="assign")
    for k in range(10):
        scalar.record(cached=k < 3, tag="assign")
    assert batched.snapshot() == scalar.snapshot()


def test_record_batch_cached_answers_are_counted():
    counter = QueryCounter()
    counter.record_batch(5, n_cached=5)
    # Cached repeats are recorded, not silently dropped.
    assert counter.total_queries == 5
    assert counter.cached_queries == 5
    assert counter.charged_queries == 0


def test_record_batch_charge_cached():
    counter = QueryCounter(charge_cached=True)
    counter.record_batch(4, n_cached=4)
    assert counter.charged_queries == 4


def test_record_batch_zero_is_noop():
    counter = QueryCounter()
    counter.record_batch(0)
    assert counter.snapshot() == QueryCounter().snapshot()


def test_record_batch_validates_arguments():
    counter = QueryCounter()
    with pytest.raises(InvalidParameterError):
        counter.record_batch(-1)
    with pytest.raises(InvalidParameterError):
        counter.record_batch(2, n_cached=3)
    with pytest.raises(InvalidParameterError):
        counter.record_batch(2, n_cached=-1)


def test_record_batch_budget_overrun_clamps_to_scalar_prefix():
    counter = QueryCounter(budget=5)
    with pytest.raises(QueryBudgetExceededError):
        counter.record_batch(8)
    # Only the queries up to and including the first over-budget one are
    # recorded, exactly as a loop of scalar record() calls would have left.
    assert counter.charged_queries == 6
    assert counter.total_queries == 6


def test_record_batch_budget_exhaustion_mid_batch_exact_counts():
    # The budget runs out at the last query of the second batch; the counts at
    # raise time are exact and reproducible: 7 prior + 6 new = 13 total,
    # 7 + (6 - 2 cached) = 11 charged = budget + 1, matching the scalar loop.
    counter = QueryCounter(budget=10)
    counter.record_batch(7, tag="assign")
    with pytest.raises(QueryBudgetExceededError) as excinfo:
        counter.record_batch(6, n_cached=2, tag="assign")
    assert counter.total_queries == 13
    assert counter.charged_queries == 11
    assert counter.cached_queries == 2
    assert counter.by_tag == {"assign": 13}
    assert excinfo.value.counter is counter
    assert counter.remaining == 0


def _scalar_overrun_reference(budget, cached_flags, charge_cached=False, tag=None):
    """Run the scalar record() loop until it raises; returns the counter."""
    counter = QueryCounter(budget=budget, charge_cached=charge_cached)
    with pytest.raises(QueryBudgetExceededError):
        for cached in cached_flags:
            counter.record(cached=bool(cached), tag=tag)
    return counter


@pytest.mark.parametrize("charge_cached", [False, True])
def test_record_batch_overrun_equals_scalar_loop_with_mask(charge_cached):
    # Randomised cached/charged interleavings: the batched overrun state must
    # equal the scalar loop's raise-time state exactly, for any hit pattern.
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(2, 40))
        mask = rng.random(n) < 0.4
        charged_total = n if charge_cached else int(n - mask.sum())
        if charged_total == 0:
            continue
        budget = int(rng.integers(0, charged_total))  # guarantees an overrun
        scalar = _scalar_overrun_reference(budget, mask, charge_cached, tag="t")
        batched = QueryCounter(budget=budget, charge_cached=charge_cached)
        with pytest.raises(QueryBudgetExceededError):
            batched.record_batch(n, tag="t", cached_mask=mask)
        assert batched.snapshot() == scalar.snapshot()
        assert batched.remaining == scalar.remaining


def test_record_batch_overrun_without_mask_assumes_cached_first():
    # budget 3, batch of 8 with 2 cache hits: under the cached-first
    # convention the scalar loop raises at its fourth charged query, so
    # 2 cached + 4 charged = 6 of the 8 queries are recorded.
    counter = QueryCounter(budget=3)
    with pytest.raises(QueryBudgetExceededError):
        counter.record_batch(8, n_cached=2)
    scalar = _scalar_overrun_reference(3, [True, True] + [False] * 6)
    assert counter.snapshot() == scalar.snapshot()


def test_record_batch_cached_mask_validation():
    counter = QueryCounter()
    with pytest.raises(InvalidParameterError):
        counter.record_batch(3, cached_mask=[True, False])  # wrong length
    with pytest.raises(InvalidParameterError):
        counter.record_batch(3, n_cached=2, cached_mask=[True, False, False])
    # Consistent mask + count is accepted; the mask alone is, too.
    counter.record_batch(3, n_cached=1, cached_mask=[True, False, False])
    counter.record_batch(3, cached_mask=[False, True, True])
    assert counter.total_queries == 6
    assert counter.cached_queries == 3
    assert counter.charged_queries == 3


def test_record_batch_budget_exhaustion_exactly_at_boundary_does_not_raise():
    counter = QueryCounter(budget=10)
    counter.record_batch(10)
    assert counter.charged_queries == 10
    assert counter.remaining == 0
    with pytest.raises(QueryBudgetExceededError):
        counter.record_batch(1)


def test_oracle_compare_batch_budget_exhaustion_matches_scalar_accounting():
    # Through a real oracle: a compare_batch that overruns the budget clamps
    # the counter to the scalar prefix (budget + 1 charged queries) before
    # raising.  The answer cache has already seen the whole batch by then —
    # fresh answers are computed before accounting — so cache state covers
    # all 16 queries even though only 11 are recorded.
    space = PointCloudSpace(np.random.default_rng(0).normal(size=(20, 2)))
    counter = QueryCounter(budget=10)
    oracle = DistanceQuadrupletOracle(space, counter=counter)
    a, b = np.triu_indices(8, k=1)  # 28 distinct pairs -> 16 distinct quads below
    a, b = a[:16], b[:16]
    c = np.full(16, 18)
    d = np.full(16, 19)
    with pytest.raises(QueryBudgetExceededError):
        oracle.compare_batch(a, b, c, d)
    assert counter.total_queries == 11
    assert counter.charged_queries == 11
    assert counter.cached_queries == 0
    assert len(oracle._answer_cache) == 16


@pytest.mark.parametrize("batch_size", (1, _SMALL_BATCH, _SMALL_BATCH + 1, 4 * _SMALL_BATCH))
@pytest.mark.parametrize("kind", ["quadruplet", "comparison"])
def test_oracle_compare_batch_overrun_contract_on_both_paths(kind, batch_size):
    # Either side of the small-batch cut-off, an overrunning compare_batch
    # leaves the counter exactly where the scalar loop raises, while the
    # answer cache and the noise model have seen every query of the batch.
    rng = np.random.default_rng(batch_size)
    if kind == "quadruplet":
        space = PointCloudSpace(rng.normal(size=(12, 2)))
        columns = rng.integers(0, 12, size=(4, batch_size))
        columns[:, 1::3] = columns[:, 0::3][:, : columns[:, 1::3].shape[1]]  # repeats

        def make(budget):
            return DistanceQuadrupletOracle(
                space, noise=ProbabilisticNoise(p=0.3, seed=5), counter=QueryCounter(budget=budget)
            )
    else:
        values = rng.uniform(1.0, 2.0, size=12)
        columns = rng.integers(0, 12, size=(2, batch_size))
        columns[:, 1::3] = columns[:, 0::3][:, : columns[:, 1::3].shape[1]]

        def make(budget):
            return ValueComparisonOracle(
                values, noise=ProbabilisticNoise(p=0.3, seed=5), counter=QueryCounter(budget=budget)
            )

    unlimited = make(None)
    unlimited.compare_batch(*columns)
    budget = unlimited.counter.charged_queries // 2
    scalar, batched = make(budget), make(budget)
    with pytest.raises(QueryBudgetExceededError):
        for query in zip(*columns.tolist()):
            scalar.compare(*query)
    with pytest.raises(QueryBudgetExceededError):
        batched.compare_batch(*columns)
    assert batched.counter.snapshot() == scalar.counter.snapshot()
    assert batched.counter.charged_queries == budget + 1
    assert batched._answer_cache == unlimited._answer_cache
    assert batched.noise.n_persisted == unlimited.noise.n_persisted


def test_record_batch_budget_ignores_cached_by_default():
    counter = QueryCounter(budget=3)
    counter.record_batch(5, n_cached=3)
    assert counter.charged_queries == 2
    assert counter.remaining == 1


class TestCachedBatchAnswers:
    def test_within_batch_repeats_count_as_hits(self):
        cache: dict = {}
        codes = np.array([5, 7, 5, 9, 7, 5], dtype=np.int64)
        seen_miss_positions = []

        def fresh(miss):
            seen_miss_positions.append(miss.tolist())
            return np.array([True, False, True])[: len(miss)]

        answers, n_cached, cached_mask = cached_batch_answers(cache, codes, fresh)
        # Fresh answers are requested once per distinct code, at the position
        # of its first occurrence, in batch order.
        assert seen_miss_positions == [[0, 1, 3]]
        assert n_cached == 3  # the three within-batch repeats
        assert cached_mask.tolist() == [False, False, True, False, True, True]
        assert answers.tolist() == [True, False, True, True, False, True]
        assert cache == {5: True, 7: False, 9: True}

    def test_cross_call_hits_are_all_cached(self):
        cache: dict = {}
        codes = np.array([1, 2, 3], dtype=np.int64)
        cached_batch_answers(cache, codes, lambda miss: np.ones(len(miss), dtype=bool))
        calls = []
        answers, n_cached, cached_mask = cached_batch_answers(
            cache, codes, lambda miss: calls.append(miss)
        )
        assert n_cached == 3
        assert cached_mask.all()
        assert calls == []  # fully served from cache; compute_fresh never runs
        assert answers.tolist() == [True, True, True]

    def test_mixed_batch_counts_only_served_answers_as_cached(self):
        cache = {10: False}
        codes = np.array([10, 11, 10, 12], dtype=np.int64)
        answers, n_cached, cached_mask = cached_batch_answers(
            cache, codes, lambda miss: np.zeros(len(miss), dtype=bool)
        )
        # Two hits on code 10 plus nothing else: 11 and 12 are fresh.
        assert n_cached == 2
        assert cached_mask.tolist() == [True, False, True, False]
        assert answers.tolist() == [False, False, False, False]

    def test_oracle_hit_accounting_matches_cached_batch_answers(self):
        space = PointCloudSpace(np.random.default_rng(1).normal(size=(12, 2)))
        counter = QueryCounter()
        oracle = DistanceQuadrupletOracle(space, counter=counter)
        a = np.array([0, 0, 0, 1])
        b = np.array([1, 1, 1, 2])
        c = np.array([2, 2, 2, 3])
        d = np.array([3, 3, 3, 4])  # three identical quads + one distinct
        oracle.compare_batch(a, b, c, d)
        assert counter.total_queries == 4
        assert counter.cached_queries == 2  # within-batch repeats of the first quad
        assert counter.charged_queries == 2
        oracle.compare_batch(a[:1], b[:1], c[:1], d[:1])
        assert counter.cached_queries == 3  # cross-call repeat is also a hit


def test_summary_without_tags():
    counter = QueryCounter()
    counter.record()
    counter.record(cached=True)
    assert counter.summary() == "2 queries (1 charged, 1 cached, 50.0% hit rate)"


def test_summary_with_tags_sorted():
    counter = QueryCounter()
    counter.record_batch(3, tag="farthest")
    counter.record_batch(2, n_cached=1, tag="assign")
    assert counter.summary() == (
        "5 queries (4 charged, 1 cached, 20.0% hit rate) "
        "[assign=2 (50.0% hit), farthest=3 (0.0% hit)]"
    )


class TestHitRate:
    def test_zero_queries_zero_rate(self):
        counter = QueryCounter()
        assert counter.hit_rate == 0.0
        assert counter.tag_hit_rate("missing") == 0.0
        assert counter.snapshot()["hit_rate"] == 0.0

    def test_snapshot_reports_overall_and_per_tag_rates(self):
        counter = QueryCounter()
        counter.record_batch(8, n_cached=2, tag="assign")
        counter.record(cached=True, tag="farthest")
        counter.record(tag="farthest")
        snap = counter.snapshot()
        assert snap["hit_rate"] == pytest.approx(3 / 10)
        assert snap["hit_rate:assign"] == pytest.approx(2 / 8)
        assert snap["hit_rate:farthest"] == pytest.approx(1 / 2)
        assert counter.tag_hit_rate("assign") == pytest.approx(2 / 8)

    def test_scalar_and_batch_paths_agree_on_tag_hits(self):
        batched = QueryCounter()
        scalar = QueryCounter()
        batched.record_batch(6, cached_mask=[True, False, True, False, False, True], tag="t")
        for cached in (True, False, True, False, False, True):
            scalar.record(cached=cached, tag="t")
        assert batched.snapshot() == scalar.snapshot()
        assert batched.cached_by_tag == {"t": 3}

    def test_overrun_prefix_preserves_per_tag_hit_accounting(self):
        mask = [True, False, True, False, False, False]
        scalar = _scalar_overrun_reference(2, mask, tag="t")
        batched = QueryCounter(budget=2)
        with pytest.raises(QueryBudgetExceededError):
            batched.record_batch(6, tag="t", cached_mask=mask)
        assert batched.snapshot() == scalar.snapshot()
        assert batched.cached_by_tag == scalar.cached_by_tag

    def test_reset_clears_tag_hits(self):
        counter = QueryCounter()
        counter.record(cached=True, tag="t")
        counter.reset()
        assert counter.cached_by_tag == {}
        assert counter.hit_rate == 0.0
