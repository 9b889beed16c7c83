"""Property-based tests (hypothesis) on core invariants of the library."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.evaluation.fscore import pairwise_fscore, pairwise_precision_recall
from repro.hierarchical import exact_linkage
from repro.kcenter import greedy_kcenter_exact, kcenter_objective
from repro.maximum import count_max, count_min, max_adversarial, tournament_max
from repro.maximum.ranking import rank_of
from repro.metric.space import PointCloudSpace, ValueSpace
from repro.oracles import (
    AdversarialNoise,
    ExactNoise,
    ProbabilisticNoise,
    ValueComparisonOracle,
)
from repro.oracles.base import _SMALL_BATCH
from repro.oracles.counting import QueryCounter
from repro.oracles.keys import (
    QUADRUPLET_INT64_MAX_N,
    comparison_key,
    comparison_keys,
    quadruplet_key,
    quadruplet_keys,
)
from repro.oracles.quadruplet import DistanceQuadrupletOracle
from repro.store import AnswerStore, StoredComparisonOracle, StoredQuadrupletOracle

settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=25
)
settings.load_profile("repro")

finite_floats = st.floats(
    min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(finite_floats, min_size=1, max_size=40)


@given(values=value_lists)
def test_count_max_exact_oracle_always_finds_argmax(values):
    oracle = ValueComparisonOracle(values, noise=ExactNoise())
    winner = count_max(list(range(len(values))), oracle, seed=0)
    assert values[winner] == pytest.approx(max(values))


@given(values=value_lists)
def test_count_min_exact_oracle_always_finds_argmin(values):
    oracle = ValueComparisonOracle(values, noise=ExactNoise())
    winner = count_min(list(range(len(values))), oracle, seed=0)
    assert values[winner] == pytest.approx(min(values))


@given(values=value_lists, degree=st.integers(min_value=2, max_value=5))
def test_tournament_exact_oracle_finds_maximum(values, degree):
    oracle = ValueComparisonOracle(values, noise=ExactNoise())
    winner = tournament_max(list(range(len(values))), oracle, degree=degree, seed=0)
    assert values[winner] == pytest.approx(max(values))


@given(values=st.lists(finite_floats, min_size=3, max_size=40), mu=st.floats(0.0, 1.5))
def test_count_max_respects_lemma_3_1_bound(values, mu):
    oracle = ValueComparisonOracle(values, noise=AdversarialNoise(mu=mu, adversary="lie"))
    winner = count_max(list(range(len(values))), oracle, seed=0)
    assert values[winner] >= max(values) / (1 + mu) ** 2 - 1e-9


@given(values=st.lists(finite_floats, min_size=3, max_size=60), mu=st.floats(0.0, 1.0))
def test_max_adversarial_never_returns_item_outside_input(values, mu):
    oracle = ValueComparisonOracle(values, noise=AdversarialNoise(mu=mu, adversary="lie"))
    items = list(range(len(values)))
    winner = max_adversarial(items, oracle, seed=0)
    assert winner in items


@given(
    values=st.lists(finite_floats, min_size=2, max_size=40, unique=True),
    p=st.floats(0.0, 0.45),
)
def test_comparison_oracle_antisymmetry_under_any_noise(values, p):
    oracle = ValueComparisonOracle(values, noise=ProbabilisticNoise(p=p, seed=0))
    for i in range(0, len(values), 3):
        for j in range(1, len(values), 4):
            if i == j:
                continue
            assert oracle.compare(i, j) == (not oracle.compare(j, i))


@given(values=st.lists(finite_floats, min_size=1, max_size=30, unique=True))
def test_rank_of_is_a_permutation(values):
    ranks = sorted(rank_of(values, i) for i in range(len(values)))
    assert ranks == list(range(1, len(values) + 1))


@st.composite
def point_clouds(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    dim = draw(st.integers(min_value=1, max_value=3))
    coords = draw(
        st.lists(
            st.lists(
                st.floats(-100, 100, allow_nan=False, allow_infinity=False),
                min_size=dim,
                max_size=dim,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return PointCloudSpace(np.asarray(coords))


@given(space=point_clouds())
def test_point_cloud_satisfies_metric_axioms(space):
    n = len(space)
    for i in range(min(n, 6)):
        assert space.distance(i, i) == pytest.approx(0.0)
        for j in range(min(n, 6)):
            d_ij = space.distance(i, j)
            assert d_ij >= 0
            assert d_ij == pytest.approx(space.distance(j, i))
            for k in range(min(n, 4)):
                assert d_ij <= space.distance(i, k) + space.distance(k, j) + 1e-6


@given(space=point_clouds(), k=st.integers(min_value=1, max_value=5))
def test_greedy_kcenter_invariants(space, k):
    k = min(k, len(space))
    result = greedy_kcenter_exact(space, k=k, seed=0)
    # Centers are distinct points, every point is assigned, objective is the
    # max distance to the assigned center and never negative.
    assert len(set(result.centers)) == len(result.centers)
    assert set(result.assignment) == set(range(len(space)))
    assert kcenter_objective(space, result) >= 0.0
    for c in result.centers:
        assert result.assignment[c] == c


@given(space=point_clouds())
def test_exact_single_linkage_merge_distances_monotone(space):
    den = exact_linkage(space, linkage="single")
    distances = den.true_merge_distances()
    assert all(b >= a - 1e-9 for a, b in zip(distances, distances[1:]))
    assert den.is_complete


@given(
    labels=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30)
)
def test_fscore_perfect_on_identical_labelings(labels):
    assert pairwise_fscore(labels, labels) == pytest.approx(1.0)


@given(
    predicted=st.lists(st.integers(0, 3), min_size=2, max_size=25),
    truth_seed=st.integers(0, 100),
)
def test_fscore_bounded_between_zero_and_one(predicted, truth_seed):
    rng = np.random.default_rng(truth_seed)
    truth = rng.integers(0, 3, size=len(predicted))
    precision, recall = pairwise_precision_recall(predicted, truth)
    score = pairwise_fscore(predicted, truth)
    assert 0.0 <= precision <= 1.0
    assert 0.0 <= recall <= 1.0
    assert 0.0 <= score <= 1.0


@given(values=st.lists(finite_floats, min_size=1, max_size=30, unique=True))
def test_value_space_rank_and_argmax_consistent(values):
    space = ValueSpace(values)
    assert space.rank_of(space.argmax()) == 1
    assert space.rank_of(space.argmin()) == len(values)


# -- query keys (repro.oracles.keys) -----------------------------------------

#: Record-count ranges on either side of the int64 bound of quadruplet codes.
KEY_N_RANGES = {
    "int64": (2, QUADRUPLET_INT64_MAX_N),
    "object": (QUADRUPLET_INT64_MAX_N + 1, 2**40),
}


@st.composite
def quadruplet_batches(draw, n_range):
    """``(n, queries)``: indices drawn from a small pool so repeats are common."""
    n = draw(st.integers(*n_range))
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    index = st.sampled_from(pool)
    queries = draw(st.lists(st.tuples(index, index, index, index), min_size=1, max_size=12))
    return n, queries


def _quadruplet_arrays(queries):
    return [np.array(column, dtype=np.int64) for column in zip(*queries)]


def _canonical_form(a, b, c, d):
    return tuple(sorted([tuple(sorted((a, b))), tuple(sorted((c, d)))]))


@pytest.mark.parametrize("n_range", KEY_N_RANGES.values(), ids=KEY_N_RANGES)
@given(data=st.data())
def test_scalar_and_vectorised_query_keys_agree(n_range, data):
    n, queries = data.draw(quadruplet_batches(n_range))
    codes, flipped, trivial, *canonical = quadruplet_keys(*_quadruplet_arrays(queries), n)
    code_list = codes.tolist()
    for pos, query in enumerate(queries):
        key = quadruplet_key(*query, n)
        assert trivial[pos] == (key is None)
        if key is not None:
            code, l1, l2, r1, r2, flip = key
            assert code_list[pos] == code and type(code_list[pos]) is int
            assert flipped[pos] == flip
            assert [int(arr[pos]) for arr in canonical] == [l1, l2, r1, r2]
    i, j = _quadruplet_arrays(queries)[:2]
    codes, flipped, trivial, lo, hi = comparison_keys(i, j, n)
    for pos, (x, y) in enumerate(zip(i.tolist(), j.tolist())):
        key = comparison_key(x, y, n)
        assert trivial[pos] == (key is None)
        if key is not None:
            assert (int(codes[pos]), int(lo[pos]), int(hi[pos]), bool(flipped[pos])) == key


@pytest.mark.parametrize("n_range", KEY_N_RANGES.values(), ids=KEY_N_RANGES)
@given(data=st.data())
def test_query_presentations_share_one_code(n_range, data):
    n, queries = data.draw(quadruplet_batches(n_range))
    for a, b, c, d in queries:
        key = quadruplet_key(a, b, c, d, n)
        if key is None:
            continue
        code, flip = key[0], key[-1]
        for same in ((b, a, c, d), (a, b, d, c), (b, a, d, c)):
            assert quadruplet_key(*same, n)[::5] == (code, flip)
        assert quadruplet_key(c, d, a, b, n)[::5] == (code, not flip)
        if a != b:
            forward, backward = comparison_key(a, b, n), comparison_key(b, a, n)
            assert forward[0] == backward[0] and forward[3] != backward[3]


@pytest.mark.parametrize("n_range", KEY_N_RANGES.values(), ids=KEY_N_RANGES)
@given(data=st.data())
def test_trivial_exactly_when_canonical_pairs_equal(n_range, data):
    n, queries = data.draw(quadruplet_batches(n_range))
    _, _, trivial, *_ = quadruplet_keys(*_quadruplet_arrays(queries), n)
    expected = [sorted((a, b)) == sorted((c, d)) for a, b, c, d in queries]
    assert trivial.tolist() == expected


@pytest.mark.parametrize("n_range", KEY_N_RANGES.values(), ids=KEY_N_RANGES)
@given(data=st.data())
def test_distinct_canonical_queries_get_distinct_codes(n_range, data):
    n, queries = data.draw(quadruplet_batches(n_range))
    codes, _, trivial, *_ = quadruplet_keys(*_quadruplet_arrays(queries), n)
    code_of = {}
    for query, code, skip in zip(queries, codes.tolist(), trivial.tolist()):
        if not skip:
            assert code_of.setdefault(_canonical_form(*query), code) == code
    assert len(set(code_of.values())) == len(code_of)
    pairs = {tuple(sorted(query[:2])) for query in queries if query[0] != query[1]}
    comparison_codes = {comparison_key(x, y, n)[0] for x, y in pairs}
    assert len(comparison_codes) == len(pairs)


@pytest.mark.parametrize("n_range", KEY_N_RANGES.values(), ids=KEY_N_RANGES)
@given(data=st.data())
def test_comparison_codes_negative_quadruplet_codes_non_negative(n_range, data):
    n, queries = data.draw(quadruplet_batches(n_range))
    a, b, c, d = _quadruplet_arrays(queries)
    codes, _, trivial, *_ = quadruplet_keys(a, b, c, d, n)
    assert all(code >= 0 for code in codes[~trivial].tolist())
    codes, _, trivial, *_ = comparison_keys(a, b, n)
    assert all(code < 0 for code in codes[~trivial].tolist())


# -- stored oracles: small-batch path against the vectorised rounds -----------

#: Record count of the stored-oracle properties: small, so queries repeat.
STORED_N = 8


@st.composite
def stored_batches(draw, kind):
    """``(warm, batch)``: query lists for a stored oracle of *kind*.

    Indices come from a pool of at most four records, so repeats and trivial
    queries are common; each query is presented reversed with probability
    one half.  *warm* (served first, on both sides alike) gives the store
    hits and, under replication, unresolved keys.
    """
    index = st.sampled_from(draw(st.lists(st.integers(0, STORED_N - 1), min_size=1, max_size=4)))
    arity = 2 if kind == "comparison" else 4
    drawn = draw(st.lists(st.tuples(*[index] * arity), min_size=1, max_size=_SMALL_BATCH))
    reverse = draw(st.lists(st.booleans(), min_size=len(drawn), max_size=len(drawn)))
    half = arity // 2
    batch = [q[half:] + q[:half] if flip else q for q, flip in zip(drawn, reverse)]
    warm = draw(st.lists(st.sampled_from(batch), max_size=8))
    return warm, batch


def _stored_oracle(kind, directory, replication):
    """A stored oracle over an un-memoised crowd whose votes are independent."""
    store = AnswerStore(directory, replication=replication, n_shards=2)
    noise = ProbabilisticNoise(p=0.3, seed=3, persistent=False)
    if kind == "comparison":
        inner = ValueComparisonOracle(
            np.linspace(1.0, 2.0, STORED_N), noise=noise, cache_answers=False
        )
        return StoredComparisonOracle(inner, store, counter=QueryCounter(), tag="t")
    space = PointCloudSpace(np.random.default_rng(1).normal(size=(STORED_N, 2)))
    inner = DistanceQuadrupletOracle(space, noise=noise, cache_answers=False)
    return StoredQuadrupletOracle(inner, store, counter=QueryCounter(), tag="t")


def _serve_through_codes(oracle, queries):
    """Serve *queries* through ``_serve_codes``, whatever the batch size."""
    columns = [np.array(column, dtype=np.int64) for column in zip(*queries)]
    if len(columns) == 2:
        codes, flipped, trivial, *canonical = comparison_keys(*columns, len(oracle))
    else:
        codes, flipped, trivial, *canonical = quadruplet_keys(*columns, len(oracle))
    return oracle._serve_codes(
        codes,
        flipped,
        trivial,
        lambda pos: oracle.inner.compare_batch(*(column[pos] for column in canonical)),
        oracle.counter,
        oracle.tag,
    )


def _serve_stored_both_ways(kind, replication, warm, batch, small):
    """Everything the batch leaves behind, served on the small path or not."""
    with tempfile.TemporaryDirectory() as directory:
        oracle = _stored_oracle(kind, directory, replication)
        if warm:
            _serve_through_codes(oracle, warm)
        registry, _ = obs.enable()
        try:
            if small:
                answers = oracle.compare_batch(*(np.array(c) for c in zip(*batch)))
            else:
                answers = _serve_through_codes(oracle, batch)
        finally:
            obs.disable()
        counters = registry.snapshot()["counters"]
        store = oracle.store
        store.close()
        wal = {
            str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(Path(directory).rglob("*.log"))
        }
        return {
            "answers": answers.tolist(),
            "counter": oracle.counter.snapshot(),
            "inner_counter": oracle.inner.counter.snapshot(),
            "votes": sorted(store.iter_votes()),
            "wal": wal,
            "lookups": [counters.get(f"store.lookup_{k}") for k in ("hits", "misses")],
        }


@pytest.mark.parametrize("replication", [1, 3])
@pytest.mark.parametrize("kind", ["comparison", "quadruplet"])
@given(data=st.data())
def test_stored_small_path_matches_vectorised_rounds(kind, replication, data):
    warm, batch = data.draw(stored_batches(kind))
    small = _serve_stored_both_ways(kind, replication, warm, batch, small=True)
    rounds = _serve_stored_both_ways(kind, replication, warm, batch, small=False)
    assert small == rounds
