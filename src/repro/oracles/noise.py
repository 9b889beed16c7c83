"""Noise models applied to comparison answers.

A noise model decides, for one comparison of two non-negative ground-truth
quantities ``left`` and ``right``, whether the oracle answers Yes
(``left <= right``) or No.  The three models mirror Section 2.2 of the paper:

* :class:`ExactNoise` — always correct (``mu = 0`` / ``p = 0``).
* :class:`AdversarialNoise` — correct whenever the two quantities differ by
  more than a ``(1 + mu)`` multiplicative factor; inside that band the answer
  is produced by a configurable adversary (worst-case "always lie" by
  default).
* :class:`ProbabilisticNoise` — each *distinct* query is flipped with
  probability ``p`` and the (possibly wrong) answer persists: repeating the
  query returns the same answer.

Persistence is keyed on a canonical form of the query supplied by the caller,
so asking ``O(a, b, c, d)`` and the symmetric ``O(c, d, a, b)`` give
consistent answers.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.rng import SeedLike, ensure_rng


def _check_batch_lengths(left, right, keys) -> tuple:
    """Validate one ``answer_batch`` call; returns (left, right) as float arrays.

    Every implementation — base loop and vectorised overrides alike — must
    reject length mismatches: the base loop's ``zip`` would otherwise
    silently truncate to the shortest input (historically, a *keys* array
    shorter than the quantities dropped the tail queries without a trace),
    and the vectorised paths would broadcast or mis-persist.  Empty batches
    are valid and answer with an empty array.
    """
    left = np.asarray(left, dtype=float).reshape(-1)
    right = np.asarray(right, dtype=float).reshape(-1)
    n_keys = len(keys)
    if not (len(left) == len(right) == n_keys):
        raise InvalidParameterError(
            "answer_batch inputs must have equal lengths, got "
            f"left={len(left)}, right={len(right)}, keys={n_keys}"
        )
    return left, right


class NoiseModel:
    """Base class for noise models.

    Subclasses implement :meth:`answer`, which receives the two ground-truth
    quantities being compared and a hashable *key* identifying the query (for
    persistence), and returns the oracle's Yes/No answer as a bool
    (``True`` = Yes = "left <= right").
    """

    def answer(self, left: float, right: float, key: Hashable) -> bool:
        raise NotImplementedError

    def answer_batch(
        self,
        left: Sequence[float],
        right: Sequence[float],
        keys: Sequence[Hashable],
    ) -> np.ndarray:
        """Answer many comparisons at once, returning a boolean array.

        The contract mirrors :meth:`answer` elementwise: calling
        ``answer_batch(left, right, keys)`` must produce exactly the answers
        (and, for persistent models, exactly the internal random draws, in
        the same order) that a loop of scalar ``answer`` calls over the same
        queries would produce.  The base implementation is that loop;
        subclasses override it with vectorised versions.  Mismatched input
        lengths raise :class:`~repro.exceptions.InvalidParameterError` on
        every implementation.
        """
        left, right = _check_batch_lengths(left, right, keys)
        return np.fromiter(
            (self.answer(float(lo), float(hi), k) for lo, hi, k in zip(left, right, keys)),
            dtype=bool,
            count=len(left),
        )

    def reset(self) -> None:
        """Forget any persisted answers (a fresh crowd, so to speak)."""

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def _true_answer(left: float, right: float) -> bool:
        return left <= right


class ExactNoise(NoiseModel):
    """A perfect oracle: every answer is correct."""

    def answer(self, left: float, right: float, key: Hashable) -> bool:
        return self._true_answer(left, right)

    def answer_batch(self, left, right, keys) -> np.ndarray:
        left, right = _check_batch_lengths(left, right, keys)
        return left <= right

    def __repr__(self) -> str:
        return "ExactNoise()"


class AdversarialNoise(NoiseModel):
    """Adversarial noise within a multiplicative ``(1 + mu)`` confusion band.

    When ``max(left, right) / min(left, right) <= 1 + mu`` the answer may be
    adversarially wrong; otherwise it is correct.  The adversary strategy is
    configurable:

    * ``"lie"`` (default) — always return the wrong answer inside the band,
      the worst case the paper's guarantees are proved against.
    * ``"random"`` — flip a fair coin inside the band (persisted per query).
    * a callable ``(left, right, key) -> bool`` — custom adversary; its return
      value is used verbatim as the oracle answer inside the band.

    Zero distances are treated as confusable with every other value that is
    also within an additive ``zero_band`` of zero (two identical points are
    always confusable with each other).
    """

    def __init__(
        self,
        mu: float,
        adversary: str | Callable[[float, float, Hashable], bool] = "lie",
        seed: SeedLike = None,
        zero_band: float = 0.0,
    ):
        if mu < 0:
            raise InvalidParameterError(f"mu must be non-negative, got {mu}")
        self.mu = float(mu)
        self.zero_band = float(zero_band)
        self._rng = ensure_rng(seed)
        self._persisted: Dict[Hashable, bool] = {}
        if isinstance(adversary, str):
            if adversary not in ("lie", "random"):
                raise InvalidParameterError(
                    f"adversary must be 'lie', 'random' or a callable, got {adversary!r}"
                )
        elif not callable(adversary):
            raise InvalidParameterError("adversary must be a string or a callable")
        self.adversary = adversary

    def in_confusion_band(self, left: float, right: float) -> bool:
        """True when the adversary is allowed to answer this query arbitrarily."""
        lo, hi = (left, right) if left <= right else (right, left)
        if lo < 0 or hi < 0:
            raise InvalidParameterError("compared quantities must be non-negative")
        if lo == 0.0:
            return hi <= self.zero_band or hi == 0.0
        return hi / lo <= 1.0 + self.mu

    def answer(self, left: float, right: float, key: Hashable) -> bool:
        if not self.in_confusion_band(left, right):
            return self._true_answer(left, right)
        if callable(self.adversary):
            return bool(self.adversary(left, right, key))
        if self.adversary == "lie":
            return not self._true_answer(left, right)
        # "random": persist the coin flip so repeated queries are consistent.
        if key not in self._persisted:
            self._persisted[key] = bool(self._rng.random() < 0.5)
        return self._persisted[key]

    def answer_batch(self, left, right, keys) -> np.ndarray:
        # Only the deterministic "lie" adversary vectorises; the "random" and
        # callable adversaries keep per-query state / arbitrary code and fall
        # back to the scalar loop, preserving draw order.
        if self.adversary != "lie":
            return super().answer_batch(left, right, keys)
        left, right = _check_batch_lengths(left, right, keys)
        lo = np.minimum(left, right)
        hi = np.maximum(left, right)
        if np.any(lo < 0):
            raise InvalidParameterError("compared quantities must be non-negative")
        in_band = np.zeros(len(lo), dtype=bool)
        zero = lo == 0.0
        in_band[zero] = (hi[zero] <= self.zero_band) | (hi[zero] == 0.0)
        nz = ~zero
        # Same expression as the scalar in_confusion_band, elementwise.
        in_band[nz] = hi[nz] / lo[nz] <= 1.0 + self.mu
        truth = left <= right
        return np.where(in_band, ~truth, truth)

    def reset(self) -> None:
        self._persisted.clear()

    def __repr__(self) -> str:
        name = self.adversary if isinstance(self.adversary, str) else "custom"
        return f"AdversarialNoise(mu={self.mu}, adversary={name!r})"


class ProbabilisticNoise(NoiseModel):
    """Persistent probabilistic noise: each distinct query is wrong with probability *p*.

    The answer to a query is drawn once, the first time the query is seen,
    and persisted for the lifetime of the model (or until :meth:`reset`),
    matching the persistent-error model of the paper where repetition cannot
    boost the success probability.

    Parameters
    ----------
    p:
        Error probability, must satisfy ``0 <= p < 0.5``.
    seed:
        Seed for the flip decisions.
    persistent:
        When false, every call re-flips independently.  This departs from the
        paper's model and exists only so experiments can contrast persistent
        and independent errors.
    """

    def __init__(self, p: float, seed: SeedLike = None, persistent: bool = True):
        if not 0.0 <= p < 0.5:
            raise InvalidParameterError(f"p must be in [0, 0.5), got {p}")
        self.p = float(p)
        self.persistent = bool(persistent)
        self._rng = ensure_rng(seed)
        self._persisted: Dict[Hashable, bool] = {}
        # Large batches persist their drawn answers in sorted parallel arrays
        # instead of the dict: vectorised membership (searchsorted) and
        # O(1)-per-answer storage keep them free of per-key Python dict
        # traffic, while small batches (below _ARRAY_TIER_MIN new keys) go to
        # the dict to avoid re-merging the array store per round.
        self._batch_codes: Optional[np.ndarray] = None
        self._batch_answers: Optional[np.ndarray] = None

    #: Minimum number of new keys in one batch for the array-backed store.
    _ARRAY_TIER_MIN = 4096

    def _batch_lookup(self, key: int) -> Optional[bool]:
        """Scalar lookup into the array-backed store (None when absent)."""
        codes = self._batch_codes
        if codes is None or not len(codes):
            return None
        pos = int(codes.searchsorted(key))
        if pos < len(codes) and codes.item(pos) == key:
            return bool(self._batch_answers.item(pos))
        return None

    def answer(self, left: float, right: float, key: Hashable) -> bool:
        truth = left <= right
        if not self.persistent:
            return truth ^ (self._rng.random() < self.p)
        persisted = self._persisted
        if key in persisted:
            return persisted[key]
        if self._batch_codes is not None and isinstance(key, (int, np.integer)):
            stored = self._batch_lookup(int(key))
            if stored is not None:
                return stored
        answer = persisted[key] = truth ^ (self._rng.random() < self.p)
        return answer

    def answer_batch(self, left, right, keys) -> np.ndarray:
        left, right = _check_batch_lengths(left, right, keys)
        truth = left <= right
        m = len(truth)
        if not self.persistent:
            flips = self._rng.random(m) < self.p
            return truth ^ flips
        # Unseen keys draw their flip in first-occurrence order, consuming
        # the generator stream exactly as the scalar loop would (one uniform
        # per new key); repeats — earlier calls or within this batch — reuse
        # the persisted answer.  Numeric key arrays (the oracle layer's
        # canonical codes) take a fully vectorised dedup path.
        persisted = self._persisted
        keys_arr = np.asarray(keys) if not isinstance(keys, np.ndarray) else keys
        if keys_arr.dtype.kind not in "iu":
            # Non-integer keys (floats would be silently truncated by the
            # int64 store; arbitrary hashables are not orderable) take an
            # order-preserving scalar dedup instead.
            keys = list(keys)
            new_positions: list[int] = []
            pending: set = set()
            for pos, key in enumerate(keys):
                if key not in persisted and key not in pending:
                    pending.add(key)
                    new_positions.append(pos)
            if new_positions:
                flips = self._rng.random(len(new_positions)) < self.p
                for pos, flip in zip(new_positions, flips):
                    persisted[keys[pos]] = bool(truth[pos]) ^ bool(flip)
            return np.fromiter((persisted[k] for k in keys), dtype=bool, count=m)

        keys_arr = keys_arr.astype(np.int64, copy=False)
        answers = np.empty(m, dtype=bool)
        known = np.zeros(m, dtype=bool)
        if persisted:
            key_list = keys_arr.tolist()
            dict_hits = np.fromiter(
                map(persisted.__contains__, key_list), dtype=bool, count=m
            )
            if dict_hits.any():
                hit_pos = np.nonzero(dict_hits)[0]
                answers[hit_pos] = np.fromiter(
                    (persisted[key_list[p]] for p in hit_pos),
                    dtype=bool,
                    count=len(hit_pos),
                )
                known |= dict_hits
        if self._batch_codes is not None and len(self._batch_codes):
            unknown = np.nonzero(~known)[0]
            idx = np.searchsorted(self._batch_codes, keys_arr[unknown])
            idx_c = np.minimum(idx, len(self._batch_codes) - 1)
            hits = self._batch_codes[idx_c] == keys_arr[unknown]
            hit_pos = unknown[hits]
            answers[hit_pos] = self._batch_answers[idx_c[hits]]
            known[hit_pos] = True
        new_pos = np.nonzero(~known)[0]
        if new_pos.size:
            # np.unique sorts by value; the draws themselves are made in
            # first-occurrence order so the generator stream matches the
            # scalar loop draw for draw.
            uniq, first_idx, inverse = np.unique(
                keys_arr[new_pos], return_index=True, return_inverse=True
            )
            order = np.argsort(first_idx, kind="stable")
            flips = np.empty(len(uniq), dtype=bool)
            flips[order] = self._rng.random(len(uniq)) < self.p
            ans_uniq = truth[new_pos[first_idx]] ^ flips
            answers[new_pos] = ans_uniq[inverse]
            if len(uniq) < self._ARRAY_TIER_MIN:
                # Small batches persist through the dict: a handful of C-level
                # inserts beats re-merging the (possibly huge) array store on
                # every one of thousands of small aggregation rounds.
                persisted.update(zip(uniq.tolist(), ans_uniq.tolist()))
            elif self._batch_codes is None or not len(self._batch_codes):
                self._batch_codes = uniq
                self._batch_answers = ans_uniq
            else:
                merged = np.concatenate([self._batch_codes, uniq])
                merge_order = np.argsort(merged, kind="stable")
                self._batch_codes = merged[merge_order]
                self._batch_answers = np.concatenate([self._batch_answers, ans_uniq])[
                    merge_order
                ]
        return answers

    def reset(self) -> None:
        self._persisted.clear()
        self._batch_codes = None
        self._batch_answers = None

    @property
    def n_persisted(self) -> int:
        """Number of distinct queries whose answers have been persisted."""
        n_batch = 0 if self._batch_codes is None else len(self._batch_codes)
        return len(self._persisted) + n_batch

    def __repr__(self) -> str:
        return f"ProbabilisticNoise(p={self.p}, persistent={self.persistent})"


class HashedProbabilisticNoise(NoiseModel):
    """Persistent probabilistic noise keyed by the query, not by arrival order.

    :class:`ProbabilisticNoise` draws its flips from one generator stream in
    *first-occurrence order*, so two instances with the same seed only agree
    when they see the distinct queries in the same order.  This model instead
    derives each flip from a stateless integer hash of ``(seed, key)``:
    any two instances with the same ``(p, seed)`` answer every query
    identically no matter how, or in what order, the queries arrive.

    That property is what differential testing needs — an incremental
    maintainer and a from-scratch batch recompute issue the same *set* of
    queries in very different orders, and both must face the same crowd.
    Requires integer keys (the oracle layer's canonical codes).

    Statistically each distinct query is still flipped independently with
    probability *p* and the flip persists forever, matching the paper's
    persistent-error model.
    """

    #: splitmix64 constants (Steele, Lea & Flood 2014).
    _GAMMA = np.uint64(0x9E3779B97F4A7C15)
    _MIX1 = np.uint64(0xBF58476D1CE4E5B9)
    _MIX2 = np.uint64(0x94D049BB133111EB)

    def __init__(self, p: float, seed: SeedLike = None):
        if not 0.0 <= p < 0.5:
            raise InvalidParameterError(f"p must be in [0, 0.5), got {p}")
        self.p = float(p)
        # Derive one 64-bit salt from the seed through the library's RNG
        # policy, so SeedLike values (None, int, Generator) all work.
        self.seed_salt = np.uint64(ensure_rng(seed).integers(0, 2**63, dtype=np.int64))
        self._threshold = np.uint64(int(self.p * float(2**64)))

    def _mix(self, codes: np.ndarray) -> np.ndarray:
        """splitmix64 finalizer over ``codes ^ salt`` (vectorised, wrapping)."""
        with np.errstate(over="ignore"):
            z = (codes ^ self.seed_salt) + self._GAMMA
            z = (z ^ (z >> np.uint64(30))) * self._MIX1
            z = (z ^ (z >> np.uint64(27))) * self._MIX2
            return z ^ (z >> np.uint64(31))

    def _flips(self, keys: np.ndarray) -> np.ndarray:
        codes = np.asarray(keys)
        if codes.dtype.kind not in "iu":
            raise InvalidParameterError(
                "HashedProbabilisticNoise requires integer query keys, got "
                f"dtype {codes.dtype}"
            )
        return self._mix(codes.astype(np.int64).view(np.uint64)) < self._threshold

    def answer(self, left: float, right: float, key: Hashable) -> bool:
        if not isinstance(key, (int, np.integer)):
            raise InvalidParameterError(
                f"HashedProbabilisticNoise requires integer query keys, got {key!r}"
            )
        truth = self._true_answer(left, right)
        return bool(truth ^ bool(self._flips(np.asarray([key]))[0]))

    def answer_batch(self, left, right, keys) -> np.ndarray:
        left, right = _check_batch_lengths(left, right, keys)
        truth = left <= right
        if not len(truth):
            return truth
        return truth ^ self._flips(keys)

    def reset(self) -> None:
        """A no-op: answers are a pure function of ``(p, seed, key)``."""

    def __repr__(self) -> str:
        return f"HashedProbabilisticNoise(p={self.p})"


def make_noise_model(
    kind: str,
    mu: float = 0.0,
    p: float = 0.0,
    seed: SeedLike = None,
    **kwargs,
) -> NoiseModel:
    """Factory used by experiment configs: ``kind`` is ``"exact"``, ``"adversarial"``, ``"probabilistic"`` or ``"hashed"``."""
    if kind == "exact":
        return ExactNoise()
    if kind == "adversarial":
        return AdversarialNoise(mu=mu, seed=seed, **kwargs)
    if kind == "probabilistic":
        return ProbabilisticNoise(p=p, seed=seed, **kwargs)
    if kind == "hashed":
        return HashedProbabilisticNoise(p=p, seed=seed, **kwargs)
    raise InvalidParameterError(
        f"unknown noise kind {kind!r}; expected 'exact', 'adversarial', "
        "'probabilistic' or 'hashed'"
    )
