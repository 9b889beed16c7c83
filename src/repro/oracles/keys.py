"""Canonical query keys: the one rule for what "the same query" is.

Under the persistent-noise model (Definitions 2.1 and 2.3) a query and its
re-presentations are one question with one persisted answer: ``O(i, j)``
and the negated ``O(j, i)``; ``O(a, b, c, d)``, ``O(b, a, d, c)`` and the
negated ``O(c, d, a, b)``.  This module canonicalises each query to one
representative and encodes it as an integer code.  The oracles' answer
memos, the noise models' persistence tables and the answer warehouse all
key answers by these codes, and nothing else computes them.

* **Comparison** ``(i, j)`` over *n* records: the sorted pair ``(lo, hi)``,
  *flipped* when ``i > j``, code ``-(lo * n + hi) - 1``.  *Trivial* (answered
  Yes for free, never asked or stored) when ``i == j``.
* **Quadruplet** ``(a, b, c, d)``: each pair sorted, the lexicographically
  smaller pair first as ``(L1, L2)`` and the other as ``(R1, R2)``, *flipped*
  when that swapped the two pairs, code ``((L1 * n + L2) * n + R1) * n + R2``.
  *Trivial* when both canonical pairs are the same pair.

A flipped query's answer is the negation of the canonical query's.
Comparison codes are negative and quadruplet codes non-negative, so one
noise model or one store can hold both kinds.  Codes depend on *n*: codes
computed against different record counts collide, which is why
:class:`~repro.store.warehouse.AnswerStore` pins ``n_records`` on first use.

Scalar codes are Python ints and exact at any *n*.  Vectorised codes are
int64 up to :data:`QUADRUPLET_INT64_MAX_N` records for quadruplets and
:data:`COMPARISON_INT64_MAX_N` records for comparisons, and exact Python
ints (object dtype) above those bounds.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Largest record count whose quadruplet codes fit one int64
#: (55,108**4 <= 2**63 - 1 < 55,109**4).
QUADRUPLET_INT64_MAX_N = 55_108

#: Largest record count whose comparison codes fit one int64
#: (3,037,000,499**2 <= 2**63 - 1 < 3,037,000,500**2).
COMPARISON_INT64_MAX_N = 3_037_000_499


def comparison_key(i: int, j: int, n: int) -> Optional[Tuple[int, int, int, bool]]:
    """``(code, lo, hi, flipped)`` of the comparison ``(i, j)``, or ``None`` if trivial."""
    if i < j:
        return -(i * n + j) - 1, i, j, False
    if i > j:
        return -(j * n + i) - 1, j, i, True
    return None


def quadruplet_key(
    a: int, b: int, c: int, d: int, n: int
) -> Optional[Tuple[int, int, int, int, int, bool]]:
    """``(code, L1, L2, R1, R2, flipped)`` of the quadruplet ``(a, b, c, d)``.

    ``None`` when the query is trivial.
    """
    l1, l2 = (a, b) if a <= b else (b, a)
    r1, r2 = (c, d) if c <= d else (d, c)
    if l1 == r1:
        if l2 == r2:
            return None
        if l2 > r2:
            return ((r1 * n + r2) * n + l1) * n + l2, r1, r2, l1, l2, True
    elif l1 > r1:
        return ((r1 * n + r2) * n + l1) * n + l2, r1, r2, l1, l2, True
    return ((l1 * n + l2) * n + r1) * n + r2, l1, l2, r1, r2, False


def comparison_keys(i: np.ndarray, j: np.ndarray, n: int) -> tuple:
    """Vectorised :func:`comparison_key`: ``(codes, flipped, trivial, lo, hi)``.

    Every array is aligned with the inputs; trivial positions carry a code
    too, which callers skip.  The codes are int64 for
    ``n <= COMPARISON_INT64_MAX_N`` and exact Python ints in an object array
    above it, like :func:`quadruplet_keys`.
    """
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    n = int(n)
    if n > COMPARISON_INT64_MAX_N:
        codes = -(lo.astype(object) * n + hi) - 1
    else:
        codes = -(lo * np.int64(n) + hi) - 1
    return codes, i > j, i == j, lo, hi


def canonical_quadruplets(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> tuple:
    """Canonical form of quadruplet queries: ``(flipped, trivial, L1, L2, R1, R2)``."""
    lp1, lp2 = np.minimum(a, b), np.maximum(a, b)
    rp1, rp2 = np.minimum(c, d), np.maximum(c, d)
    trivial = (lp1 == rp1) & (lp2 == rp2)
    flipped = (lp1 > rp1) | ((lp1 == rp1) & (lp2 > rp2))
    return (
        flipped,
        trivial,
        np.where(flipped, rp1, lp1),
        np.where(flipped, rp2, lp2),
        np.where(flipped, lp1, rp1),
        np.where(flipped, lp2, rp2),
    )


def quadruplet_keys(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, n: int) -> tuple:
    """Vectorised :func:`quadruplet_key`: ``(codes, flipped, trivial, L1, L2, R1, R2)``.

    The canonical index arrays stay int64.  The codes are int64 for
    ``n <= QUADRUPLET_INT64_MAX_N``; above it they are the same codes as
    exact Python ints in an object array, which hash and compare equal to
    the scalar codes, so only the key arithmetic slows down.
    """
    flipped, trivial, L1, L2, R1, R2 = canonical_quadruplets(a, b, c, d)
    n = int(n)
    if n > QUADRUPLET_INT64_MAX_N:
        codes = ((L1.astype(object) * n + L2) * n + R1) * n + R2
    else:
        n64 = np.int64(n)
        codes = ((L1 * n64 + L2) * n64 + R1) * n64 + R2
    return codes, flipped, trivial, L1, L2, R1, R2


def comparison_codes(i: np.ndarray, j: np.ndarray, n: int) -> tuple:
    """``(codes, flipped, trivial)`` of :func:`comparison_keys`."""
    return comparison_keys(i, j, n)[:3]
