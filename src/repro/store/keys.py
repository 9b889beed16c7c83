"""The warehouse's query keys: re-exports of :mod:`repro.oracles.keys`.

The warehouse keys every stored answer by the canonical integer code the
concrete oracles use for their answer memos and noise persistence, so a
cold store is bit-identical to the direct oracle path.  The codec lives in
:mod:`repro.oracles.keys`; this module keeps the warehouse's import path.
Stored codes are one int64 each, so stored quadruplet oracles serve at most
:data:`~repro.oracles.keys.QUADRUPLET_INT64_MAX_N` (55,108) records.
"""

from repro.oracles.keys import (
    QUADRUPLET_INT64_MAX_N,
    canonical_quadruplets,
    comparison_codes,
    comparison_key,
    comparison_keys,
    quadruplet_key,
    quadruplet_keys,
)

__all__ = [
    "QUADRUPLET_INT64_MAX_N",
    "canonical_quadruplets",
    "comparison_codes",
    "comparison_key",
    "comparison_keys",
    "quadruplet_key",
    "quadruplet_keys",
]
