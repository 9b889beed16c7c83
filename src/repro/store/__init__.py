"""Persistent crowd-answer warehouse: cross-session dedup and vote aggregation.

Crowd queries are the scarce resource in every algorithm this library
reproduces, yet without this package answers die with the oracle instance —
the in-memory caches in :mod:`repro.oracles` and the per-session budgets in
:mod:`repro.service` share nothing across sessions or runs.  The warehouse
makes answers durable and shared:

* :class:`~repro.store.warehouse.AnswerStore` — a warehouse sharded by key
  hash into independent WAL+snapshot segments (format v2, versioned; a
  directory of the retired format v1 is refused), holding a multiset of
  noisy votes per canonical query key and answering by majority once a
  configurable replication factor is reached.  Appends group-commit (K appends inside
  the commit window share one fsync), warm reads come from an in-memory
  index that never touches disk, and per-shard advisory locks let several
  processes write disjoint shards of one store concurrently.  Repeated
  queries are not just deduplicated: with ``replication > 1`` they
  *reduce* effective noise.
* :class:`~repro.store.oracle.StoredComparisonOracle` /
  :class:`~repro.store.oracle.StoredQuadrupletOracle` — drop-in oracle
  wrappers that consult the warehouse first and charge their
  :class:`~repro.oracles.counting.QueryCounter` only on true misses.  A cold
  store is bit-identical to the direct oracle path on seeded runs; a warm
  store turns repeat traffic into cache hits.
* Integration with :class:`~repro.service.core.CrowdOracleService`
  (``store=`` parameter): concurrent sessions share one warehouse, and each
  session's counter records its own hit/miss/charged split.
* ``python -m repro.store`` — ``stats`` / ``compact`` / ``clean``
  maintenance CLI.

Vote semantics, knobs and the multi-writer contract:
``docs/subsystems/store.md``.  Byte-level on-disk format:
``docs/subsystems/store-format.md`` (mirrored by
:mod:`repro.store.format`).
"""

from repro.store.format import DEFAULT_N_SHARDS, STORE_FORMAT_VERSION, shard_of
from repro.store.keys import (
    QUADRUPLET_INT64_MAX_N,
    comparison_codes,
    comparison_key,
    comparison_keys,
    quadruplet_key,
    quadruplet_keys,
)
from repro.store.oracle import StoredComparisonOracle, StoredQuadrupletOracle
from repro.store.shard import GroupCommitPolicy, StoreShard
from repro.store.warehouse import AnswerStore, majority_readout

__all__ = [
    "AnswerStore",
    "DEFAULT_N_SHARDS",
    "GroupCommitPolicy",
    "majority_readout",
    "shard_of",
    "STORE_FORMAT_VERSION",
    "StoredComparisonOracle",
    "StoredQuadrupletOracle",
    "StoreShard",
    "QUADRUPLET_INT64_MAX_N",
    "comparison_codes",
    "comparison_key",
    "comparison_keys",
    "quadruplet_key",
    "quadruplet_keys",
]
