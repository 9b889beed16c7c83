"""The sharded crowd-answer warehouse: shard routing, read index, durability.

:class:`AnswerStore` keeps, for every canonical query key (the int codes
of :mod:`repro.oracles.keys`, one int64 each, which bounds stored
quadruplet oracles to 55,108 records), a multiset of noisy Yes/No
answers — the *votes* — durably on disk in **format v2**
(:mod:`repro.store.format`):

* ``manifest.json`` pins the format version, the shard count and the record
  count the codes are computed against.  Its presence is what makes a
  directory a v2 store; a directory holding the retired flat v1 files
  (``wal.jsonl`` / ``snapshot.json``) instead is refused on open.
* ``shards/<id>/`` holds one :class:`~repro.store.shard.StoreShard` per
  shard: an append-only WAL plus a compacted snapshot.  Keys route to shards
  by ``code % n_shards``, and shards are fully independent — separate
  files, separate advisory writer locks, separate group-commit clocks — so
  several *processes* can write disjoint shards of one store concurrently.

Reads are served from a warehouse-level in-memory index mapping every
*resolved* code to its majority answer, maintained incrementally as votes
arrive: a warm :meth:`lookup_batch` is one dict probe per key and never
touches disk.  Appends are framed and written per shard in one ``write``
call and made durable under a group-commit policy (K appends inside the
commit window share one ``fsync``; see
:class:`~repro.store.shard.GroupCommitPolicy`).

Readout is *vote aggregation*, not plain memoisation: a key only serves an
answer once it holds at least ``replication`` votes with a strict majority
(optionally a ``confidence`` fraction of the votes).  With
``replication=1`` (the default) the store behaves as a cross-session dedup
cache; with ``replication=r > 1`` it re-asks each query until *r* votes
accumulate and then answers by majority, so independent noisy answers
*reduce* the effective error rate instead of merely being reused.

The byte-level layout lives in ``docs/subsystems/store-format.md``; the
operational guide (knobs, multi-writer contract) in
``docs/subsystems/store.md``.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.exceptions import InvalidParameterError, StoreError
from repro.storage import write_file_atomic
from repro.store import format as fmt
from repro.store.shard import GroupCommitPolicy, StoreShard

DEFAULT_N_SHARDS = fmt.DEFAULT_N_SHARDS


def majority_readout(
    yes: int, no: int, replication: int = 1, confidence: float = 0.0
) -> Optional[bool]:
    """Aggregate one key's votes into an answer, or ``None`` when unresolved.

    Resolved means: at least *replication* votes, a strict majority (ties
    never resolve — another vote is needed), and the majority fraction is at
    least *confidence* (``0.0`` disables the threshold; ``2/3`` would demand
    a two-thirds majority however many votes there are).
    """
    total = yes + no
    if total < replication or yes == no:
        return None
    if confidence > 0.0 and max(yes, no) / total < confidence:
        return None
    return yes > no


class AnswerStore:
    """Durable, shared, sharded warehouse of noisy crowd answers.

    Parameters
    ----------
    directory:
        Store directory.  One directory is one warehouse; concurrent
        *sessions* of one process share an instance, successive runs share
        the directory, and concurrent *processes* may write simultaneously
        as long as they touch disjoint shards — each shard carries its own
        advisory writer lock, and contention on one shard raises
        :class:`~repro.exceptions.StoreError` instead of losing votes.
        Opening creates the directory and its ``manifest.json`` if absent
        (create the store *before* spawning concurrent writers, so they
        agree on the shard count).  A directory that holds a store of the
        retired format v1 raises :class:`~repro.exceptions.StoreError`.
    replication:
        Votes required before a key serves answers (see
        :func:`majority_readout`).  ``1`` = pure dedup.
    confidence:
        Optional majority fraction a resolved key must reach, in ``[0, 1]``.
    compact_every:
        Appended votes per shard between automatic compactions of that
        shard; ``0`` disables auto-compaction (explicit :meth:`compact`
        still works).
    n_records:
        Record count the query codes are computed against.  Usually pinned
        lazily by the first :class:`~repro.store.oracle.StoredOracle` that
        attaches; a mismatch with the on-disk value raises
        :class:`~repro.exceptions.StoreError`.
    n_shards:
        Shard count for a store created by this open; an
        existing v2 store's manifest wins, and passing a conflicting value
        raises :class:`~repro.exceptions.StoreError`.  ``None`` defers to
        the manifest or, for new stores, to :data:`DEFAULT_N_SHARDS`.
    sync:
        Durability policy: ``"group"`` (default — fsyncs batched inside
        *group_commit_window*), ``"always"`` (fsync every append batch) or
        ``"none"`` (leave durability to the OS page cache).  See
        :class:`~repro.store.shard.GroupCommitPolicy`.
    group_commit_window:
        Group-commit window in seconds (only meaningful with
        ``sync="group"``).
    """

    def __init__(
        self,
        directory: os.PathLike | str,
        replication: int = 1,
        confidence: float = 0.0,
        compact_every: int = 100_000,
        n_records: Optional[int] = None,
        n_shards: Optional[int] = None,
        sync: str = "group",
        group_commit_window: float = 0.005,
    ):
        if replication < 1:
            raise InvalidParameterError(
                f"replication must be at least 1, got {replication}"
            )
        if not 0.0 <= confidence <= 1.0:
            raise InvalidParameterError(
                f"confidence must be in [0, 1], got {confidence}"
            )
        if compact_every < 0:
            raise InvalidParameterError(
                f"compact_every must be non-negative, got {compact_every}"
            )
        if n_shards is not None and n_shards < 1:
            raise InvalidParameterError(
                f"n_shards must be at least 1, got {n_shards}"
            )
        try:
            self.policy = GroupCommitPolicy(mode=sync, window=float(group_commit_window))
        except ValueError as error:
            raise InvalidParameterError(str(error)) from error
        self.directory = Path(directory)
        self.replication = int(replication)
        self.confidence = float(confidence)
        self.compact_every = int(compact_every)
        self.n_records: Optional[int] = int(n_records) if n_records is not None else None
        self._requested_shards = int(n_shards) if n_shards is not None else None
        self.n_shards = 0  # set by _open
        self._shards: List[StoreShard] = []
        #: The read index: every *resolved* code -> its majority answer.
        #: Warm lookups are one dict probe here; unresolved and unseen keys
        #: are simply absent.
        self._resolved: Dict[int, bool] = {}
        self._n_votes = 0
        self._manifest_written = False
        self._open()

    # -- paths ----------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """Path of the store manifest (presence of which marks a v2 store)."""
        return fmt.manifest_path(self.directory)

    def shard_of(self, code: int) -> int:
        """Shard id owning *code* under this store's shard count."""
        return fmt.shard_of(int(code), self.n_shards)

    # -- opening ----------------------------------------------------------------

    def _open(self) -> None:
        with obs.span("store.open", subsystem="store"), obs.timer("store.open_seconds"):
            self._open_inner()

    def _open_inner(self) -> None:
        manifest = self.manifest_path
        if not manifest.exists() and fmt.is_v1_layout(self.directory):
            # Checked before anything is written: opening a v1 directory as
            # a fresh store would hide its votes behind an empty v2 one.
            raise StoreError(
                f"{self.directory} holds a store of format version 1, which "
                f"is no longer read (this code reads version "
                f"{fmt.STORE_FORMAT_VERSION})"
            )
        if manifest.exists():
            disk_shards, disk_records = fmt.decode_manifest(
                manifest.read_text(encoding="utf-8"), manifest
            )
            if self._requested_shards is not None and self._requested_shards != disk_shards:
                raise StoreError(
                    f"store at {self.directory} has {disk_shards} shard(s) but "
                    f"n_shards={self._requested_shards} was requested; the "
                    "shard count is fixed at creation (keys route by "
                    "code % n_shards, so resharding requires a new store)"
                )
            self.n_shards = disk_shards
            self._bind_n_records_value(disk_records, "the manifest")
        else:
            self.n_shards = self._requested_shards or fmt.DEFAULT_N_SHARDS
            self._write_manifest()
        self._manifest_written = True
        self._shards = [
            StoreShard(self.directory, shard, self.n_shards, self.policy)
            for shard in range(self.n_shards)
        ]
        for shard in self._shards:
            shard.load()
        self._rebuild_index()

    def _write_manifest(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        write_file_atomic(
            self.manifest_path, fmt.encode_manifest(self.n_shards, self.n_records) + "\n"
        )

    # -- record-count binding -------------------------------------------------

    def _bind_n_records_value(self, n: Any, source: str) -> None:
        if n is None:
            return
        n = int(n)
        if self.n_records is None:
            self.n_records = n
        elif self.n_records != n:
            raise StoreError(
                f"store at {self.directory} was written for n_records="
                f"{n} but {source} expects n_records={self.n_records}; "
                "query codes would collide across record counts"
            )

    def bind_n_records(self, n: int) -> None:
        """Pin the record count the stored codes are computed against.

        Called by every attaching :class:`~repro.store.oracle.StoredOracle`;
        the first caller fixes the value (persisted to the manifest), and
        later callers with a different *n* are rejected — their codes would
        silently collide with the stored ones.
        """
        before = self.n_records
        self._bind_n_records_value(int(n), "this oracle")
        if self.n_records != before:
            self._write_manifest()

    # -- read index ------------------------------------------------------------

    def _rebuild_index(self) -> None:
        self._resolved = {}
        self._n_votes = sum(self._index_shard(shard) for shard in self._shards)
        self._attach_read_index()

    def _attach_read_index(self) -> None:
        """Hand shards the resolved dict when readout is pure dedup.

        With ``replication=1`` and no confidence threshold, a shard can fold
        each appended vote into the read index in the same pass as the tally
        (see :attr:`StoreShard.read_index`).  Must be re-run whenever
        ``self._resolved`` is *reassigned* — the shards hold a reference.
        """
        pure_dedup = self.replication <= 1 and self.confidence <= 0.0
        index = self._resolved if pure_dedup else None
        for shard in self._shards:
            shard.read_index = index

    def _index_shard(self, shard: StoreShard) -> int:
        """Fold one shard's tallies into the read index; returns its vote count."""
        replication, confidence = self.replication, self.confidence
        resolved = self._resolved
        n_votes = 0
        for code, (yes, no) in shard.votes.items():
            n_votes += yes + no
            answer = majority_readout(yes, no, replication, confidence)
            if answer is not None:
                resolved[code] = answer
        return n_votes

    def _resync_shard(self, shard: StoreShard) -> None:
        """Rebuild the read index for one shard after a cross-process resync."""
        sid, n_shards = shard.shard, self.n_shards
        self._resolved = {
            code: answer
            for code, answer in self._resolved.items()
            if code % n_shards != sid
        }
        self._index_shard(shard)
        self._n_votes = sum(s.n_votes for s in self._shards)
        self._attach_read_index()  # _resolved was reassigned above
        shard.resynced = False

    # -- write path -----------------------------------------------------------

    def add_vote(self, code: int, answer: bool) -> None:
        """Append one vote durably and fold it into the read index."""
        self.add_votes([int(code)], [bool(answer)])

    def add_votes(self, codes: Iterable[int], answers: Iterable[bool]) -> None:
        """Append a batch of votes: one WAL write per touched shard.

        Votes route to shards by ``code % n_shards``; each shard's WAL lines
        land in a single ``write`` call *before* the read index updates, so a
        crash can lose votes but never invent them.  Durability follows the
        store's group-commit policy.  The first append to a shard takes its
        writer lock (held until :meth:`close`); if another process holds it,
        :class:`~repro.exceptions.StoreError` is raised and shards earlier in
        the batch keep what was already written.
        """
        # Normalise through numpy once: the append path is hot, and
        # ``tolist()`` turns a whole array into plain Python ints/bools in C
        # (keeping numpy scalar types out of the tallies and the WAL) where
        # a per-element ``int()`` loop would dominate the batch.
        codes_arr = np.asarray(codes, dtype=np.int64).reshape(-1)
        answers_arr = np.asarray(answers, dtype=bool).reshape(-1)
        if len(codes_arr) != len(answers_arr):
            raise InvalidParameterError(
                f"add_votes needs one answer per code, got {len(codes_arr)} "
                f"codes and {len(answers_arr)} answers"
            )
        if not len(codes_arr):
            return
        if not self._manifest_written:  # first write after clean()
            self._write_manifest()
            self._manifest_written = True
        n_shards = self.n_shards
        per_shard: List[Tuple[int, np.ndarray, np.ndarray]] = []
        if n_shards == 1:
            per_shard.append((0, codes_arr, answers_arr))
        elif len(codes_arr) == 1:
            # One vote (a served single query): route it without the sort.
            per_shard.append((int(codes_arr[0]) % n_shards, codes_arr, answers_arr))
        else:
            # Vectorised partition: stable sort by shard id, then slice —
            # no per-vote Python work (numpy ``%`` matches Python's sign
            # convention, so negative codes route like ``shard_of``).
            shard_ids = codes_arr % n_shards
            order = np.argsort(shard_ids, kind="stable")
            sorted_codes = codes_arr[order]
            sorted_answers = answers_arr[order]
            bounds = np.searchsorted(shard_ids[order], np.arange(n_shards + 1)).tolist()
            for sid in range(n_shards):
                start, end = bounds[sid], bounds[sid + 1]
                if start < end:
                    per_shard.append(
                        (sid, sorted_codes[start:end], sorted_answers[start:end])
                    )
        replication, confidence = self.replication, self.confidence
        for sid, shard_codes, shard_answers in per_shard:
            shard = self._shards[sid]
            shard.append(shard_codes, shard_answers)
            if shard.resynced:
                # Another (finished) writer moved this shard on disk; the
                # shard reloaded itself — rebuild our view of it wholesale.
                self._resync_shard(shard)
            elif shard.read_index is not None:
                # Pure dedup: the shard folded each vote into the read index
                # inside its tally loop already (see StoreShard.read_index).
                self._n_votes += len(shard_codes)
            else:
                self._n_votes += len(shard_codes)
                shard_votes = shard.votes
                resolved = self._resolved
                for code in shard_codes.tolist():
                    yes, no = shard_votes[code]
                    answer = majority_readout(yes, no, replication, confidence)
                    if answer is None:
                        resolved.pop(code, None)
                    else:
                        resolved[code] = answer
            if self.compact_every and shard.appends_since_compact >= self.compact_every:
                shard.compact()

    def flush(self) -> None:
        """Force the group-commit fsync of any unsynced appends, per shard."""
        for shard in self._shards:
            shard.sync()

    # -- read path ------------------------------------------------------------

    def votes(self, code: int) -> Tuple[int, int]:
        """The ``(yes, no)`` vote counts of one key (``(0, 0)`` when unseen)."""
        code = int(code)
        pair = self._shards[code % self.n_shards].votes.get(code)
        return (pair[0], pair[1]) if pair else (0, 0)

    def lookup(self, code: int) -> Optional[bool]:
        """Resolved canonical answer for *code*, or ``None`` when unresolved."""
        return self._resolved.get(int(code))

    def lookup_batch(
        self, codes: np.ndarray | List[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`lookup`: ``(resolved_mask, answers)`` arrays.

        *codes* is an integer array or a list of plain ints (the stored
        oracles' small-batch path passes lists).  One read-index probe per
        key — never touches disk, never recomputes a readout.  ``answers``
        is only meaningful where ``resolved_mask`` is true.
        """
        m = len(codes)
        index = self._resolved
        code_list = codes if isinstance(codes, list) else codes.tolist()
        # ``map`` keeps both probe loops at the C level: dict.__contains__
        # returns cached bool singletons, so neither pass allocates per key.
        hits = np.fromiter(map(index.__contains__, code_list), dtype=bool, count=m)
        n_hits = int(hits.sum())
        if n_hits == m:  # warm path: every key resolved
            answers = np.fromiter(map(index.__getitem__, code_list), dtype=bool, count=m)
            return hits, answers
        answers = np.zeros(m, dtype=bool)
        if n_hits:
            for pos in np.flatnonzero(hits).tolist():
                answers[pos] = index[code_list[pos]]
        return hits, answers

    def codes(self) -> Iterator[int]:
        """Iterate over every stored code (all shards)."""
        for shard in self._shards:
            yield from shard.votes

    def iter_votes(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate ``(code, yes, no)`` over every stored key (all shards)."""
        for shard in self._shards:
            for code, (yes, no) in shard.votes.items():
                yield code, yes, no

    # -- maintenance ----------------------------------------------------------

    def compact(self) -> Path:
        """Fold every shard's WAL into a fresh snapshot and truncate its log.

        Takes (and keeps) the writer lock of every shard, so it fails with
        :class:`~repro.exceptions.StoreError` if another process is writing
        any shard — quiesce writers before store-wide compaction.  Shards
        auto-compact individually during writes when ``compact_every`` is
        set.  Crash-safe per shard: the snapshot lands atomically and records
        ``last_seq``, so an interrupted compaction replays idempotently.
        """
        for shard in self._shards:
            shard.compact()
        return self.directory

    def clean(self) -> int:
        """Delete the store's on-disk files; returns how many were removed.

        Stray top-level files of the retired v1 format beside the manifest
        go too: left behind, they would make the next open of the
        directory refuse it as a v1 store.
        """
        self.close()
        removed = 0
        for path in [self.manifest_path] + [
            self.directory / name for name in fmt.V1_FILE_NAMES
        ]:
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        shards_dir = self.directory / fmt.SHARDS_DIR_NAME
        if shards_dir.exists():
            for _, _, files in os.walk(shards_dir):
                removed += len(files)
            shutil.rmtree(shards_dir)
        self._shards = [
            StoreShard(self.directory, shard, self.n_shards, self.policy)
            for shard in range(self.n_shards)
        ]
        self._resolved = {}
        self._n_votes = 0
        self._attach_read_index()  # fresh shards, reassigned _resolved
        self._manifest_written = False  # rewritten by the next add_votes
        return removed

    def close(self) -> None:
        """Sync and release every shard's WAL handle (and writer lock).

        The store stays usable: the next append re-acquires the locks,
        re-syncing against anything other processes wrote in between.
        """
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "AnswerStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return sum(shard.n_keys for shard in self._shards)

    # -- observability --------------------------------------------------------

    @property
    def n_votes(self) -> int:
        """Total votes across all keys (O(1): maintained incrementally)."""
        return self._n_votes

    @property
    def n_resolved(self) -> int:
        """Keys currently able to serve an answer under the readout policy."""
        return len(self._resolved)

    def stats(self) -> Dict[str, Any]:
        """Plain-dict store statistics (the ``python -m repro.store stats`` payload)."""
        shard_rows = [shard.stats() for shard in self._shards]
        return {
            "directory": str(self.directory),
            "format": fmt.STORE_FORMAT_VERSION,
            "n_shards": self.n_shards,
            "n_records": self.n_records,
            "replication": self.replication,
            "confidence": self.confidence,
            "sync": self.policy.mode,
            "group_commit_window": self.policy.window,
            "n_keys": len(self),
            "n_votes": self.n_votes,
            "n_resolved": self.n_resolved,
            "n_appends": sum(row["n_appends"] for row in shard_rows),
            "n_fsyncs": sum(row["n_fsyncs"] for row in shard_rows),
            "wal_bytes": sum(row["wal_bytes"] for row in shard_rows),
            "snapshot_bytes": sum(row["snapshot_bytes"] for row in shard_rows),
            "disk_bytes": sum(row["disk_bytes"] for row in shard_rows),
            "shards": shard_rows,
        }
