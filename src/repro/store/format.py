"""On-disk format of the answer warehouse: layout, framing, versioning.

This module is the single source of truth for format **v2** — every byte
the store reads or writes is produced or parsed here, and the prose spec in
``docs/subsystems/store-format.md`` mirrors these functions section by
section.  Nothing in here touches locks, group commit or in-memory state;
that is :mod:`repro.store.shard` and :mod:`repro.store.warehouse`.

Format v2 in one picture::

    store-dir/
      manifest.json            # {"format": 2, "n_shards": K, "n_records": N}
      shards/
        0000/                  # shard ids zero-padded to 4 digits
          wal.log              # text header line + binary vote records
          snapshot.json        # compacted view of this shard
        0001/
          ...

* ``manifest.json`` and ``snapshot.json`` are UTF-8 JSON.  A shard WAL is
  *hybrid*: one UTF-8 JSON header line (ending at the first ``\\n``), then
  length-prefixed, CRC-checked **binary records** framed by the shared
  storage layer (:mod:`repro.storage.framing`) — see the framing comment
  above :func:`encode_votes`.
* A **vote** is a canonical signed integer query key, stored as one int64
  (the codec :mod:`repro.oracles.keys`; quadruplet codes fit one only for
  ``n_records <= 55,108``), plus a Yes/No answer; each WAL record carries
  one append batch of votes with consecutive sequence numbers, strictly
  increasing within the shard.
* Keys are routed to shards by ``code % n_shards`` (Python/NumPy modulo:
  the result is always in ``[0, n_shards)`` for negative codes too), so a
  key's shard is a pure function of the code and the manifest.
* The **manifest** is the v2 commitment point: a directory with a readable
  ``manifest.json`` is a v2 store.

Version history: v1 (a flat ``wal.jsonl`` plus ``snapshot.json`` at the top
level) is no longer read; :func:`is_v1_layout` recognises it so that opening
one is refused instead of creating an empty v2 store next to its votes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import StoreCorruptionError, StoreError
from repro.storage import framing

#: Current on-disk format.  Bump when the layout changes incompatibly.
STORE_FORMAT_VERSION = 2

#: Shard count used when a new store is created without an explicit choice.
DEFAULT_N_SHARDS = 8

#: File names.  The shard WAL is a binary log (text JSON header line, then
#: length-prefixed CRC-checked records).
MANIFEST_NAME = "manifest.json"
SHARDS_DIR_NAME = "shards"
WAL_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.json"

#: Top-level files of the retired v1 format (``snapshot.json`` at the top
#: level, not inside a shard directory).
V1_FILE_NAMES = ("wal.jsonl", SNAPSHOT_NAME)

#: Width of the zero-padded shard directory names (9999 shards max).
SHARD_ID_WIDTH = 4


# -- paths ---------------------------------------------------------------------


def manifest_path(directory: Path) -> Path:
    """Path of the store manifest (presence of which marks a v2 store)."""
    return directory / MANIFEST_NAME


def shard_dir(directory: Path, shard: int) -> Path:
    """Directory of one shard: ``<store>/shards/<zero-padded id>/``."""
    return directory / SHARDS_DIR_NAME / f"{shard:0{SHARD_ID_WIDTH}d}"


def shard_wal_path(directory: Path, shard: int) -> Path:
    """Path of one shard's write-ahead log."""
    return shard_dir(directory, shard) / WAL_NAME


def shard_snapshot_path(directory: Path, shard: int) -> Path:
    """Path of one shard's compacted snapshot."""
    return shard_dir(directory, shard) / SNAPSHOT_NAME


def is_v1_layout(directory: Path) -> bool:
    """Whether *directory* holds files of the retired v1 format at its top level."""
    return any((directory / name).exists() for name in V1_FILE_NAMES)


# -- shard routing -------------------------------------------------------------


def shard_of(code: int, n_shards: int) -> int:
    """Shard owning *code*: ``code % n_shards`` (non-negative for any sign).

    The vectorised equivalent is NumPy's ``codes % n_shards``, which follows
    the same sign-of-divisor semantics — the two must never diverge, or a
    key would be written to one shard and looked up in another.
    """
    return code % n_shards


# -- manifest ------------------------------------------------------------------


def encode_manifest(n_shards: int, n_records: Optional[int]) -> str:
    """Serialised ``manifest.json`` payload (sorted keys, one line)."""
    return json.dumps(
        {
            "format": STORE_FORMAT_VERSION,
            "n_shards": int(n_shards),
            "n_records": None if n_records is None else int(n_records),
        },
        sort_keys=True,
    )


def decode_manifest(raw: str, source: Path) -> Tuple[int, Optional[int]]:
    """Parse a manifest; returns ``(n_shards, n_records)``.

    An unknown ``format`` raises :class:`StoreError` (actionable: run a
    matching release); a structurally unreadable manifest raises
    :class:`StoreCorruptionError`.
    """
    try:
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("manifest is not an object")
    except (json.JSONDecodeError, ValueError) as error:
        raise StoreCorruptionError(f"manifest {source} is unreadable: {error}") from error
    version = payload.get("format")
    if version != STORE_FORMAT_VERSION:
        raise StoreError(
            f"{source} has format version {version!r}; this code reads version "
            f"{STORE_FORMAT_VERSION}"
        )
    try:
        n_shards = int(payload["n_shards"])
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
    except (KeyError, TypeError, ValueError) as error:
        raise StoreCorruptionError(f"manifest {source} is unreadable: {error}") from error
    n_records = payload.get("n_records")
    return n_shards, None if n_records is None else int(n_records)


# -- WAL framing ---------------------------------------------------------------


def encode_shard_header(shard: int, n_shards: int) -> str:
    """First line of a shard WAL (newline included).

    The header repeats the shard's own id and the store's shard count so a
    file moved between directories (or a shard directory renamed by hand) is
    detected instead of silently mis-attributing its votes.
    """
    return (
        json.dumps(
            {"format": STORE_FORMAT_VERSION, "shard": int(shard), "n_shards": int(n_shards)},
            sort_keys=True,
        )
        + "\n"
    )


def decode_shard_header(line: str, shard: int, n_shards: int, source: Path) -> None:
    """Validate a shard WAL header against its expected identity."""
    try:
        header = json.loads(line)
        if not isinstance(header, dict):
            raise ValueError("WAL header is not an object")
    except (json.JSONDecodeError, ValueError) as error:
        raise StoreCorruptionError(
            f"WAL {source} has an unreadable header: {error}"
        ) from error
    version = header.get("format")
    if version != STORE_FORMAT_VERSION:
        raise StoreError(
            f"{source} has format version {version!r}; this code reads version "
            f"{STORE_FORMAT_VERSION}"
        )
    if header.get("shard") != shard or header.get("n_shards") != n_shards:
        raise StoreCorruptionError(
            f"WAL {source} identifies as shard {header.get('shard')!r} of "
            f"{header.get('n_shards')!r} but lives at shard {shard} of "
            f"{n_shards} — shard files moved between stores?"
        )


#: Binary WAL record framing: the shared record framing of
#: :mod:`repro.storage.framing` (``u32 payload_length | payload |
#: u32 crc32(payload)``, everything little-endian) around a vote payload::
#:
#:   payload = u64 first_seq | u32 n_votes | n_votes x i64 codes
#:             | ceil(n_votes / 8) bytes of answers, packed MSB-first
#:
#: One record frames one *append batch* — every vote that shared one
#: ``write()`` call (and, under group commit, usually one fsync).  Votes
#: take consecutive sequence numbers starting at ``first_seq``.  Batch
#: framing plus binary encoding keeps the append path allocation-light
#: (one ``struct``/NumPy buffer per batch instead of a Python string per
#: vote), and the length prefix + checksum make torn and corrupt tails
#: distinguishable without guessing at text structure.  The framing moved
#: to :mod:`repro.storage` verbatim, so the bytes this module writes are
#: identical to the pre-extraction v2 files
#: (``tests/fixtures/store_v2_golden.json`` pins them).
_WAL_REC = struct.Struct("<QI")

#: The data ends before a whole record does (a torn write): the shared
#: framing's exception, re-exported under the store's historical name.
TruncatedWalRecord = framing.TruncatedRecord


def encode_votes(first_seq: int, codes: Sequence[int], answers: Sequence[bool]) -> bytes:
    """Serialise one WAL record (see the framing comment above)."""
    codes_arr = np.asarray(codes, dtype="<i8")
    answers_arr = np.asarray(answers, dtype=bool)
    payload = (
        _WAL_REC.pack(int(first_seq), len(codes_arr))
        + codes_arr.tobytes()
        + np.packbits(answers_arr).tobytes()
    )
    return framing.encode_record(payload)


def decode_votes_at(data: bytes, offset: int) -> Tuple[int, List[int], List[bool], int]:
    """Decode the WAL record starting at *offset* in *data*.

    Returns ``(first_seq, codes, answers, end_offset)``.  Raises
    :class:`TruncatedWalRecord` when the data ends mid-record (a torn
    write: truncate and carry on) and plain ``ValueError`` when the bytes
    are structurally wrong or fail the checksum (corruption).
    """
    payload, end = framing.decode_record_at(data, offset)
    length = len(payload)
    if length < _WAL_REC.size:
        raise ValueError("WAL record payload shorter than its fixed header")
    first_seq, n = _WAL_REC.unpack_from(payload, 0)
    if n == 0 or length != _WAL_REC.size + 8 * n + (n + 7) // 8:
        raise ValueError("WAL record length disagrees with its vote count")
    codes = np.frombuffer(payload, dtype="<i8", count=n, offset=_WAL_REC.size).tolist()
    bits = np.frombuffer(payload, dtype=np.uint8, offset=_WAL_REC.size + 8 * n)
    answers = np.unpackbits(bits, count=n).astype(bool).tolist()
    return first_seq, codes, answers, end


# -- snapshots -----------------------------------------------------------------


def encode_shard_snapshot(
    shard: int, n_shards: int, last_seq: int, votes: Dict[int, List[int]]
) -> str:
    """Serialised shard snapshot.

    ``votes`` maps the canonical integer code (as a JSON object key, i.e. a
    string) to its ``[yes, no]`` counts; ``last_seq`` is the highest WAL
    sequence folded in, which is what makes post-crash replay idempotent.
    """
    return json.dumps(
        {
            "format": STORE_FORMAT_VERSION,
            "shard": int(shard),
            "n_shards": int(n_shards),
            "last_seq": int(last_seq),
            "n_keys": len(votes),
            "votes": {str(code): pair for code, pair in votes.items()},
        }
    )


def decode_shard_snapshot(
    raw: str, shard: int, n_shards: int, source: Path
) -> Tuple[Dict[int, List[int]], int]:
    """Parse a shard snapshot; returns ``(votes, last_seq)``."""
    try:
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("snapshot is not an object")
    except (json.JSONDecodeError, ValueError) as error:
        raise StoreCorruptionError(f"snapshot {source} is unreadable: {error}") from error
    # Version first: a future format's restructured payload must report as a
    # version mismatch (actionable), not as corruption (alarming).
    version = payload.get("format")
    if version != STORE_FORMAT_VERSION:
        raise StoreError(
            f"{source} has format version {version!r}; this code reads version "
            f"{STORE_FORMAT_VERSION}"
        )
    if payload.get("shard") != shard or payload.get("n_shards") != n_shards:
        raise StoreCorruptionError(
            f"snapshot {source} identifies as shard {payload.get('shard')!r} of "
            f"{payload.get('n_shards')!r} but lives at shard {shard} of {n_shards}"
        )
    try:
        votes = {
            int(code): [int(yes), int(no)]
            for code, (yes, no) in payload["votes"].items()
        }
    except (KeyError, TypeError, ValueError) as error:
        raise StoreCorruptionError(f"snapshot {source} is unreadable: {error}") from error
    return votes, int(payload.get("last_seq", 0))

