"""Maintenance CLI for the persistent crowd-answer warehouse.

Examples
--------
Inspect a store directory (per-shard breakdown with ``--shards``)::

    python -m repro.store stats --dir .repro-store
    python -m repro.store stats --dir .repro-store --shards

Fold every shard's write-ahead log into a fresh snapshot::

    python -m repro.store compact --dir .repro-store

Delete the store's on-disk files::

    python -m repro.store clean --dir .repro-store --yes
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro import obs
from repro.exceptions import InvalidParameterError, StoreError
from repro.store.warehouse import AnswerStore

#: Default store directory, matching the service CLI's ``--store-dir`` default.
DEFAULT_STORE_DIR = ".repro-store"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect and maintain a persistent crowd-answer warehouse.",
    )
    sub = parser.add_subparsers(dest="command")

    p_stats = sub.add_parser("stats", help="print store statistics")
    p_stats.add_argument("--dir", default=DEFAULT_STORE_DIR, help="store directory")
    p_stats.add_argument("--json", action="store_true", help="machine-readable output")
    p_stats.add_argument(
        "--shards", action="store_true", help="print a per-shard breakdown"
    )
    p_stats.add_argument(
        "--replication",
        type=int,
        default=1,
        help="replication factor used when counting resolved keys (default 1)",
    )
    p_stats.add_argument(
        "--metrics",
        action="store_true",
        help="record repro.obs metrics while opening the store and print the "
        "registry in Prometheus text exposition format",
    )
    p_stats.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record repro.obs spans (store open, compactions) and write a "
        "JSONL trace to PATH",
    )

    p_compact = sub.add_parser(
        "compact", help="fold every shard's WAL into a snapshot and truncate the logs"
    )
    p_compact.add_argument("--dir", default=DEFAULT_STORE_DIR, help="store directory")

    p_clean = sub.add_parser("clean", help="delete the store's on-disk files")
    p_clean.add_argument("--dir", default=DEFAULT_STORE_DIR, help="store directory")
    p_clean.add_argument(
        "--yes", action="store_true", help="confirm deletion (required)"
    )
    return parser


def _cmd_stats(args) -> int:
    registry = tracer = None
    if args.metrics or args.trace_out:
        registry, tracer = obs.enable(trace=args.trace_out is not None)
    with AnswerStore(args.dir, replication=args.replication) as store:
        stats = store.stats()
    if tracer is not None:
        path = tracer.dump_jsonl(
            args.trace_out,
            metrics=registry.snapshot() if registry is not None else None,
        )
        print(f"obs: wrote {len(tracer.events())} trace event(s) to {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        if args.metrics and registry is not None:
            print(registry.exposition(), end="", file=sys.stderr)
        obs.disable()
        return 0
    print(
        f"store {stats['directory']} (format v{stats['format']}, "
        f"{stats['n_shards']} shard(s))"
    )
    print(
        f"  keys: {stats['n_keys']} ({stats['n_resolved']} resolved at "
        f"replication={stats['replication']}), votes: {stats['n_votes']}"
    )
    print(
        f"  n_records: {stats['n_records']}, "
        f"wal: {stats['wal_bytes']} B, snapshot: {stats['snapshot_bytes']} B, "
        f"on disk: {stats['disk_bytes']} B"
    )
    if args.shards:
        for row in stats["shards"]:
            print(
                f"  shard {row['shard']:4d}: {row['n_keys']} key(s), "
                f"{row['n_votes']} vote(s), last_seq {row['last_seq']}, "
                f"wal {row['wal_bytes']} B, snapshot {row['snapshot_bytes']} B, "
                f"on disk {row['disk_bytes']} B"
            )
    if args.metrics and registry is not None:
        print(registry.exposition(), end="")
    obs.disable()
    return 0


def _cmd_compact(args) -> int:
    with AnswerStore(args.dir) as store:
        before = store.stats()["wal_bytes"]
        path = store.compact()
        after = store.stats()
    print(
        f"store: compacted {after['n_keys']} key(s) / {after['n_votes']} vote(s) "
        f"across {after['n_shards']} shard(s) under {path} "
        f"(WAL {before} -> {after['wal_bytes']} B)"
    )
    return 0


def _cmd_clean(args) -> int:
    if not args.yes:
        print("error: clean deletes the warehouse; pass --yes to confirm", file=sys.stderr)
        return 2
    store = AnswerStore(args.dir)
    removed = store.clean()
    print(f"store: removed {removed} file(s) under {args.dir}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return {
            "stats": _cmd_stats,
            "compact": _cmd_compact,
            "clean": _cmd_clean,
        }[args.command](args)
    except (StoreError, InvalidParameterError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
