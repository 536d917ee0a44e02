"""``python -m repro store`` — manage durable datom-log stores.

Subcommands::

    init <dir>                create an empty store
    ingest <dir> [dataset]    build a corpus and append its datom log
    stats <dir>               print the store's shape as JSON
    verify <dir>              full integrity check (checksums + replay)

``ingest`` accepts the same dataset arguments as the browser and the
server (bundled datasets or ``--ntriples``/``--turtle``), so::

    python -m repro store init /tmp/corpus
    python -m repro store ingest /tmp/corpus recipes --size 200
    python -m repro serve --store /tmp/corpus

is the durable path to the same bytes ``repro serve recipes --size
200`` serves from memory.  Ingesting into a non-empty store replays the
existing log first and appends only *effective* new assertions, so
re-ingesting the same corpus is a no-op rather than a corruption.

Segments are never merged: a store keeps the segments its appends
made.  A writer (``ingest`` here, or ``serve --store --ingest``) deletes
the orphans a crashed writer left on its first append; ``stats`` lists
them, and neither ``stats`` nor ``verify`` deletes anything.

The hidden ``--crash-after N`` flag kills the process (``os._exit``)
partway through the N-th segment write; the CI crash-recovery smoke
uses it to prove a killed ingest never leaves a store that fails
``verify``, and that the resumed ingest sweeps the torn temp file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import IO

from ..datasets.spec import DatasetSpec, add_dataset_arguments
from .segments import LogStore, StoreError

__all__ = ["store_main", "build_store_parser"]


def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Manage durable datom-log store directories.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    sub.add_parser("init", help="create an empty store").add_argument("dir")

    ingest = sub.add_parser(
        "ingest", help="build a corpus and append its datom log"
    )
    ingest.add_argument("dir")
    add_dataset_arguments(ingest, "ingest")
    ingest.add_argument("--batch", type=int, default=50_000,
                        help="datoms per segment (with --follow: triples "
                        "per appended transaction)")
    ingest.add_argument(
        "--follow",
        action="store_true",
        help="stream N-Triples from stdin; every --batch lines are "
        "committed as one durable transaction, so a live `repro serve "
        "--ingest --store` restart resumes from the last sealed batch",
    )
    # Deterministic fault injection for the crash-recovery smoke: exit
    # hard midway through writing the Nth segment.
    ingest.add_argument("--crash-after", type=int, default=None,
                        help=argparse.SUPPRESS)

    for action, help_text in (
        ("stats", "print the store's shape as JSON"),
        ("verify", "full integrity check (checksums + replay)"),
    ):
        sub.add_parser(action, help=help_text).add_argument("dir")
    return parser


def _crashing_writer(after: int):
    """A SegmentWriter that dies mid-write on the ``after``-th segment."""
    calls = {"n": 0}

    def writer(handle: IO[bytes], payload: bytes) -> None:
        calls["n"] += 1
        if calls["n"] >= after:
            handle.write(payload[: max(1, len(payload) // 2)])
            handle.flush()
            os._exit(17)
        handle.write(payload)

    return writer


def _ingest(args: argparse.Namespace) -> int:
    store = LogStore.open(args.dir)
    if args.follow:
        return _ingest_follow(args, store)
    source, _schema, _items = DatasetSpec.from_args(args).build_source()
    if store.last_tx == 0:
        fresh = source
    else:
        # Append-only ingest into existing history: replay, then apply
        # the incoming triples as ordinary (deduplicating) mutations.
        fresh = store.replay_graph()
        for s, p, o in source.triples():
            fresh.add(s, p, o)
    base = store.last_tx
    writer = (
        _crashing_writer(args.crash_after)
        if args.crash_after is not None
        else None
    )
    written = store.append_log(
        (d for d in fresh.log if d.tx > base),
        batch=max(1, args.batch),
        segment_writer=writer,
    )
    print(
        f"ingested {written} datom(s); store at tx {store.last_tx} "
        f"({len(store.segments)} segment(s))"
    )
    return 0


def _ingest_follow(args: argparse.Namespace, store: LogStore) -> int:
    """Stream N-Triples from stdin into the store, batch by batch.

    Each batch is one transaction sealed into its own segment before the
    next batch is read, so at any kill point the store verifies clean
    and replays through the last completed batch — the crash-recovery
    smoke drives this with ``--crash-after`` to prove a mid-publish kill
    restarts on the last durable transaction.
    """
    from ..rdf.ntriples import iter_triples
    from .datom import OP_ASSERT

    graph = store.replay_graph()
    writer = (
        _crashing_writer(args.crash_after)
        if args.crash_after is not None
        else None
    )
    batch_size = max(1, args.batch)
    pending: list[str] = []
    written = batches = 0

    def flush() -> None:
        nonlocal written, batches
        if not pending:
            return
        text = "\n".join(pending)
        pending.clear()
        ops = [(OP_ASSERT, s, p, o) for s, p, o in iter_triples(text)]
        if not ops:
            return
        tx = graph.transact(ops)
        if tx is None:
            return  # every triple already present: nothing to seal
        datoms = list(graph.log.datoms_since(tx - 1))
        store.append(datoms, segment_writer=writer)
        written += len(datoms)
        batches += 1

    for line in sys.stdin:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pending.append(line)
        if len(pending) >= batch_size:
            flush()
    flush()
    print(
        f"followed {batches} batch(es), {written} datom(s); "
        f"store at tx {store.last_tx} ({len(store.segments)} segment(s))"
    )
    return 0


def store_main(argv=None) -> int:
    args = build_store_parser().parse_args(argv)
    try:
        if args.action == "init":
            store = LogStore.init(args.dir)
            print(f"initialized empty store at {store.root}")
            return 0
        if args.action == "ingest":
            return _ingest(args)
        if args.action == "stats":
            print(json.dumps(LogStore.open(args.dir).stats(),
                             indent=2, sort_keys=True))
            return 0
        if args.action == "verify":
            result = LogStore.open(args.dir).verify()
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise SystemExit(f"unknown action {args.action!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via repro.cli
    sys.exit(store_main())
