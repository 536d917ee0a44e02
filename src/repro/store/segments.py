"""Durable segments: the datom log on disk, checksummed and atomic.

A store directory holds::

    manifest.json                the checksummed table of contents
    seg-00000001.jsonl.gz        gzip'd JSON-lines of datoms
    seg-00000002.jsonl.gz        ...

Writes follow the atomic-save discipline the session persistence layer
proved crash-safe (temp file + ``os.replace``): a new segment's bytes
land under a temp name, are replaced into place, and only then is the
manifest — itself temp-written and replaced — updated to reference
them.  The manifest is the source of truth: a crash in any window
leaves either the old manifest (a fully consistent store, possibly with
an orphaned segment or temp file) or the new one (the append fully
visible).  Nothing is ever overwritten in place.  Every
``os.replace`` is followed by an fsync of the store directory, so the
segment-before-manifest ordering survives power loss too, not just
process kills (on platforms whose directories cannot be fsynced the
guarantee degrades to process crashes).

Segments are never merged: a store keeps the segment count its appends
made.  Orphans are swept by the writer — the first ``append`` through a
handle deletes them before it writes — and reading a store (``open``,
``datoms``, ``replay_graph``, ``stats``, ``verify``) never deletes
anything.  That is safe because a store has one writer at a time.

Each manifest entry records the segment's datom count, tx span, and the
SHA-256 of its *uncompressed* payload; gzip streams are written with
``mtime=0`` so identical payloads produce identical bytes.  Any
mismatch — bad checksum, missing file, non-monotonic tx spans, datoms
that replay as no-ops — raises :class:`StoreCorruptError` (all store
failures derive from :class:`StoreError`).
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
import re
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Sequence

from .datom import Datom, datom_from_dict, datom_to_dict, term_decoder

__all__ = [
    "LogStore",
    "MANIFEST_NAME",
    "STORE_FORMAT_VERSION",
    "SegmentInfo",
    "SegmentWriter",
    "StoreCorruptError",
    "StoreError",
]

MANIFEST_NAME = "manifest.json"
STORE_FORMAT_VERSION = 1

_SEGMENT_NAME_RE = re.compile(r"^seg-(\d+)\.jsonl\.gz$")

#: Fault-injection seam, mirroring the session manager's ``StateWriter``:
#: receives the open temp-file handle and the full payload bytes.  The
#: default writes everything in one call; the harness substitutes
#: writers that crash mid-write to prove the store survives.
SegmentWriter = Callable[[IO[bytes], bytes], None]


class StoreError(RuntimeError):
    """Base for every durable-store failure."""


class StoreCorruptError(StoreError):
    """The on-disk store is damaged: bad manifest, checksum, or replay."""


@dataclass(frozen=True)
class SegmentInfo:
    """One manifest entry: a sealed, immutable slice of the log."""

    name: str
    count: int
    first_tx: int
    last_tx: int
    sha256: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "first_tx": self.first_tx,
            "last_tx": self.last_tx,
            "sha256": self.sha256,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentInfo":
        try:
            return cls(
                name=str(data["name"]),
                count=int(data["count"]),
                first_tx=int(data["first_tx"]),
                last_tx=int(data["last_tx"]),
                sha256=str(data["sha256"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreCorruptError(
                f"malformed manifest segment entry: {error!r}"
            ) from error


def _fsync_dir(path: str) -> None:
    """Persist a directory's entries (its renames) to stable storage.

    Without this, a power loss can forget an ``os.replace`` whose file
    bytes were fsynced — e.g. keep the new manifest but drop the segment
    rename it references.  Platforms that cannot fsync a directory
    (Windows) silently skip; there the guarantee covers process crashes
    only.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write(path: str, payload: bytes, writer: SegmentWriter | None) -> None:
    """Write ``payload`` to ``path`` via temp file + ``os.replace``."""
    temp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(temp, "wb") as handle:
            if writer is None:
                handle.write(payload)
            else:
                writer(handle, payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        _fsync_dir(os.path.dirname(path) or ".")
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


def _encode_segment(datoms: Sequence[Datom]) -> tuple[bytes, str]:
    """(gzip bytes, payload sha256) for one segment's datoms."""
    lines = [
        json.dumps(datom_to_dict(d), sort_keys=True, separators=(",", ":"))
        for d in datoms
    ]
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()
    buffer = io.BytesIO()
    # mtime=0 keeps segment bytes a pure function of their datoms.
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as zipped:
        zipped.write(payload)
    return buffer.getvalue(), digest


class LogStore:
    """A datom-log store directory: checksummed segments + manifest."""

    def __init__(self, root: str, segments: list[SegmentInfo], last_tx: int):
        self.root = root
        self._segments = segments
        self._last_tx = last_tx
        self._swept = False

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def init(cls, root) -> "LogStore":
        """Create an empty store at ``root`` (dir may exist but be empty)."""
        root = os.fspath(root)
        os.makedirs(root, exist_ok=True)
        manifest = os.path.join(root, MANIFEST_NAME)
        if os.path.exists(manifest):
            raise StoreError(f"store already initialized at {root}")
        store = cls(root, [], 0)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, root) -> "LogStore":
        """Open an existing store, validating its manifest."""
        root = os.fspath(root)
        manifest_path = os.path.join(root, MANIFEST_NAME)
        try:
            with open(manifest_path, "rb") as handle:
                data = json.loads(handle.read().decode("utf-8"))
        except OSError as error:
            raise StoreError(
                f"cannot open store at {root}: {error}"
            ) from error
        except (ValueError, UnicodeDecodeError) as error:
            raise StoreCorruptError(
                f"corrupt manifest in {root}: {error}"
            ) from error
        if not isinstance(data, dict):
            raise StoreCorruptError(f"manifest in {root} is not an object")
        if data.get("format") != STORE_FORMAT_VERSION:
            raise StoreCorruptError(
                f"unsupported store format {data.get('format')!r} "
                f"(this build reads {STORE_FORMAT_VERSION})"
            )
        segments = [
            SegmentInfo.from_dict(entry) for entry in data.get("segments", [])
        ]
        previous = 0
        for info in segments:
            if info.first_tx <= previous or info.last_tx < info.first_tx:
                raise StoreCorruptError(
                    f"segment {info.name} tx span "
                    f"[{info.first_tx}, {info.last_tx}] is not monotonic "
                    f"(previous segment ended at tx {previous})"
                )
            previous = info.last_tx
        last_tx = data.get("last_tx", 0)
        if not isinstance(last_tx, int) or last_tx != previous:
            raise StoreCorruptError(
                f"manifest last_tx {last_tx!r} disagrees with segments "
                f"(which end at tx {previous})"
            )
        return cls(root, segments, last_tx)

    # -- properties --------------------------------------------------------

    @property
    def last_tx(self) -> int:
        return self._last_tx

    @property
    def segments(self) -> tuple[SegmentInfo, ...]:
        return tuple(self._segments)

    @property
    def datom_count(self) -> int:
        return sum(info.count for info in self._segments)

    # -- writing -----------------------------------------------------------

    def _next_segment_name(self) -> str:
        """The next free segment filename.

        Indices only ever grow: the successor of the *highest* index any
        live segment carries, never ``len(segments) + 1``.  Stores
        compacted by earlier builds hold one segment with a high index,
        and a count-derived name would ``os.replace`` over its live
        bytes.  Colliding with an *orphan* (an append the manifest
        never published) is harmless: orphans are never read, the
        writer sweeps them before its first write, and one this handle
        left behind by a failed manifest write is simply replaced.
        """
        highest = 0
        for info in self._segments:
            match = _SEGMENT_NAME_RE.match(info.name)
            if match:
                highest = max(highest, int(match.group(1)))
        return f"seg-{highest + 1:08d}.jsonl.gz"

    def append(
        self,
        datoms: Sequence[Datom],
        segment_writer: SegmentWriter | None = None,
        manifest_writer: SegmentWriter | None = None,
        obs=None,
    ) -> SegmentInfo | None:
        """Seal ``datoms`` into a new segment and publish it atomically.

        Datom tx ids must continue where the store left off (strictly
        greater than ``last_tx``, non-decreasing within the batch).
        Returns the new :class:`SegmentInfo`, or None for an empty
        batch.  The two writer arguments are the crash-injection seams.
        The first non-empty append through this handle first deletes
        every file :meth:`orphans` lists.
        """
        datoms = list(datoms)
        if not datoms:
            return None
        previous = self._last_tx
        for datom in datoms:
            if datom.tx <= self._last_tx:
                raise StoreError(
                    f"appended datom tx {datom.tx} is not newer than "
                    f"store last_tx {self._last_tx}"
                )
            if datom.tx < previous:
                raise StoreError(
                    f"appended datom tx {datom.tx} goes backwards "
                    f"within the batch (previous {previous})"
                )
            previous = datom.tx
        if not self._swept:
            for orphan in self.orphans():
                os.unlink(os.path.join(self.root, orphan))
            self._swept = True
        name = self._next_segment_name()
        blob, digest = _encode_segment(datoms)
        info = SegmentInfo(
            name=name,
            count=len(datoms),
            first_tx=datoms[0].tx,
            last_tx=datoms[-1].tx,
            sha256=digest,
        )
        # Segment first, manifest second: a crash between the two leaves
        # an orphaned segment file the manifest never references.
        _atomic_write(os.path.join(self.root, name), blob, segment_writer)
        self._segments.append(info)
        self._last_tx = info.last_tx
        try:
            self._write_manifest(manifest_writer)
        except BaseException:
            # Publication failed: forget the in-memory append so the
            # handle still mirrors the on-disk manifest.
            self._segments.pop()
            self._last_tx = (
                self._segments[-1].last_tx if self._segments else 0
            )
            raise
        if obs is not None:
            obs.metrics.counter("store.segments_written").inc()
            obs.metrics.counter("store.datoms_appended").inc(len(datoms))
        return info

    def _write_manifest(self, writer: SegmentWriter | None = None) -> None:
        payload = json.dumps(
            {
                "format": STORE_FORMAT_VERSION,
                "last_tx": self._last_tx,
                "datoms": self.datom_count,
                "segments": [info.to_dict() for info in self._segments],
            },
            indent=2,
            sort_keys=True,
        ).encode("utf-8")
        _atomic_write(
            os.path.join(self.root, MANIFEST_NAME), payload, writer
        )

    # -- reading -----------------------------------------------------------

    def _segment_payload(self, info: SegmentInfo) -> bytes:
        path = os.path.join(self.root, info.name)
        try:
            with gzip.open(path, "rb") as handle:
                payload = handle.read()
        except OSError as error:
            raise StoreCorruptError(
                f"cannot read segment {info.name}: {error}"
            ) from error
        digest = hashlib.sha256(payload).hexdigest()
        if digest != info.sha256:
            raise StoreCorruptError(
                f"segment {info.name} checksum mismatch: "
                f"manifest {info.sha256}, file {digest}"
            )
        return payload

    def datoms(self) -> Iterator[Datom]:
        """Every datom in tx order, verifying checksums segment by segment.

        One pass decodes each distinct term once (:func:`term_decoder`).
        """
        from ..service.serialize import StateSerializationError

        decode = term_decoder()
        for info in self._segments:
            payload = self._segment_payload(info)
            count = 0
            for line in payload.splitlines():
                if not line.strip():
                    continue
                try:
                    yield datom_from_dict(json.loads(line), decode)
                except (ValueError, StateSerializationError) as error:
                    raise StoreCorruptError(
                        f"segment {info.name} holds a malformed datom: "
                        f"{error}"
                    ) from error
                count += 1
            if count != info.count:
                raise StoreCorruptError(
                    f"segment {info.name} holds {count} datom(s), "
                    f"manifest says {info.count}"
                )

    def replay_graph(self, obs=None):
        """Cold-start: fold every datom into a fresh Graph.

        The result is bit-identical (indexes, version counter, tx ids)
        to the graph whose mutations produced the log.
        """
        from ..rdf.graph import Graph

        if obs is not None:
            with obs.tracer.span(
                "store.replay", segments=len(self._segments)
            ):
                graph = Graph.from_datoms(self.datoms())
                obs.metrics.counter("store.datoms_replayed").inc(len(graph.log))
                return graph
        return Graph.from_datoms(self.datoms())

    # -- maintenance -------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-safe summary of the store's shape."""
        sizes = {}
        for info in self._segments:
            path = os.path.join(self.root, info.name)
            try:
                sizes[info.name] = os.path.getsize(path)
            except OSError:
                sizes[info.name] = None
        return {
            "root": self.root,
            "format": STORE_FORMAT_VERSION,
            "last_tx": self._last_tx,
            "datoms": self.datom_count,
            "segments": [
                dict(info.to_dict(), bytes=sizes[info.name])
                for info in self._segments
            ],
            "orphans": self.orphans(),
        }

    def orphans(self) -> list[str]:
        """Segment-like files the manifest does not reference.

        A crash between segment write and manifest publication leaves
        one of these, and a crash mid-write leaves a torn ``.tmp.``
        file.  They are never read; the first :meth:`append` through a
        handle deletes them.
        """
        referenced = {info.name for info in self._segments}
        found = []
        for entry in sorted(os.listdir(self.root)):
            if entry == MANIFEST_NAME or entry in referenced:
                continue
            if entry.startswith("seg-") or ".tmp." in entry:
                found.append(entry)
        return found

    def verify(self) -> dict:
        """Full integrity check: checksums, counts, spans, clean replay.

        Returns a stats dict on success; raises
        :class:`StoreCorruptError` on the first inconsistency.  Replay
        exercises the strictest invariant — every datom must be
        *effective* against the state its predecessors built.
        """
        try:
            graph = self.replay_graph()
        except ValueError as error:
            raise StoreCorruptError(f"log replay failed: {error}") from error
        result = self.stats()
        result["replayed_datoms"] = len(graph.log)
        result["triples"] = len(graph)
        result["ok"] = True
        return result

    # -- ingest helpers ----------------------------------------------------

    def append_log(
        self,
        datoms: Iterable[Datom],
        batch: int = 50_000,
        obs=None,
        segment_writer: SegmentWriter | None = None,
    ) -> int:
        """Append a datom stream in segment-sized batches.

        The stream must continue the store's history: every tx id
        strictly greater than ``last_tx`` on entry (``append`` enforces
        this).  Batches are cut at transaction boundaries — a
        transaction's datoms never straddle two segments, so a crash
        between batches leaves whole transactions only.  Returns the
        number of datoms written.
        """
        pending: list[Datom] = []
        written = 0
        for datom in datoms:
            if (
                len(pending) >= batch
                and pending[-1].tx != datom.tx
            ):
                self.append(pending, obs=obs, segment_writer=segment_writer)
                written += len(pending)
                pending = []
            pending.append(datom)
        if pending:
            self.append(pending, obs=obs, segment_writer=segment_writer)
            written += len(pending)
        return written

    def __repr__(self) -> str:
        return (
            f"<LogStore {self.root!r}: {len(self._segments)} segment(s), "
            f"{self.datom_count} datom(s) through tx {self._last_tx}>"
        )
