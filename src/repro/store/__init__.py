"""Durable datom-log triple store (the Datomic information model).

The repository's source of truth is an **accumulate-only log** of
datoms — ``(subject, predicate, object, tx, op)`` 5-tuples where ``op``
asserts or retracts the triple and ``tx`` is a monotonic transaction
id.  The familiar SPO/POS/OSP indexes in :class:`~repro.rdf.graph.Graph`
are *materialized views* of that log: every mutation appends datoms and
applies them to the indexes, so replaying the log from scratch rebuilds
the indexes bit-identically — the invariant the differential harness's
log-replay oracle pins.

On top of the in-memory :class:`DatomLog` sits :class:`LogStore`: a
directory of gzip-compressed, checksummed segment files plus an
atomically rewritten manifest, giving the store durability through the
same temp-file + ``os.replace`` discipline the session persistence
layer proved crash-safe.  ``repro serve --store DIR`` cold-starts
worker processes by log replay, and ``Workspace.as_of(tx)`` pins an
immutable historical view — navigation over the corpus *as it was* at
any recorded transaction.
"""

from .datom import OP_ASSERT, OP_RETRACT, Datom, datom_from_dict, datom_to_dict
from .log import DatomLog
from .segments import (
    MANIFEST_NAME,
    STORE_FORMAT_VERSION,
    LogStore,
    SegmentInfo,
    StoreCorruptError,
    StoreError,
)

__all__ = [
    "Datom",
    "DatomLog",
    "LogStore",
    "MANIFEST_NAME",
    "OP_ASSERT",
    "OP_RETRACT",
    "STORE_FORMAT_VERSION",
    "SegmentInfo",
    "StoreCorruptError",
    "StoreError",
    "datom_from_dict",
    "datom_to_dict",
]
