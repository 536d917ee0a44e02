"""The accumulate-only in-memory datom log.

Every :class:`~repro.rdf.graph.Graph` owns one of these.  Mutations
append datoms; nothing is ever rewritten, so the log is simultaneously
the graph's durability stream (segments on disk are just slices of it),
its replication stream, and its history (``as_of`` folds a prefix).

Only *effective* operations are logged — an ``add`` of a triple already
present, or a ``remove`` of an absent one, records nothing — so a replay
applies every datom unconditionally and a datom that turns out to be a
no-op on replay is evidence of corruption, not a normal case.

Every datom is retained for the graph's lifetime: memory grows with the
mutation count, and in exchange any graph can be persisted, replayed
and time-travelled.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .datom import Datom

__all__ = ["DatomLog"]


class DatomLog:
    """Monotonic transactions over an append-only datom sequence."""

    __slots__ = ("_datoms", "_last_tx")

    def __init__(self) -> None:
        self._datoms: list[Datom] = []
        self._last_tx = 0

    # -- writing -----------------------------------------------------------

    def begin(self) -> int:
        """The tx id the next transaction will carry (without minting it)."""
        return self._last_tx + 1

    def commit(self, datoms: Sequence[Datom]) -> int:
        """Record one transaction's datoms; returns its tx id.

        All datoms must carry ``begin()``'s tx — the caller (the graph)
        builds them against the indexes, then commits atomically.  An
        empty transaction mints no tx id.
        """
        if not datoms:
            return self._last_tx
        tx = self._last_tx + 1
        for datom in datoms:
            if datom.tx != tx:
                raise ValueError(
                    f"datom tx {datom.tx} does not match transaction {tx}"
                )
        self._datoms.extend(datoms)
        self._last_tx = tx
        return tx

    def replay_append(self, datoms: Iterable[Datom]) -> int:
        """Append already-transacted datoms (log replay), keeping tx ids.

        Transaction ids must be monotonically non-decreasing (datoms of
        one transaction share an id).  Returns the appended count.
        """
        count = 0
        for datom in datoms:
            if datom.tx < self._last_tx:
                raise ValueError(
                    f"replayed datom tx {datom.tx} goes backwards "
                    f"(log is at tx {self._last_tx})"
                )
            self._datoms.append(datom)
            self._last_tx = datom.tx
            count += 1
        return count

    def fork(self) -> "DatomLog":
        """An independent copy that continues this log's tx sequence.

        The datom bodies are shared (immutable), the list is copied, so
        appends to either log never show up in the other.  Epoch
        snapshots fork the log so each epoch's graph carries the full
        history through its watermark and keeps ``as_of`` working.
        """
        clone = DatomLog()
        clone._datoms = list(self._datoms)
        clone._last_tx = self._last_tx
        return clone

    # -- reading -----------------------------------------------------------

    @property
    def last_tx(self) -> int:
        """The highest transaction id recorded (0 for an empty log)."""
        return self._last_tx

    @property
    def datoms(self) -> tuple[Datom, ...]:
        """Every datom, in log order (a fresh immutable snapshot)."""
        return tuple(self._datoms)

    def datoms_through(self, tx: int) -> Iterator[Datom]:
        """Datoms of every transaction with id <= ``tx``, in order."""

        def generate() -> Iterator[Datom]:
            for datom in self._datoms:
                if datom.tx > tx:
                    break
                yield datom

        return generate()

    def datoms_since(self, tx: int) -> Iterator[Datom]:
        """Datoms of every transaction with id > ``tx``, in order.

        This is the delta stream an epoch reindexer folds: everything
        the writer committed after a published watermark.  Bisects on
        the (monotonic) tx ids so reading a small tail of a long log
        does not scan the whole list.
        """
        lo, hi = 0, len(self._datoms)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._datoms[mid].tx <= tx:
                lo = mid + 1
            else:
                hi = mid
        return iter(self._datoms[lo:])

    def __len__(self) -> int:
        return len(self._datoms)

    def __iter__(self) -> Iterator[Datom]:
        return iter(self._datoms)

    def __repr__(self) -> str:
        return f"<DatomLog {len(self)} datom(s) through tx {self._last_tx}>"
