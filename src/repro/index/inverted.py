"""A generic inverted index: coordinate → postings list.

This is the storage core of the "Lucene" substitute (§5.2 stores item
vectors "in a vector-space database (the Lucene text search engine is
used for this purpose)").  Postings map a document to its weight on the
coordinate, so a dot-product top-k search only touches documents sharing
at least one coordinate with the query.

Documents are interned to small integer ids, and postings are keyed by
id: accumulating a score then hashes an int in C instead of calling an
item's Python ``__hash__`` once per posting.  Ids never leave
:mod:`repro.index` — every public method takes and returns items — and
an id freed by :meth:`InvertedIndex.remove` is reused by the next
insertion, so churn does not grow the id tables.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Maps coordinates to postings of interned document ids."""

    def __init__(self):
        #: coord -> {doc id: weight}
        self._postings: dict[Hashable, dict[int, float]] = {}
        #: item -> doc id, in insertion order (re-adding moves to the end)
        self._ids: dict[Hashable, int] = {}
        #: doc id -> item; a freed slot holds None until reused
        self._items: list[Hashable] = []
        #: doc id -> the coordinates its postings sit on
        self._coords: list[tuple[Hashable, ...] | None] = []
        #: freed doc ids, reused last-freed first
        self._free: list[int] = []
        #: postings entries examined by retrieval (bumped by ``top_k``);
        #: survives :meth:`clear` so rebuilds don't erase the telemetry.
        self.postings_touched = 0

    def _intern(self, item: Hashable) -> int:
        """A doc id for a new document: a freed one if any."""
        if self._free:
            doc = self._free.pop()
            self._items[doc] = item
        else:
            doc = len(self._items)
            self._items.append(item)
            self._coords.append(None)
        self._ids[item] = doc
        return doc

    def add(self, item: Hashable, entries: Iterable[tuple[Hashable, float]]) -> None:
        """Insert a document's (coordinate, weight) pairs."""
        self.bulk_load(((item, entries),))

    def bulk_load(
        self, documents: Iterable[tuple[Hashable, Iterable[tuple[Hashable, float]]]]
    ) -> int:
        """Insert many documents at once; returns the count loaded.

        A document already present is replaced, as by :meth:`add`.
        """
        postings = self._postings
        ids = self._ids
        doc_coords = self._coords
        count = 0
        for item, entries in documents:
            if item in ids:
                self.remove(item)
            doc = self._intern(item)
            coords = []
            for coord, weight in entries:
                if not weight:
                    continue
                bucket = postings.get(coord)
                if bucket is None:
                    bucket = postings[coord] = {}
                bucket[doc] = weight
                coords.append(coord)
            doc_coords[doc] = tuple(coords)
            count += 1
        return count

    def remove(self, item: Hashable) -> bool:
        """Drop a document from every postings list it appears in."""
        doc = self._ids.pop(item, None)
        if doc is None:
            return False
        for coord in self._coords[doc]:
            postings = self._postings.get(coord)
            if postings is None:
                continue
            postings.pop(doc, None)
            if not postings:
                del self._postings[coord]
        self._items[doc] = None
        self._coords[doc] = None
        self._free.append(doc)
        return True

    def postings(self, coord: Hashable) -> dict[Hashable, float]:
        """The {item: weight} postings of a coordinate (a fresh dict)."""
        items = self._items
        return {
            items[doc]: weight
            for doc, weight in self._postings.get(coord, {}).items()
        }

    def document_frequency(self, coord: Hashable) -> int:
        return len(self._postings.get(coord, ()))

    def coordinates(self) -> Iterator[Hashable]:
        return iter(self._postings)

    def documents(self) -> Iterator[Hashable]:
        return iter(self._ids)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._ids

    def __len__(self) -> int:
        """Number of indexed documents."""
        return len(self._ids)

    def vocabulary_size(self) -> int:
        return len(self._postings)

    def clear(self) -> None:
        self._postings.clear()
        self._ids.clear()
        self._items.clear()
        self._coords.clear()
        self._free.clear()

    def __repr__(self) -> str:
        return (
            f"<InvertedIndex docs={len(self._ids)} "
            f"vocab={len(self._postings)}>"
        )
