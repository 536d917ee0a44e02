"""A generic inverted index: coordinate → postings list.

This is the storage core of the "Lucene" substitute (§5.2 stores item
vectors "in a vector-space database (the Lucene text search engine is
used for this purpose)").  Postings map a document to its weight on the
coordinate, so a dot-product top-k search only touches documents sharing
at least one coordinate with the query.

Documents are interned to small integer ids, and postings are keyed by
id: accumulating a score then hashes an int in C instead of calling an
item's Python ``__hash__`` once per posting.  Ids never leave
:mod:`repro.index` — every public method takes and returns items.  An
index is loaded once: a document's id is its insertion position, and
a changed corpus gets a new index rather than an edited one.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Maps coordinates to postings of interned document ids."""

    def __init__(self):
        #: coord -> {doc id: weight}
        self._postings: dict[Hashable, dict[int, float]] = {}
        #: item -> doc id, in insertion order
        self._ids: dict[Hashable, int] = {}
        #: doc id -> item
        self._items: list[Hashable] = []
        #: postings entries examined by retrieval (bumped by ``top_k``)
        self.postings_touched = 0

    def bulk_load(
        self, documents: Iterable[tuple[Hashable, Iterable[tuple[Hashable, float]]]]
    ) -> int:
        """Insert many documents at once; returns the count loaded.

        Raises ``ValueError`` for a document already loaded.
        """
        postings = self._postings
        ids = self._ids
        items = self._items
        count = 0
        for item, entries in documents:
            if item in ids:
                raise ValueError(f"document already loaded: {item!r}")
            doc = ids[item] = len(items)
            items.append(item)
            for coord, weight in entries:
                if not weight:
                    continue
                bucket = postings.get(coord)
                if bucket is None:
                    bucket = postings[coord] = {}
                bucket[doc] = weight
            count += 1
        return count

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

    def __repr__(self) -> str:
        return (
            f"<InvertedIndex docs={len(self._ids)} "
            f"vocab={len(self._postings)}>"
        )
