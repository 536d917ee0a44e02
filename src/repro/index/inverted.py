"""A generic inverted index: coordinate → postings list.

This is the storage core of the "Lucene" substitute (§5.2 stores item
vectors "in a vector-space database (the Lucene text search engine is
used for this purpose)").  Postings map an item to its weight on the
coordinate, so a dot-product top-k search only touches documents sharing
at least one coordinate with the query.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Maps coordinates to {item: weight} postings."""

    def __init__(self):
        self._postings: dict[Hashable, dict[Hashable, float]] = {}
        self._doc_coords: dict[Hashable, list[Hashable]] = {}
        #: postings entries examined by retrieval (bumped by ``top_k``);
        #: survives :meth:`clear` so rebuilds don't erase the telemetry.
        self.postings_touched = 0

    def copy(self) -> "InvertedIndex":
        """An independent copy (postings and coord lists are duplicated).

        Seeds the next epoch's index so incremental maintenance can
        proceed without touching the published one.  The telemetry
        counter starts at zero — it belongs to the instance, not the
        data.
        """
        clone = InvertedIndex()
        clone._postings = {
            coord: dict(postings) for coord, postings in self._postings.items()
        }
        clone._doc_coords = {
            item: list(coords) for item, coords in self._doc_coords.items()
        }
        return clone

    def add(self, item: Hashable, entries: Iterable[tuple[Hashable, float]]) -> None:
        """Insert a document's (coordinate, weight) pairs."""
        if item in self._doc_coords:
            self.remove(item)
        coords = []
        for coord, weight in entries:
            if not weight:
                continue
            self._postings.setdefault(coord, {})[item] = weight
            coords.append(coord)
        self._doc_coords[item] = coords

    def bulk_load(
        self, documents: Iterable[tuple[Hashable, Iterable[tuple[Hashable, float]]]]
    ) -> int:
        """Insert many documents at once; returns the count loaded.

        The fast path for full rebuilds: inlines :meth:`add` without the
        per-item prior-state check (callers clear or start empty), which
        matters when reloading thousands of documents.
        """
        postings = self._postings
        doc_coords = self._doc_coords
        count = 0
        for item, entries in documents:
            if item in doc_coords:
                self.remove(item)
            coords = []
            for coord, weight in entries:
                if not weight:
                    continue
                bucket = postings.get(coord)
                if bucket is None:
                    bucket = postings[coord] = {}
                bucket[item] = weight
                coords.append(coord)
            doc_coords[item] = coords
            count += 1
        return count

    def remove(self, item: Hashable) -> bool:
        """Drop a document from every postings list it appears in."""
        coords = self._doc_coords.pop(item, None)
        if coords is None:
            return False
        for coord in coords:
            postings = self._postings.get(coord)
            if postings is None:
                continue
            postings.pop(item, None)
            if not postings:
                del self._postings[coord]
        return True

    def postings(self, coord: Hashable) -> dict[Hashable, float]:
        """The {item: weight} postings of a coordinate (live view)."""
        return self._postings.get(coord, {})

    def document_frequency(self, coord: Hashable) -> int:
        return len(self._postings.get(coord, ()))

    def coordinates(self) -> Iterator[Hashable]:
        return iter(self._postings)

    def documents(self) -> Iterator[Hashable]:
        return iter(self._doc_coords)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._doc_coords

    def __len__(self) -> int:
        """Number of indexed documents."""
        return len(self._doc_coords)

    def vocabulary_size(self) -> int:
        return len(self._postings)

    def clear(self) -> None:
        self._postings.clear()
        self._doc_coords.clear()

    def __repr__(self) -> str:
        return (
            f"<InvertedIndex docs={len(self._doc_coords)} "
            f"vocab={len(self._postings)}>"
        )
