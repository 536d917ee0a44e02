"""VectorStore: the vector-space database of §5.2.

Wraps a :class:`~repro.vsm.model.VectorSpaceModel` with an inverted
index over its *weighted* vectors so similarity searches ("Similar by
Content", collection-to-item retrieval) run in sublinear time.

The index is exact by construction: it is one build of every item's
weighted vector, taken once, on the first search or :meth:`refresh`.
A model is itself built once (cold, or by an epoch fold's
``VectorSpaceModel.advance``), and every weight depends on corpus
statistics (log-idf and the unit-length document norm), so each epoch
gets a new store over its new model and no posting is carried over.

Because a store never changes, what ``similar_to_item`` and
``similar_to_collection`` return is a function of their arguments, and
each store keeps those answers in a :class:`SearchMemo`.  Sessions
that come back to a view, or meet another session's view, are served
from it instead of scanning the postings again.  A new epoch builds a
new store and with it an empty memo, so no entry ever needs a version
key or an invalidation path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Collection, Hashable, Sequence

from ..obs import NULL_OBS, Observability
from ..perf.stats import CacheStats, IndexMaintenanceStats
from ..rdf.terms import Node
from ..vsm.model import VectorSpaceModel
from ..vsm.vector import SparseVector
from .inverted import InvertedIndex
from .search import Hit, top_k

__all__ = ["SEARCH_MEMO_REFS", "SearchMemo", "VectorStore"]

#: Fixed buckets for postings examined per top-k search.
_POSTINGS_BUCKETS = (10, 100, 1_000, 10_000, 100_000)

#: Most item references one store's search memo holds, counting every
#: member of every key and every hit; past it the least recently used
#: entries are evicted.  A key member costs a tuple slot and a hit
#: about 90 bytes, so a full memo of ten-hit item searches, the
#: costliest mix, holds about 8 MB.  A key larger than the bound is
#: answered but never kept.
SEARCH_MEMO_REFS = 1 << 16


class SearchMemo:
    """Finished similarity searches of one store, bounded by references.

    Keys are whatever the search read, and a search's weight is the
    number of items its key and its hits name.  Hits are kept as a
    tuple of immutable :class:`Hit` values.  The lock guards only the
    dictionary and the running weight; it is never held while a search
    runs, so two concurrent misses on one key may both compute and the
    second store replaces the first with equal hits.
    """

    def __init__(self):
        self.bound = SEARCH_MEMO_REFS
        #: key -> (hits, weight), least recently used first.
        self._entries: OrderedDict = OrderedDict()
        #: Sum of the weights of the entries held.
        self.refs = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: Hashable) -> tuple[Hit, ...] | None:
        """The memoized hits of ``key``, or None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self.stats.record_miss()
            return None
        self.stats.record_hit()
        return entry[0]

    def put(self, key: Hashable, members: int, hits: Sequence[Hit]) -> None:
        """Keep the hits of a key that names ``members`` items."""
        weight = members + len(hits)
        if weight > self.bound:
            return
        evicted = 0
        with self._lock:
            prior = self._entries.pop(key, None)
            if prior is not None:
                self.refs -= prior[1]
            self._entries[key] = (tuple(hits), weight)
            self.refs += weight
            while self.refs > self.bound:
                _key, (_hits, dropped) = self._entries.popitem(last=False)
                self.refs -= dropped
                evicted += 1
        for _ in range(evicted):
            self.stats.record_eviction()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<SearchMemo entries={len(self._entries)} refs={self.refs} "
            f"{self.stats!r}>"
        )


class VectorStore:
    """Similarity search over a model's items."""

    def __init__(
        self,
        model: VectorSpaceModel,
        obs: Observability | None = None,
    ):
        self.model = model
        self.obs = obs if obs is not None else NULL_OBS
        self._index = InvertedIndex()
        self._built = False
        self.maintenance = IndexMaintenanceStats()
        #: Serializes the build: sessions on serving threads may run
        #: their first search at once, and two concurrent loads of one
        #: index corrupt it.
        self._refresh_lock = threading.Lock()
        #: Finished Similar-by-Content searches, for this store's life.
        self.memo = SearchMemo()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def refresh(self) -> bool:
        """Build the index unless it is built; True when this call built it.

        Holds the refresh lock, so a concurrent caller waits for the
        build and then finds the index ready.
        """
        with self._refresh_lock:
            if self._built:
                return False
            self._build()
            self._built = True
            return True

    def _build(self) -> None:
        model = self.model
        with self.obs.tracer.span("store.refresh", items=len(model)):
            count = self._index.bulk_load(
                (item, model.vector(item).items()) for item in model.items
            )
        self.maintenance.full_rebuilds += 1
        self.maintenance.items_reindexed += count

    @property
    def index(self) -> InvertedIndex:
        """The underlying inverted index, built on first use."""
        self.refresh()
        return self._index

    # ------------------------------------------------------------------
    # Search entry points
    # ------------------------------------------------------------------

    @property
    def postings_touched(self) -> int:
        """Total postings examined by searches so far (telemetry)."""
        return self._index.postings_touched

    def search(
        self,
        query: SparseVector,
        k: int = 10,
        exclude: Collection[Node] = (),
    ) -> list[Hit]:
        """Top-k items by dot product against an arbitrary query vector,
        never returning an item of ``exclude``."""
        index = self.index
        before = index.postings_touched
        with self.obs.tracer.span("store.search", k=k) as span:
            hits = top_k(index, query, k, exclude=exclude)
            touched = index.postings_touched - before
            span.set_tag("postings", touched)
        self.obs.metrics.histogram(
            "index.postings_per_search", _POSTINGS_BUCKETS
        ).observe(touched)
        return hits

    def similar_to_item(self, item: Node, k: int = 10) -> list[Hit]:
        """Items most similar to one item, excluding the item itself.

        This backs the "Similar by Content (Overall)" advisor for single
        items (§4.1) — similarity is "fuzzy", covering both structural
        (object) and textual (word) coordinates at once.  Memoized on
        ``(item, k)``.
        """
        key = (item, k)
        hits = self.memo.get(key)
        if hits is None:
            hits = self.search(self.model.vector(item), k, exclude=(item,))
            self.memo.put(key, 1, hits)
        return list(hits)

    def similar_to_collection(
        self, items: Sequence[Node], k: int = 10, include_members: bool = False
    ) -> list[Hit]:
        """Items most similar to a collection's "average member" (§5.3).

        This backs the collection-flavored "Similar by Content" analyst:
        "more items similar to the items in the collection".  By default
        current members are excluded so the advisor suggests *new* items;
        when they cover every indexed item nothing is left to suggest,
        and neither the index is built nor the centroid computed.
        Coverage is decided on the model, whose items are the index's
        documents.

        Memoized on ``(members, k, include_members)`` with the members
        in the caller's order: that is the centroid's summation order,
        so it decides the scores' last bits.
        """
        members = tuple(items)
        key = (members, k, include_members)
        hits = self.memo.get(key)
        if hits is None:
            hits = self._similar_to_collection(members, k, include_members)
            self.memo.put(key, len(members), hits)
        return list(hits)

    def _similar_to_collection(
        self, items: tuple[Node, ...], k: int, include_members: bool
    ) -> list[Hit]:
        if include_members:
            return self.search(self.model.centroid(items), k)
        member_set = set(items)
        model = self.model
        if len(member_set) >= len(model) and member_set.issuperset(model.items):
            return []
        return self.search(model.centroid(items), k, exclude=member_set)

    def search_text(self, text: str, k: int = 10) -> list[Hit]:
        """Fuzzy ranked keyword search via the model's text vector."""
        return self.search(self.model.text_vector(text), k)

    def __len__(self) -> int:
        return len(self.index)

    def __repr__(self) -> str:
        return f"<VectorStore over {self.model!r}>"
