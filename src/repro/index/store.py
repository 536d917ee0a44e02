"""VectorStore: the vector-space database of §5.2.

Wraps a :class:`~repro.vsm.model.VectorSpaceModel` with an inverted
index over its *weighted* vectors so similarity searches ("Similar by
Content", collection-to-item retrieval) run in sublinear time.

The index is exact by construction: it is one build of every item's
current weighted vector, taken at one ``stats.version`` of the model.
Every weight depends on corpus statistics (log-idf and the unit-length
document norm), so a change to the model's membership moves them all;
the next refresh after any such change therefore rebuilds the whole
index at current statistics.  A cold build and a store refreshed after
any history of changes hold equal postings.
"""

from __future__ import annotations

import threading
from typing import Collection, Sequence

from ..obs import NULL_OBS, Observability
from ..perf.stats import IndexMaintenanceStats
from ..rdf.terms import Node
from ..vsm.model import VectorSpaceModel
from ..vsm.vector import SparseVector
from .inverted import InvertedIndex
from .search import Hit, top_k

__all__ = ["VectorStore"]

#: Fixed buckets for postings examined per top-k search.
_POSTINGS_BUCKETS = (10, 100, 1_000, 10_000, 100_000)


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
        #: the model's ``stats.version`` the index was built at
        self._built_version = -1
        self.maintenance = IndexMaintenanceStats()
        #: Serializes refresh: sessions on serving threads may run their
        #: first search at once, and two concurrent rebuilds of one
        #: index corrupt it.
        self._refresh_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def refresh(self) -> bool:
        """Rebuild the index if the model changed since the last build.

        True when a rebuild ran.  Holds the refresh lock, so a
        concurrent caller waits for the build and then finds the index
        current.
        """
        with self._refresh_lock:
            if self._built_version == self.model.stats.version:
                return False
            self._rebuild()
            return True

    def _rebuild(self) -> None:
        model = self.model
        with self.obs.tracer.span("store.refresh", items=len(model)):
            self._index.clear()
            count = self._index.bulk_load(
                (item, model.vector(item).items()) for item in model.items
            )
        self._built_version = model.stats.version
        self.maintenance.full_rebuilds += 1
        self.maintenance.items_reindexed += count

    @property
    def index(self) -> InvertedIndex:
        """The (refreshed) underlying inverted index."""
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
        (object) and textual (word) coordinates at once.
        """
        query = self.model.vector(item)
        return self.search(query, k, exclude=(item,))

    def similar_to_collection(
        self, items: Sequence[Node], k: int = 10, include_members: bool = False
    ) -> list[Hit]:
        """Items most similar to a collection's "average member" (§5.3).

        This backs the collection-flavored "Similar by Content" analyst:
        "more items similar to the items in the collection".  By default
        current members are excluded so the advisor suggests *new* items;
        when they cover every indexed item nothing is left to suggest,
        and neither the index is refreshed nor the centroid computed.
        Coverage is decided on the model, whose items are the index's
        documents after any refresh.
        """
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
