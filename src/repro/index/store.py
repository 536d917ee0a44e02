"""VectorStore: the vector-space database of §5.2.

Wraps a :class:`~repro.vsm.model.VectorSpaceModel` with an inverted
index over its *weighted* vectors so similarity searches ("Similar by
Content", collection-to-item retrieval) run in sublinear time.  Because
weights depend on corpus statistics, the index records the stats version
it was built against — mirroring how Magnet "indexes the data in advance
(as it arrives)" yet always ranks with current idf values.

Maintenance is incremental when it can be.  The store subscribes to the
model's membership changes and, at refresh time, measures how far corpus
idf values have drifted since the index was last built exactly.  Below
``drift_threshold`` only the changed items are (re)indexed — unchanged
postings keep their build-time weights, which differ from current
weights by at most the measured drift.  At or above the threshold the
whole index is rebuilt with exact current weights.  A threshold of
``0.0`` therefore recovers the historical rebuild-on-every-change
behavior exactly.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from typing import Collection, Sequence

from ..obs import NULL_OBS, Observability
from ..perf.stats import IndexMaintenanceStats
from ..rdf.terms import Node
from ..vsm.model import VectorSpaceModel
from ..vsm.vector import SparseVector
from ..vsm.weighting import idf
from .inverted import InvertedIndex
from .search import Hit, top_k

__all__ = ["VectorStore"]

#: Fixed buckets for postings examined per top-k search.
_POSTINGS_BUCKETS = (10, 100, 1_000, 10_000, 100_000)

#: Small enough that small corpora always rebuild exactly (one document
#: among a few hundred shifts every idf by more than this), large enough
#: that paper-scale corpora (thousands of items) absorb single-item
#: arrivals incrementally.
DEFAULT_DRIFT_THRESHOLD = 0.01


class VectorStore:
    """Similarity search over a model's items."""

    def __init__(
        self,
        model: VectorSpaceModel,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        obs: Observability | None = None,
        exact: bool = False,
    ):
        self.model = model
        self.drift_threshold = drift_threshold
        #: When set, incremental updates are taken only at *zero* idf
        #: drift — where stored weights provably equal a fresh build's —
        #: so the index is bit-identical to a cold rebuild after every
        #: refresh.  Epoch snapshots run in this mode: the byte-parity
        #: oracle (`as_of` at the watermark) demands it.
        self.exact = exact
        self.obs = obs if obs is not None else NULL_OBS
        self._index = InvertedIndex()
        self._built_version = -1
        #: corpus size at the last *exact* build (drift baseline)
        self._built_num_docs = 0
        #: coord -> net document-frequency change since the last build
        self._df_delta: Counter = Counter()
        #: item -> last membership op ("add"/"remove") since last refresh
        self._pending: dict[Node, str] = {}
        #: accumulated drift already *baked into* postings by previous
        #: incremental updates.  After an incremental refresh the index
        #: mixes build-time weights with just-reindexed current weights;
        #: measuring later drift only against the build baseline would
        #: understate how stale the reindexed items have become.  The
        #: refresh gate therefore bounds the total: measured + baked.
        self._stale_drift = 0.0
        self.maintenance = IndexMaintenanceStats()
        #: Serializes refresh: sessions on serving threads may run their
        #: first search at once, and two concurrent rebuilds of one
        #: index corrupt it.
        self._refresh_lock = threading.Lock()
        model.add_listener(self._on_model_change)

    @classmethod
    def advance_from(
        cls,
        prior: "VectorStore",
        model: VectorSpaceModel,
        obs: Observability | None = None,
    ) -> "VectorStore":
        """Seed a store for ``model`` from a refreshed prior store.

        ``model`` must be a clone of ``prior.model`` *before* any delta
        is applied: the new store registers its listener here, so every
        subsequent membership change lands in its pending set.  The
        prior is refreshed first; seeding assumes its postings are exact
        at its current statistics, which ``exact=True`` guarantees after
        every refresh (epoch folds only advance exact stores).
        """
        prior.refresh()
        store = cls.__new__(cls)
        store.model = model
        store.drift_threshold = prior.drift_threshold
        store.exact = prior.exact
        store.obs = obs if obs is not None else prior.obs
        store._index = prior._index.copy()
        store._built_version = model.stats.version
        store._built_num_docs = model.stats.num_docs
        store._df_delta = Counter()
        store._pending = {}
        store._stale_drift = 0.0
        store.maintenance = IndexMaintenanceStats()
        store._refresh_lock = threading.Lock()
        model.add_listener(store._on_model_change)
        return store

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _on_model_change(self, op: str, item: Node, coords: tuple) -> None:
        self._pending[item] = op
        delta = 1 if op == "add" else -1
        df_delta = self._df_delta
        for coord in coords:
            net = df_delta[coord] + delta
            if net:
                df_delta[coord] = net
            else:
                # A retract/assert churn loop would otherwise grow the
                # counter without bound with dead zero entries.
                del df_delta[coord]

    def _idf_drift(self) -> float:
        """Worst-case |Δidf| between build-time and current statistics.

        Every coordinate's idf moves by ``|log(N/N₀)|`` when only the
        corpus size changes, so that is the floor; coordinates whose
        document frequency also changed are checked individually.
        """
        stats = self.model.stats
        current_n = stats.num_docs
        built_n = self._built_num_docs
        if built_n <= 0 or current_n <= 0:
            return math.inf
        drift = abs(math.log(current_n / built_n))
        for coord, delta in self._df_delta.items():
            if not delta:
                continue
            current_df = stats.doc_frequency(coord)
            built_df = current_df - delta
            if built_df <= 0 or current_df <= 0:
                # The coordinate was born (or died) since the build:
                # every document carrying it is pending and will be
                # reindexed with exact weights, so no stale posting can
                # depend on its idf.
                continue
            drift = max(
                drift,
                abs(idf(current_n, current_df) - idf(built_n, built_df)),
            )
        return drift

    def refresh(self) -> bool:
        """Bring the index up to date; True when any work was done.

        Chooses between a delta update (only items whose membership
        changed are touched) and an exact full rebuild, based on how far
        idf values have drifted since the last exact build.  Holds the
        refresh lock, so a concurrent caller waits for the work and then
        finds the index current.
        """
        with self._refresh_lock:
            return self._refresh()

    def _refresh(self) -> bool:
        if self._built_version == self.model.stats.version and not self._pending:
            return False
        drift = self._idf_drift() if self._pending else math.inf
        if self.exact:
            # Zero measured drift means every stored weight provably
            # equals what a fresh build would compute (N unchanged, all
            # surviving coordinates at unchanged document frequency), so
            # the delta update is bit-identical to a rebuild.
            incremental = bool(self._pending) and drift == 0.0
        else:
            incremental = (
                bool(self._pending)
                and drift + self._stale_drift < self.drift_threshold
            )
        with self.obs.tracer.span(
            "store.refresh",
            decision="incremental" if incremental else "rebuild",
            pending=len(self._pending),
        ):
            if incremental:
                self._apply_pending(drift)
            else:
                self._rebuild()
        return True

    def rebuild(self) -> None:
        """Force an exact rebuild at current corpus statistics."""
        with self._refresh_lock:
            self._rebuild()

    def _apply_pending(self, drift: float = 0.0) -> None:
        model = self.model
        index = self._index
        reindexed = 0
        for item, op in self._pending.items():
            if op == "add" and item in model:
                index.add(item, model.vector(item).items())
                reindexed += 1
            else:
                index.remove(item)
        self._pending.clear()
        self._built_version = model.stats.version
        if self.exact:
            # drift == 0.0 here, so the index is exact at *current*
            # statistics — move the baseline forward accordingly.
            self._built_num_docs = model.stats.num_docs
            self._df_delta.clear()
        else:
            self._stale_drift += drift
        self.maintenance.incremental_updates += 1
        self.maintenance.items_reindexed += reindexed

    def _rebuild(self) -> None:
        model = self.model
        self._index.clear()
        count = self._index.bulk_load(
            (item, model.vector(item).items()) for item in model.items
        )
        self._built_version = model.stats.version
        self._built_num_docs = model.stats.num_docs
        self._df_delta.clear()
        self._pending.clear()
        self._stale_drift = 0.0
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
