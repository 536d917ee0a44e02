"""Workspace: one repository wired to every Magnet substrate.

A :class:`Workspace` bundles the graph with its schema view, the
semistructured vector space model, the vector store, the full-text
index, and the query engine — everything analysts consult.  It is the
integration point the Haystack environment provided in the original
system.

For concurrent serving the workspace is treated as a shared,
read-mostly artifact: :meth:`Workspace.freeze` seals it (mutation
raises :class:`FrozenWorkspaceError`), after which any number of
sessions may read it from multiple threads — the extent cache, the
facet-profile memo, the analysis memo, and the intern table keep exact
counters under that load.  Unfrozen mutation is serialized by an
internal lock.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from ..index.store import VectorStore
from ..index.textindex import TextIndex
from ..obs import Observability
from ..perf.stats import CacheStats
from ..query.ast import QueryContext
from ..query.engine import QueryEngine
from ..rdf.graph import Graph
from ..rdf.schema import Schema
from ..rdf.terms import Node
from ..rdf.vocab import RDF
from .analysis_memo import AnalysisMemo

__all__ = ["Workspace", "FrozenWorkspaceError", "HistoricalWorkspaceError"]


class FrozenWorkspaceError(RuntimeError):
    """Raised when a sealed workspace (or its graph) is mutated.

    Carries the attempted ``operation`` name (``"add"``, ``"remove"``,
    ``"add_item"``, ...) so the message — and programmatic handlers —
    can say *what* was refused, not just that something was.
    """

    def __init__(
        self,
        message: str,
        *,
        operation: str | None = None,
        tx: int | None = None,
    ):
        super().__init__(message)
        self.operation = operation
        self.tx = tx


class HistoricalWorkspaceError(FrozenWorkspaceError):
    """A write hit an ``as_of`` historical view.

    Subclasses :class:`FrozenWorkspaceError` (a historical view is a
    frozen workspace, so existing handlers keep working) and carries the
    pinned transaction id ``tx`` alongside the attempted operation.
    """


class Workspace:
    """A graph plus the derived indexes Magnet navigates with."""

    def __init__(
        self,
        graph: Graph,
        schema: Schema | None = None,
        items: Iterable[Node] | None = None,
        use_compositions: bool = True,
        obs: Observability | None = None,
    ):
        from ..vsm.model import VectorSpaceModel

        obs = obs if obs is not None else Observability(tracing=False)
        schema = schema if schema is not None else Schema(graph)
        if items is None:
            item_list = sorted(
                {s for s, _p, _o in graph.triples(None, RDF.type, None)},
                key=lambda n: n.n3(),
            )
        else:
            item_list = list(items)
        model = VectorSpaceModel(
            graph, schema=schema, use_compositions=use_compositions
        )
        model.index_items(item_list)
        vector_store = VectorStore(model, obs=obs)
        text_index = TextIndex(graph)
        text_index.index_items(item_list)
        self._assemble(
            graph, schema, item_list, model, vector_store, text_index, obs
        )

    @classmethod
    def from_substrates(
        cls,
        graph: Graph,
        schema: Schema,
        items: Sequence[Node],
        model,
        vector_store: VectorStore,
        text_index: TextIndex,
        *,
        obs: Observability | None = None,
        analyst_records=None,
        carried_profiles: dict | None = None,
    ) -> "Workspace":
        """Assemble a workspace around pre-built substrates.

        The epoch reindexer advances the previous epoch's model, text
        index and analyst records incrementally, builds a vector store
        over the advanced model, then wires them into a fresh workspace
        here — skipping the cold
        ``index_items`` pass entirely.  ``carried_profiles`` seeds the
        facet-profile memo (already re-keyed to the new graph version).
        """
        ws = cls.__new__(cls)
        ws._assemble(
            graph,
            schema,
            list(items),
            model,
            vector_store,
            text_index,
            obs if obs is not None else Observability(tracing=False),
            analyst_records=analyst_records,
            carried_profiles=carried_profiles,
        )
        return ws

    def _assemble(
        self,
        graph: Graph,
        schema: Schema,
        items: list[Node],
        model,
        vector_store: VectorStore,
        text_index: TextIndex,
        obs: Observability,
        *,
        analyst_records=None,
        carried_profiles: dict | None = None,
    ) -> None:
        """Wire the substrates, the query layer and every derived cache.

        The one place a workspace's caches are set up, so a cold build
        and an epoch fold cannot drift apart on which ones exist.
        """
        #: Shared tracing + metrics context; tracing is off by default
        #: (no-op tracer), telemetry gauges are wired regardless.
        self.obs = obs
        self.graph = graph
        self.schema = schema
        self.items: list[Node] = items
        self.model = model
        self.vector_store = vector_store
        self.text_index = text_index
        self.query_context = QueryContext(
            graph,
            schema=schema,
            text_index=text_index,
            universe=set(items),
        )
        self.query_engine = QueryEngine(self.query_context, obs=obs)
        #: (graph version, collection) -> CollectionProfile, small FIFO
        self._facet_profiles: dict = dict(carried_profiles or {})
        self.facet_profile_stats = CacheStats()
        self._frozen = False
        #: Set by :meth:`freeze`: whether ``items`` lists the universe.
        self._items_are_universe = False
        #: Set on views produced by :meth:`as_of`: the pinned tx.
        self._historical_tx: int | None = None
        #: tx -> historical Workspace view, small FIFO (time-travel
        #: sessions tend to cluster on a few interesting txs).
        self._as_of_views: dict[int, "Workspace"] = {}
        #: Serializes the unfrozen mutation path (add_item).
        self._mutation_lock = threading.RLock()
        #: Held across the facet-memo check/compute/store so the memo's
        #: hit/miss counters stay exact under concurrent readers.
        self._profile_lock = threading.Lock()
        #: Per-item facet entries and analyst records of one graph
        #: version, built lazily.
        self._analyst_records = analyst_records
        self._records_lock = threading.Lock()
        #: Postings of view-pure analysts per (analyst, view), valid for
        #: one (graph version, stats version).
        self.analysis_memo = AnalysisMemo()
        self._wire_metrics()

    def _wire_metrics(self) -> None:
        """Expose the substrate counters as lazy snapshot-time gauges.

        The hot paths already maintain these numbers (PR-1's
        ``CacheStats`` / ``IndexMaintenanceStats``); registering pull
        callbacks means telemetry costs nothing until someone snapshots.
        """
        metrics = self.obs.metrics
        cache = self.query_context.cache_stats
        metrics.gauge_fn("query.extent_cache.hits", lambda: cache.hits)
        metrics.gauge_fn("query.extent_cache.misses", lambda: cache.misses)
        metrics.gauge_fn(
            "query.extent_cache.invalidations", lambda: cache.invalidations
        )
        metrics.gauge_fn(
            "query.extent_cache.evictions", lambda: cache.evictions
        )
        metrics.gauge_fn("query.extent_cache.hit_rate", lambda: cache.hit_rate)
        memo = self.facet_profile_stats
        metrics.gauge_fn("facets.profile_memo.hits", lambda: memo.hits)
        metrics.gauge_fn("facets.profile_memo.misses", lambda: memo.misses)
        analysis = self.analysis_memo.stats
        metrics.gauge_fn("nav.analysis_memo.hits", lambda: analysis.hits)
        metrics.gauge_fn("nav.analysis_memo.misses", lambda: analysis.misses)
        metrics.gauge_fn(
            "nav.analysis_memo.evictions", lambda: analysis.evictions
        )
        maintenance = self.vector_store.maintenance
        metrics.gauge_fn(
            "store.full_rebuilds", lambda: maintenance.full_rebuilds
        )
        metrics.gauge_fn(
            "store.items_reindexed", lambda: maintenance.items_reindexed
        )
        metrics.gauge_fn(
            "index.postings_touched",
            lambda: self.vector_store.postings_touched,
        )
        metrics.gauge_fn("graph.version", lambda: self.graph.version)

    # ------------------------------------------------------------------
    # Sealing (shared read-mostly serving)
    # ------------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has sealed the workspace."""
        return self._frozen

    def freeze(self) -> "Workspace":
        """Seal the workspace for concurrent read-only serving.

        Idempotent.  Locks the graph and the workspace mutation path
        (:class:`FrozenWorkspaceError` from then on) and pre-warms the
        universe bitmask so the first concurrent queries do not race to
        build it.  Returns ``self`` for chaining.
        """
        with self._mutation_lock:
            if self._frozen:
                return self
            self.graph.freeze()
            context = self.query_context
            context.universe_bits()
            self._items_are_universe = set(self.items) == context.universe
            self._frozen = True
        return self

    def landing_bits(self) -> int | None:
        """The mask of a landing view (a copy of ``items``), if known.

        On a frozen workspace whose ``items`` list the universe, that is
        the cached universe mask; otherwise None, and the view interns
        its items on first use.
        """
        if not self._items_are_universe:
            return None
        return self.query_context.universe_bits()

    @property
    def as_of_tx(self) -> int | None:
        """The pinned transaction id of an ``as_of`` view, else None."""
        return self._historical_tx

    def as_of(self, tx: int) -> "Workspace":
        """An immutable workspace over the graph as of transaction ``tx``.

        Replays the datom-log prefix ``tx' <= tx`` into a fresh frozen
        graph and builds every substrate — schema view, vector model,
        text index, query engine — over it, exactly as a cold build at
        that point in history would have: suggestions over the view are
        bit-identical to a fresh build at that tx.  The view is sealed
        (writes raise :class:`HistoricalWorkspaceError` with the
        operation and tx) and carries its own version-pinned caches
        keyed by the historical graph's ``(version, tx)``.  Views are
        memoized per tx, so many sessions can pin the same epoch
        cheaply.  Composes with :meth:`freeze`: the base workspace may
        be frozen or live.
        """
        if not isinstance(tx, int) or isinstance(tx, bool):
            raise ValueError(f"as_of tx must be an integer, got {tx!r}")
        if tx < 0 or tx > self.graph.last_tx:
            raise ValueError(
                f"as_of tx {tx} out of range 0..{self.graph.last_tx}"
            )
        with self._mutation_lock:
            view = self._as_of_views.get(tx)
            if view is not None:
                return view
        with self.obs.tracer.span("store.as_of", tx=tx):
            graph_at = self.graph.as_of(tx)
            # The view shares the parent's obs bundle so telemetry from
            # historical sessions lands in the process registry (and the
            # server's /metrics) alongside live-session telemetry.
            view = Workspace(
                graph_at,
                use_compositions=self.model.use_compositions,
                obs=self.obs,
            )
            view._historical_tx = tx
            view.freeze()
        with self._mutation_lock:
            self._as_of_views.setdefault(tx, view)
            while len(self._as_of_views) > 4:
                self._as_of_views.pop(next(iter(self._as_of_views)))
            return self._as_of_views[tx]

    def add_item(self, item: Node) -> None:
        """Index a newly arrived item across every substrate (§5.2)."""
        with self._mutation_lock:
            if self._historical_tx is not None:
                raise HistoricalWorkspaceError(
                    f"workspace is a historical as-of view at tx "
                    f"{self._historical_tx}; cannot add_item",
                    operation="add_item",
                    tx=self._historical_tx,
                )
            if self._frozen:
                raise FrozenWorkspaceError(
                    "workspace is frozen; cannot add_item",
                    operation="add_item",
                )
            if item not in self.model:
                self.items.append(item)
            self.model.add_item(item)
            self.text_index.index_item(item)
            self.query_context.universe.add(item)

    def label(self, node: Node) -> str:
        """Display name via schema annotations."""
        return self.schema.label(node)

    def facet_profile(self, items: Sequence[Node]):
        """The collection's single-pass metadata profile, memoized.

        Facet overviews, refinement analysts, and range analysts all
        consult the same profile for a given (collection, graph version)
        pair, so arriving at a view computes it once however many
        consumers render it.  Keyed on the graph's mutation version, the
        memo self-invalidates on any repository change.
        """
        key = (self.graph.version, tuple(items))
        with self._profile_lock:
            profile = self._facet_profiles.get(key)
            if profile is not None:
                self.facet_profile_stats.hits += 1
                return profile
            self.facet_profile_stats.misses += 1
            with self.obs.tracer.span("facets.profile", items=len(items)):
                profile = self.analyst_records().profile(items)
            self._facet_profiles[key] = profile
            while len(self._facet_profiles) > 8:
                self._facet_profiles.pop(next(iter(self._facet_profiles)))
            return profile

    def analyst_records(self):
        """The per-item facet entries and analyst records of the current
        graph version.

        Facet profiles and the collection analysts aggregate these
        instead of walking the graph on every view.  The table starts
        empty (or, on an epoch, with the facet entries the fold carried)
        and fills as views touch items; it is replaced when the graph
        version moves, so a profile or cycle after any graph change on
        an unfrozen workspace sees the change.
        """
        from .analysts.records import AnalystRecords

        version = self.graph.version
        with self._records_lock:
            records = self._analyst_records
            if records is None or records.version != version:
                records = AnalystRecords(
                    self.graph, self.schema, self.text_index.analyzer
                )
                self._analyst_records = records
            return records

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Write the repository to ``path`` as N-Triples.

        Schema annotations are ordinary triples, so labels, value types,
        compositions, and hidden-property marks all travel with the
        data; the derived indexes are rebuilt on load.
        """
        from ..rdf.ntriples import serialize_ntriples

        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_ntriples(self.graph.triples()))

    @classmethod
    def load(cls, path, items: Iterable[Node] | None = None) -> "Workspace":
        """Rebuild a workspace from a saved N-Triples file."""
        from ..rdf.ntriples import parse_ntriples

        with open(path, encoding="utf-8") as handle:
            graph = parse_ntriples(handle.read())
        return cls(graph, items=items)

    def __repr__(self) -> str:
        return (
            f"<Workspace items={len(self.items)} "
            f"triples={len(self.graph)}>"
        )
