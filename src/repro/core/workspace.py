"""Workspace: one repository wired to every Magnet substrate.

A :class:`Workspace` bundles the graph with its schema view, the
semistructured vector space model, the vector store, the full-text
index, and the query engine — everything analysts consult.  It is the
integration point the Haystack environment provided in the original
system.

A workspace is one immutable snapshot from the moment it is built: its
query context seals the graph, so a later ``add`` or ``remove`` raises
:class:`FrozenWorkspaceError`.  Any number of sessions may read it from
multiple threads, and no derived cache (the extent cache, the
facet-profile memo, the analyst records, the analysis memo) needs a
version key or an invalidation path; they keep exact counters under
that load.  New data reaches a serving process as a new workspace:
:class:`~repro.core.epochs.EpochManager` folds ingested transactions
into the next epoch.
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
    ``"replay"``, ...) so the message — and programmatic handlers —
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
        self._build(graph, schema, items, use_compositions, obs)
        self._wire_metrics()

    @classmethod
    def detached(
        cls,
        graph: Graph,
        *,
        use_compositions: bool = True,
        obs: Observability | None = None,
    ) -> "Workspace":
        """A cold build that leaves the registry's workspace gauges alone.

        ``as_of`` views and the ingest oracle's cold builds share the
        process's ``obs``, so their spans and histograms land in its
        registry, but ``/metrics`` keeps reading the serving
        workspace's caches and ``graph.version``.
        """
        ws = cls.__new__(cls)
        ws._build(graph, None, None, use_compositions, obs)
        return ws

    def _build(
        self,
        graph: Graph,
        schema: Schema | None,
        items: Iterable[Node] | None,
        use_compositions: bool,
        obs: Observability | None,
    ) -> None:
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
        facet-profile memo with the collections the delta left untouched.
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
        ws._wire_metrics()
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
        and an epoch fold cannot drift apart on which ones exist.  The
        query context seals the graph; the universe mask is built here,
        so the first concurrent queries do not race to build it.
        """
        from .analysts.records import AnalystRecords

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
        self.query_context.universe_bits()
        self.query_engine = QueryEngine(self.query_context, obs=obs)
        #: collection -> CollectionProfile, small FIFO
        self._facet_profiles: dict = dict(carried_profiles or {})
        self.facet_profile_stats = CacheStats()
        #: Set on views produced by :meth:`as_of`: the pinned tx.
        self._historical_tx: int | None = None
        #: tx -> historical Workspace view, small FIFO (time-travel
        #: sessions tend to cluster on a few interesting txs).
        self._as_of_views: dict[int, "Workspace"] = {}
        self._as_of_lock = threading.Lock()
        #: Held across the facet-memo check/compute/store so the memo's
        #: hit/miss counters stay exact under concurrent readers.
        self._profile_lock = threading.Lock()
        #: Per-item facet entries and analyst records, filled lazily.
        self._analyst_records = (
            analyst_records
            if analyst_records is not None
            else AnalystRecords(graph, schema, text_index.analyzer)
        )
        #: Postings of view-pure analysts per (analyst, view).
        self.analysis_memo = AnalysisMemo()

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

    def freeze(self) -> "Workspace":
        """Return ``self``: a workspace is sealed when it is built."""
        return self

    def landing_bits(self) -> int:
        """The mask of a landing view (a copy of ``items``).

        The query context's universe is the set of ``items``, so that
        is the universe mask built with the workspace.
        """
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
        bit-identical to a fresh build at that tx.  Like every workspace
        the view is sealed (writes raise :class:`HistoricalWorkspaceError`
        with the operation and tx) and carries caches of its own.  Views
        are memoized per tx, so many sessions can pin the same epoch
        cheaply.
        """
        if not isinstance(tx, int) or isinstance(tx, bool):
            raise ValueError(f"as_of tx must be an integer, got {tx!r}")
        if tx < 0 or tx > self.graph.last_tx:
            raise ValueError(
                f"as_of tx {tx} out of range 0..{self.graph.last_tx}"
            )
        with self._as_of_lock:
            view = self._as_of_views.get(tx)
            if view is not None:
                return view
        with self.obs.tracer.span("store.as_of", tx=tx):
            graph_at = self.graph.as_of(tx)
            # The view shares the parent's obs bundle so telemetry from
            # historical sessions lands in the process registry (and the
            # server's /metrics) alongside live-session telemetry; the
            # workspace gauges stay on the serving workspace.
            view = Workspace.detached(
                graph_at,
                use_compositions=self.model.use_compositions,
                obs=self.obs,
            )
            view._historical_tx = tx
        with self._as_of_lock:
            self._as_of_views.setdefault(tx, view)
            while len(self._as_of_views) > 4:
                self._as_of_views.pop(next(iter(self._as_of_views)))
            return self._as_of_views[tx]

    def label(self, node: Node) -> str:
        """Display name via schema annotations."""
        return self.schema.label(node)

    def facet_profile(self, items: Sequence[Node]):
        """The collection's single-pass metadata profile, memoized.

        Facet overviews, refinement analysts, and range analysts all
        consult the same profile for a given collection, so arriving at
        a view computes it once however many consumers render it.
        """
        key = tuple(items)
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
        """The workspace's per-item facet entries and analyst records.

        Facet profiles and the collection analysts aggregate these
        instead of walking the graph on every view.  The table starts
        empty (or, on an epoch, with the facet entries the fold carried)
        and fills as views touch items.
        """
        return self._analyst_records

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
