"""Precomputed per-item facet records feeding the facet profile.

For every universe item of one graph version, the records capture the
outcome of the classification work :func:`repro.core.analysts.common.
collection_profile` performs per value (facetable? continuous? numeric
reading?), once at build time.  Profiling a collection then reduces to a
single pass of C-level ``Counter.update`` / ``list.extend`` calls per
(item, property) — no per-value Python loop, no ``properties_of``
copies.

Bit-identity is load-bearing, not best-effort: facet Counters leak their
*insertion order* into suggestion ranking via ``Counter.most_common``
tie-breaking, so the records store facet values in exactly the order the
legacy sweep would encounter them — the iteration order of the same
``properties_of`` value-set copies, captured from the same frozen graph
version.  ``profile`` replays items in caller order, so the rebuilt
:class:`~repro.core.analysts.common.CollectionProfile` matches the
legacy sweep byte for byte (the equivalence suite pins this, including
Counter item order).
"""

from __future__ import annotations

import itertools as _chain_mod
from typing import TYPE_CHECKING, Iterable

_chain = _chain_mod.chain

from ..rdf.terms import Node, Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.analysts.common import CollectionProfile
    from ..rdf.graph import Graph
    from ..rdf.schema import Schema

__all__ = ["FacetPostings", "sweep_order"]


#: One record entry per (item, property):
#: (prop index into ``_props``, facet values in sweep order,
#:  value count, continuous count, numeric readings in sweep order).
#: Per-property constants (the resource itself, declared type,
#: is_annotation) live once in ``_props`` — the int index keeps the
#: profile hot loop free of Node hashing entirely.
_Entry = tuple[int, tuple[Node, ...], int, int, tuple[float, ...]]


def sweep_order(graph: "Graph", universe: "set[Node]") -> list[Node]:
    """``universe`` in the order postings are built and advanced in.

    Graph insertion order: ``profile()`` walks items in collection
    order, which matches it, so the record sweep stays sequential
    instead of pointer-chasing a set-ordered dict (~1.7x at 64k items).
    Nodes of a custom universe that carry no triples go last.
    """
    ordered = [s for s in graph.subjects() if s in universe]
    if len(ordered) != len(universe):
        ordered.extend(universe.difference(ordered))
    return ordered


class FacetPostings:
    """Version-pinned per-item facet records for single-pass profiles."""

    __slots__ = (
        "graph",
        "schema",
        "version",
        "n_items",
        "n_entries",
        "reused_records",
        "rebuilt_records",
        "_props",
        "_records",
    )

    def __init__(self, graph: "Graph", schema: "Schema", version: int):
        self.graph = graph
        self.schema = schema
        self.version = version
        self.n_items = 0
        self.n_entries = 0
        #: records carried over unchanged from a prior build (advance).
        self.reused_records = 0
        #: records swept from the graph this build.
        self.rebuilt_records = 0
        #: prop_idx -> (prop, declared type, is_annotation).
        self._props: list[tuple[Resource, "str | None", bool]] = []
        self._records: dict[Node, tuple[_Entry, ...]] = {}

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, graph: "Graph", schema: "Schema", items: Iterable[Node]
    ) -> "FacetPostings":
        """Sweep ``items`` once, capturing per-item facet records.

        The sweep iterates ``properties_of`` copies — the same objects
        the legacy profile iterates — so the captured value order is the
        order any later legacy sweep of the same graph version would
        see.
        """
        from ..core.analysts.common import ANNOTATION_PROPERTIES, classify_value

        postings = cls(graph, schema, graph.version)
        records = postings._records
        #: prop -> None (hidden) | (prop_idx, declared, value memo)
        prop_meta: dict[Resource, tuple | None] = {}
        n_entries = 0
        for item in items:
            rec = postings._sweep_item(item, prop_meta)
            records[item] = rec
            n_entries += len(rec)
        postings.n_items = len(records)
        postings.n_entries = n_entries
        postings.rebuilt_records = len(records)
        return postings

    @classmethod
    def advance(
        cls,
        prior: "FacetPostings",
        graph: "Graph",
        schema: "Schema",
        items: Iterable[Node],
        dirty: "set[Node]",
    ) -> "FacetPostings":
        """Build postings for the next epoch, re-sweeping only ``dirty``.

        Records of items outside ``dirty`` are carried over verbatim —
        valid because an untouched item's ``properties_of`` view (and
        hence its sweep outcome) is shared, unchanged, between the prior
        graph and the fork.  ``items`` must be the new build population
        in sweep order; the property table extends the prior one so
        carried records' indices stay valid.
        """
        postings = cls(graph, schema, graph.version)
        postings._props = list(prior._props)
        prop_meta: dict[Resource, tuple | None] = {
            prop: (idx, declared, {})
            for idx, (prop, declared, _ann) in enumerate(prior._props)
        }
        prior_records = prior._records
        records = postings._records
        n_entries = 0
        reused = rebuilt = 0
        for item in items:
            rec = prior_records.get(item) if item not in dirty else None
            if rec is None:
                rec = postings._sweep_item(item, prop_meta)
                rebuilt += 1
            else:
                reused += 1
            records[item] = rec
            n_entries += len(rec)
        postings.n_items = len(records)
        postings.n_entries = n_entries
        postings.reused_records = reused
        postings.rebuilt_records = rebuilt
        return postings

    def _sweep_item(
        self, item: Node, prop_meta: "dict[Resource, tuple | None]"
    ) -> tuple[_Entry, ...]:
        """Classify one item's values exactly as the legacy sweep would."""
        from ..core.analysts.common import ANNOTATION_PROPERTIES, classify_value

        graph = self.graph
        schema = self.schema
        props = self._props
        entries: list[_Entry] = []
        for prop, values in graph.properties_of(item).items():
            meta = prop_meta.get(prop, _MISSING)
            if meta is _MISSING:
                if schema.is_hidden(prop):
                    meta = None
                else:
                    declared = schema.value_type(prop)
                    meta = (len(props), declared, {})
                    props.append(
                        (prop, declared, prop in ANNOTATION_PROPERTIES)
                    )
                prop_meta[prop] = meta
            if meta is None:
                continue
            prop_idx, declared, value_info = meta
            facet_values: list[Node] = []
            readings: list[float] = []
            continuous_seen = 0
            for value in values:
                info = value_info.get(value)
                if info is None:
                    info = value_info[value] = classify_value(value, declared)
                facetable, continuous, number = info
                if facetable:
                    facet_values.append(value)
                if continuous:
                    continuous_seen += 1
                if number is not None:
                    readings.append(number)
            entries.append(
                (
                    prop_idx,
                    tuple(facet_values),
                    len(values),
                    continuous_seen,
                    tuple(readings),
                )
            )
        return tuple(entries)

    def covers(self, items: Iterable[Node]) -> bool:
        """True when every item has a record (profile won't fall back)."""
        records = self._records
        return all(item in records for item in items)

    # ------------------------------------------------------------------
    # Compiled facet profile
    # ------------------------------------------------------------------

    def profile(self, items) -> "CollectionProfile | None":
        """A :class:`CollectionProfile` bit-identical to the legacy sweep.

        Returns None when any item lacks a record (an item outside the
        build population) — the caller falls back to the legacy sweep.

        Two-phase for speed: a minimal item-order pass buckets entries
        per property (this fixes both the property *first-encounter*
        order and, within each bucket, the item-order value sequence),
        then each property aggregates with C-level ``chain`` +
        ``Counter.update`` calls.  Concatenated-then-counted values see
        first occurrences in exactly the order per-entry updates would,
        so Counter insertion order — which ``most_common`` tie-breaking
        leaks into suggestions — is preserved.
        """
        from ..core.analysts.common import CollectionProfile, PropertyProfile

        records = self._records
        props = self._props
        profile = CollectionProfile(len(items))
        properties = profile.properties
        buckets: list[list[_Entry] | None] = [None] * len(props)
        order: list[int] = []
        append_order = order.append
        for item in items:
            rec = records.get(item)
            if rec is None:
                return None
            for entry in rec:
                idx = entry[0]
                bucket = buckets[idx]
                if bucket is None:
                    buckets[idx] = [entry]
                    append_order(idx)
                else:
                    bucket.append(entry)
        chain = _chain.from_iterable
        for idx in order:
            bucket = buckets[idx]
            prop, declared, is_annotation = props[idx]
            prop_profile = PropertyProfile(prop, declared, is_annotation)
            properties[prop] = prop_profile
            prop_profile.coverage = len(bucket)
            prop_profile.value_tally = sum([entry[2] for entry in bucket])
            prop_profile.continuous_tally = sum(
                [entry[3] for entry in bucket]
            )
            prop_profile.counts.update(
                chain([entry[1] for entry in bucket])
            )
            prop_profile._readings = list(
                chain([entry[4] for entry in bucket])
            )
        return profile

    def __repr__(self) -> str:
        return (
            f"<FacetPostings v{self.version} items={self.n_items} "
            f"entries={self.n_entries}>"
        )


_MISSING = object()
