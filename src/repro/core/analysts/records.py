"""Per-item analyst records: one graph pass per item, reused by every view.

The blackboard analysts that summarise a collection read the same few
facts about every item in view, and on a whole-corpus landing walking
``properties_of`` for each of them (plus re-tokenizing and re-stemming
every text value) is nearly all of a suggestion cycle.  What each
analyst extracts from an item depends only on the item and the graph,
so :class:`AnalystRecords` computes it once per item of a workspace's
sealed graph, in two parts built apart, so that a caller of one never
pays for the other:

* **Facet entries** — per (item, property), the outcome of the
  classification :func:`~.common.collection_profile` performs per value
  (facetable? continuous? numeric reading?).  :meth:`AnalystRecords.profile`
  folds them into the :class:`~.common.CollectionProfile` the
  refinement and range analysts and the facet overview read, with one
  pass of C-level ``Counter.update`` and ``chain`` calls per
  property instead of a per-value Python loop.
* **Item records** (:class:`ItemRecord`, :meth:`AnalystRecords.of`) —
  what the path, text-refinement and related-collections analysts
  aggregate:

  - ``chips`` — the distinct facetable two-hop ``(p1, p2, value)``
    chains leaving the item (what :class:`~.paths.PathAnalyst` counts);
  - ``words`` — per text property, the distinct stems and the raw
    tokens in occurrence order (what
    :class:`~.keyword.TextRefinementAnalyst` counts and displays);
  - ``targets`` — per property, its non-literal values, properties
    without any omitted (what
    :class:`~.collection_nav.RelatedCollectionsAnalyst` gathers).

Both parts iterate the same ``properties_of`` copies the graph sweep
does, so value order, and hence every tie broken by first occurrence,
is unchanged.  That is load-bearing for the facet part: Counter
*insertion order* leaks into suggestion ranking through
``most_common`` tie-breaking, so entries keep facet values in sweep
order and :meth:`AnalystRecords.profile` replays items in caller order,
matching ``collection_profile`` byte for byte.  Raw tokens and stems
are interned per table, and chips, properties and values are held as
small integer ids (:meth:`AnalystRecords.chip`,
:meth:`AnalystRecords.node`): a corpus repeats the same few thousand of
each across its items, and counting ints keeps aggregation in C, where
a term's hash would be a Python call.
"""

from __future__ import annotations

import threading
from itertools import chain
from operator import itemgetter
from typing import Callable, Sequence

from ...rdf.graph import Graph
from ...rdf.schema import Schema
from ...rdf.terms import Literal, Node, Resource
from ...vsm.tokenizer import Analyzer, tokenize
from .common import (
    ANNOTATION_PROPERTIES,
    CollectionProfile,
    PropertyProfile,
    classify_value,
    is_facetable_value,
)

__all__ = ["ItemRecord", "AnalystRecords"]

#: Memo entry for a raw token the analyzer drops as a stop word.
_STOP = ("", "")

#: One facet entry per (item, property): (prop index into ``_props``,
#: facet values in sweep order, value count, continuous count, numeric
#: readings in sweep order).  Per-property constants (the resource,
#: declared type, is_annotation) live once in ``_props``, so the
#: profile's bucketing loop hashes no Node.
_Entry = tuple[int, tuple[Node, ...], int, int, tuple[float, ...]]
_FACET_VALUES = itemgetter(1)
_VALUE_COUNT = itemgetter(2)
_CONTINUOUS = itemgetter(3)
_READINGS = itemgetter(4)

#: Sentinel for a property the facet sweep has not met yet.
_UNSEEN = object()


class ItemRecord:
    """What the collection analysts need from one item."""

    __slots__ = ("chips", "words", "targets")

    def __init__(self, chips: tuple, words: tuple, targets: tuple):
        #: distinct chip ids of the item's (p1, p2, value) chains
        self.chips = chips
        #: (prop id, distinct stems, raw tokens in occurrence order) per
        #: text property with at least one non-stop token
        self.words = words
        #: (prop id, non-literal value ids) per property with at least one
        self.targets = targets


class AnalystRecords:
    """Lazily filled per-item facet entries and :class:`ItemRecord` s.

    One table per workspace, built with it and read through
    :meth:`~repro.core.workspace.Workspace.analyst_records`; an epoch
    fold carries the facet part forward with :meth:`advance`.  Built
    entries and records are read without a lock; building (and the id
    and intern tables it grows) is serialized, since sessions on one
    workspace share one table across threads.
    """

    def __init__(self, graph: Graph, schema: Schema, analyzer: Analyzer):
        self.graph = graph
        self.schema = schema
        self.analyzer = analyzer
        self._records: dict[Node, ItemRecord] = {}
        self._build_lock = threading.Lock()
        #: item -> facet entries, in ``properties_of`` order
        self._facets: dict[Node, tuple[_Entry, ...]] = {}
        #: facet prop index -> (prop, declared type, is_annotation)
        self._props: list[tuple[Resource, str | None, bool]] = []
        #: prop -> None (hidden) | (prop index, declared type,
        #: value -> classify_value outcome)
        self._prop_meta: dict[Resource, tuple | None] = {}
        #: property -> skipped (annotation plumbing or hidden)
        self._skip: dict = {}
        #: node -> id, and id -> node
        self._node_ids: dict[Node, int] = {}
        self._nodes: list[Node] = []
        #: (p1, p2, value) -> id, and id -> chain
        self._chip_ids: dict[tuple, int] = {}
        self._chips: list[tuple] = []
        #: (p1, mid) -> ids of the chips through that mid
        self._chips_via: dict = {}
        #: raw token -> (interned raw, interned stem), or _STOP
        self._words: dict[str, tuple[str, str]] = {}
        #: stem -> the one shared string
        self._stems: dict[str, str] = {}

    @classmethod
    def advance(
        cls,
        prior: "AnalystRecords",
        graph: Graph,
        schema: Schema,
        dirty: set[Node],
    ) -> "AnalystRecords":
        """The table of an epoch fold's graph, carrying ``prior``'s facets.

        Facet entries of nodes outside ``dirty`` are kept as they are:
        a node that is the subject of no delta datom keeps its
        ``properties_of`` view, value-set layout included, shared
        unchanged between the prior graph and the fork.  The property
        table the entries index is extended, not rebuilt.  The
        item-record part starts empty.
        """
        records = cls(graph, schema, prior.analyzer)
        with prior._build_lock:
            records._props = list(prior._props)
            records._facets = {
                item: entries
                for item, entries in prior._facets.items()
                if item not in dirty
            }
        records._prop_meta = {
            prop: (idx, declared, {})
            for idx, (prop, declared, _annotation) in enumerate(
                records._props
            )
        }
        return records

    def __len__(self) -> int:
        """The number of built :class:`ItemRecord` s."""
        return len(self._records)

    def of(self, items: Sequence[Node]) -> list[ItemRecord]:
        """Records of ``items``, in order, building the missing ones."""
        return self._lookup(self._records, items, self._build)

    def profile(self, items: Sequence[Node]) -> CollectionProfile:
        """A :class:`CollectionProfile` bit-identical to the graph sweep.

        Builds the facet entries of any node that lacks them, item or
        not.  Two-phase for speed: a minimal item-order pass buckets
        entries per property (this fixes both the property
        *first-encounter* order and, within each bucket, the item-order
        value sequence), then each property aggregates with C-level
        ``map``, ``chain`` and ``Counter.update`` calls.
        Concatenated-then-counted values see first occurrences in
        exactly the order per-entry updates would, so Counter insertion
        order — which ``most_common`` tie-breaking leaks into
        suggestions — is preserved.
        """
        found = self._lookup(self._facets, items, self._sweep)
        props = self._props
        profile = CollectionProfile(len(items))
        properties = profile.properties
        buckets: list[list[_Entry] | None] = [None] * len(props)
        order: list[int] = []
        append_order = order.append
        for entries in found:
            for entry in entries:
                idx = entry[0]
                bucket = buckets[idx]
                if bucket is None:
                    buckets[idx] = [entry]
                    append_order(idx)
                else:
                    bucket.append(entry)
        flatten = chain.from_iterable
        for idx in order:
            bucket = buckets[idx]
            prop, declared, is_annotation = props[idx]
            prop_profile = PropertyProfile(prop, declared, is_annotation)
            properties[prop] = prop_profile
            prop_profile.coverage = len(bucket)
            prop_profile.value_tally = sum(map(_VALUE_COUNT, bucket))
            prop_profile.continuous_tally = sum(map(_CONTINUOUS, bucket))
            prop_profile.counts.update(flatten(map(_FACET_VALUES, bucket)))
            prop_profile._readings = list(flatten(map(_READINGS, bucket)))
        return profile

    def node(self, node_id: int) -> Node:
        """The property or value a record's id stands for."""
        return self._nodes[node_id]

    def chip(self, chip_id: int) -> tuple:
        """The ``(p1, p2, value)`` chain a record's chip id stands for."""
        return self._chips[chip_id]

    def stem_of(self, raw: str) -> str:
        """The stem of a raw token some record holds."""
        return self._words[raw][1]

    # ------------------------------------------------------------------

    def _lookup(
        self, table: dict, items: Sequence[Node], build: Callable
    ) -> list:
        """``table``'s values for ``items``, in order, building misses."""
        found = list(map(table.get, items))
        if None in found:
            with self._build_lock:
                for i, value in enumerate(found):
                    if value is None:
                        item = items[i]
                        value = table.get(item)
                        if value is None:
                            value = table[item] = build(item)
                        found[i] = value
        return found

    def _sweep(self, item: Node) -> tuple[_Entry, ...]:
        """Classify one item's values exactly as the graph sweep does."""
        props = self._props
        prop_meta = self._prop_meta
        entries: list[_Entry] = []
        for prop, values in self.graph.properties_of(item).items():
            meta = prop_meta.get(prop, _UNSEEN)
            if meta is _UNSEEN:
                if self.schema.is_hidden(prop):
                    meta = None
                else:
                    declared = self.schema.value_type(prop)
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

    def _skipped(self, prop) -> bool:
        skip = self._skip.get(prop)
        if skip is None:
            skip = prop in ANNOTATION_PROPERTIES or self.schema.is_hidden(prop)
            self._skip[prop] = skip
        return skip

    def _build(self, item: Node) -> ItemRecord:
        chips: set = set()
        words = []
        targets = []
        for prop, values in self.graph.properties_of(item).items():
            if self._skipped(prop):
                continue
            resources = []
            stems: set = set()
            raws: list[str] = []
            for value in values:
                if isinstance(value, Literal):
                    if not (value.is_numeric or value.is_temporal):
                        self._tokens(value.lexical, stems, raws)
                    continue
                resources.append(self._node_id(value))
                chips.update(self._chips_through(prop, value))
            if stems:
                words.append((self._node_id(prop), tuple(stems), tuple(raws)))
            if resources:
                targets.append((self._node_id(prop), tuple(resources)))
        return ItemRecord(tuple(chips), tuple(words), tuple(targets))

    def _node_id(self, node: Node) -> int:
        node_id = self._node_ids.get(node)
        if node_id is None:
            node_id = self._node_ids[node] = len(self._nodes)
            self._nodes.append(node)
        return node_id

    def _tokens(self, text: str, stems: set, raws: list) -> None:
        memo = self._words
        for raw in tokenize(text):
            entry = memo.get(raw)
            if entry is None:
                entry = memo[raw] = self._word(raw)
            if entry is _STOP:
                continue
            raws.append(entry[0])
            stems.add(entry[1])

    def _word(self, raw: str) -> tuple[str, str]:
        analyzer = self.analyzer
        if analyzer.stop_words and raw in analyzer.stop_words:
            return _STOP
        stem = analyzer.stem_token(raw)
        return raw, self._stems.setdefault(stem, stem)

    def _chips_through(self, p1, mid: Node) -> tuple:
        key = (p1, mid)
        chips = self._chips_via.get(key)
        if chips is None:
            schema = self.schema
            found = []
            for p2, values in self.graph.properties_of(mid).items():
                if self._skipped(p2):
                    continue
                declared = schema.value_type(p2)
                for value in values:
                    if is_facetable_value(value, declared):
                        found.append(self._chip_id((p1, p2, value)))
            chips = self._chips_via[key] = tuple(found)
        return chips

    def _chip_id(self, chip: tuple) -> int:
        chip_id = self._chip_ids.get(chip)
        if chip_id is None:
            chip_id = self._chip_ids[chip] = len(self._chips)
            self._chips.append(chip)
        return chip_id

    def __repr__(self) -> str:
        return (
            f"<AnalystRecords facets={len(self._facets)} "
            f"items={len(self._records)}>"
        )
