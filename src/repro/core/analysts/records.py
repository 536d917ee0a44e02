"""Per-item analyst records: one graph pass per item, reused by every view.

The path, text-refinement and related-collections analysts all walk
``properties_of`` for every item in view, and on a whole-corpus landing
that walk (plus re-tokenizing and re-stemming every text value) is
nearly all of a suggestion cycle.  What each of them extracts from an
item depends only on the item and the graph, so it is computed once per
item and graph version into an :class:`ItemRecord`; an analyst then
aggregates the records of the items in view.

A record holds three things:

* ``chips`` — the distinct facetable two-hop ``(p1, p2, value)`` chains
  leaving the item (what :class:`~.paths.PathAnalyst` counts);
* ``words`` — per text property, the distinct stems and the raw tokens
  in occurrence order (what :class:`~.keyword.TextRefinementAnalyst`
  counts and displays);
* ``targets`` — per property, its non-literal values, properties
  without any omitted (what :class:`~.collection_nav.RelatedCollectionsAnalyst`
  gathers).

The pass iterates the same ``properties_of`` copies the analysts used
to, so value order, and hence every tie broken by first occurrence, is
unchanged.  Raw tokens and stems are interned per store, and chips,
properties and values are held as small integer ids (:meth:`AnalystRecords.chip`,
:meth:`AnalystRecords.node`): a corpus repeats the same few thousand of
each across its items, and counting ints keeps aggregation in C, where
a term's hash would be a Python call.
"""

from __future__ import annotations

import threading
from typing import Sequence

from ...rdf.graph import Graph
from ...rdf.schema import Schema
from ...rdf.terms import Literal, Node
from ...vsm.tokenizer import Analyzer, tokenize
from .common import ANNOTATION_PROPERTIES, is_facetable_value

__all__ = ["ItemRecord", "AnalystRecords"]

#: Memo entry for a raw token the analyzer drops as a stop word.
_STOP = ("", "")


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
    """Lazily filled item → :class:`ItemRecord` table for one graph version.

    Obtained through :meth:`~repro.core.workspace.Workspace.analyst_records`,
    which replaces the table whenever the graph version moves.  Built
    records are read without a lock; building (and the id and intern
    tables it grows) is serialized, since sessions on a frozen workspace
    share one table across threads.
    """

    def __init__(self, graph: Graph, schema: Schema, analyzer: Analyzer):
        self.graph = graph
        self.schema = schema
        self.analyzer = analyzer
        self.version = graph.version
        self._records: dict[Node, ItemRecord] = {}
        self._build_lock = threading.Lock()
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

    def __len__(self) -> int:
        return len(self._records)

    def of(self, items: Sequence[Node]) -> list[ItemRecord]:
        """Records of ``items``, in order, building the missing ones."""
        get = self._records.get
        out = [get(item) for item in items]
        if None in out:
            with self._build_lock:
                for i, record in enumerate(out):
                    if record is None:
                        item = items[i]
                        record = get(item)
                        if record is None:
                            record = self._records[item] = self._build(item)
                        out[i] = record
        return out

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
            f"<AnalystRecords version={self.version} "
            f"items={len(self._records)}>"
        )
