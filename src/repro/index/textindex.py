"""Boolean full-text index over a graph's string values.

§4.2: "the query engine has been extended to uniformly query an external
index to support text in documents."  This is that external index: it
maps analyzed tokens to the items whose literal values contain them,
both corpus-wide and per property (so "words in the body or in the
title" can be offered as separate refinement axes, §3.2).

An index is built once: cold, by :meth:`TextIndex.index_items`, or for
the next epoch by :meth:`TextIndex.advance`, which shares with the prior
index every postings set the delta did not touch and never modifies the
prior index, so sessions pinned to an older epoch keep resolving it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Collection, Sequence

from ..rdf.graph import Graph
from ..rdf.terms import Literal, Node, Resource
from ..rdf.vocab import MAGNET
from ..vsm.tokenizer import Analyzer, default_analyzer

__all__ = ["TextIndex"]

_SKIP = frozenset(
    {MAGNET.valueType, MAGNET.compose, MAGNET.hidden, MAGNET.importantProperty}
)


class TextIndex:
    """Token → item postings, overall and per property."""

    def __init__(self, graph: Graph, analyzer: Analyzer | None = None):
        self.graph = graph
        self.analyzer = analyzer if analyzer is not None else default_analyzer()
        self._overall: dict[str, set[Node]] = defaultdict(set)
        self._by_property: dict[Resource, dict[str, set[Node]]] = defaultdict(
            lambda: defaultdict(set)
        )
        #: item -> the (property, token) pairs it posts under; never
        #: mutated once stored, so an advanced index shares them.
        self._posted: dict[Node, set[tuple[Resource, str]]] = {}

    @classmethod
    def advance(
        cls,
        prior: "TextIndex",
        graph: Graph,
        items: Sequence[Node],
        dirty: Collection[Node],
    ) -> "TextIndex":
        """The text index of the next epoch: ``items`` over ``graph``.

        Reuses ``prior``'s postings pairs of every item it indexed that
        is not in ``dirty`` and reads the rest from ``graph``.  Every
        postings set that no replaced, dropped or re-read item posts
        under is shared with ``prior``; the others are built fresh, so
        the postings equal a cold build's over ``items`` and ``prior``
        is not modified.
        """
        index = cls(graph, prior.analyzer)
        carried = prior._posted
        posted = index._posted
        fresh: dict[Node, set[tuple[Resource, str]]] = {}
        for item in items:
            pairs = None if item in dirty else carried.get(item)
            if pairs is None:
                pairs = fresh[item] = index._pairs(item)
            posted[item] = pairs
        # Items whose prior postings no longer stand, and every postings
        # key they or the re-read items post under.
        stale: set[Node] = set()
        keys: set[tuple[Resource, str]] = set()
        for item, pairs in carried.items():
            if posted.get(item) is not pairs:
                stale.add(item)
                keys.update(pairs)
        for pairs in fresh.values():
            keys.update(pairs)

        by_prop: dict[Resource, set[str]] = {}
        for prop, token in keys:
            by_prop.setdefault(prop, set()).add(token)
        tokens = {token for _prop, token in keys}
        overall = index._overall
        overall.update(prior._overall)
        for token in tokens:
            overall[token] = set(prior._overall.get(token, ())).difference(stale)
        by_property = index._by_property
        by_property.update(prior._by_property)
        for prop, prop_tokens in by_prop.items():
            sub = by_property[prop] = defaultdict(
                set, prior._by_property.get(prop, ())
            )
            for token in prop_tokens:
                sub[token] = set(sub.get(token, ())).difference(stale)
        for item, pairs in fresh.items():
            for prop, token in pairs:
                overall[token].add(item)
                by_property[prop][token].add(item)
        for token in tokens:
            if not overall[token]:
                del overall[token]
        for prop, prop_tokens in by_prop.items():
            sub = by_property[prop]
            for token in prop_tokens:
                if not sub[token]:
                    del sub[token]
            if not sub:
                del by_property[prop]
        return index

    def _pairs(self, item: Node) -> set[tuple[Resource, str]]:
        """The (property, token) pairs of one item's string values."""
        pairs: set[tuple[Resource, str]] = set()
        for prop, values in self.graph.properties_of(item).items():
            if prop in _SKIP:
                continue
            for value in values:
                if not isinstance(value, Literal):
                    continue
                if value.is_numeric or value.is_temporal:
                    continue
                for token in self.analyzer.tokens(value.lexical):
                    pairs.add((prop, token))
        return pairs

    def index_item(self, item: Node) -> None:
        """Index every string value of one item.

        For a cold build only: an index made by :meth:`advance` shares
        its postings sets with the prior epoch's.
        """
        pairs = self._pairs(item)
        for prop, token in pairs:
            self._overall[token].add(item)
            self._by_property[prop][token].add(item)
        self._posted[item] = pairs

    def index_items(self, items) -> int:
        """Index many items; returns the count."""
        count = 0
        for item in items:
            self.index_item(item)
            count += 1
        return count

    @property
    def indexed_items(self) -> set[Node]:
        return set(self._posted)

    # ------------------------------------------------------------------
    # Queries (boolean AND semantics, like the toolbar keyword box)
    # ------------------------------------------------------------------

    def search(self, text: str, within: Resource | None = None) -> set[Node]:
        """Items containing *all* the query's tokens.

        ``within`` restricts matching to one property's values ("words in
        the title").  An all-stop-word or empty query matches nothing.
        """
        tokens = list(self.analyzer.tokens(text))
        if not tokens:
            return set()
        source = self._by_property.get(within, {}) if within else self._overall
        result: set[Node] | None = None
        for token in tokens:
            postings = source.get(token, set())
            result = set(postings) if result is None else (result & postings)
            if not result:
                return set()
        return result or set()

    def items_with_token(self, token: str, within: Resource | None = None) -> set[Node]:
        """Items containing one already-analyzed token."""
        source = self._by_property.get(within, {}) if within else self._overall
        return set(source.get(token, ()))

    def token_frequencies(self, within: Resource | None = None) -> Counter:
        """token → document frequency, overall or for one property."""
        source = self._by_property.get(within, {}) if within else self._overall
        return Counter({token: len(items) for token, items in source.items()})

    def text_properties(self) -> list[Resource]:
        """Properties that carried at least one indexed string value."""
        return sorted(self._by_property, key=lambda p: p.uri)

    def vocabulary_size(self) -> int:
        return len(self._overall)

    def __repr__(self) -> str:
        return (
            f"<TextIndex items={len(self._posted)} "
            f"vocab={len(self._overall)}>"
        )
