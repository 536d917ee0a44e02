"""Shared helpers for analysts: facet extraction and display names."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

from ...query.ast import RangeIndex
from ...rdf.graph import Graph
from ...rdf.schema import Schema, ValueType
from ...rdf.terms import Literal, Node, Resource
from ...rdf.vocab import MAGNET, RDFS
from ...vsm.composition import compose_values

__all__ = [
    "ANNOTATION_PROPERTIES",
    "PropertyProfile",
    "CollectionProfile",
    "collection_profile",
    "composed_facet_counts",
    "value_idf",
    "is_facetable_value",
    "path_label",
]

#: Properties that are schema plumbing, never navigation facets.
ANNOTATION_PROPERTIES = frozenset(
    {
        MAGNET.valueType,
        MAGNET.compose,
        MAGNET.hidden,
        MAGNET.importantProperty,
        RDFS.label,
    }
)

#: Literal values longer than this are "body text", not facet values.
_MAX_FACET_LITERAL_TOKENS = 6
_MAX_FACET_LITERAL_CHARS = 48


def is_facetable_value(value: Node, declared_type: str | None) -> bool:
    """True when a value can serve as an exact-match facet entry.

    Resources always can.  Literals obey the declared value type first:
    continuous types go to range widgets, ``text`` means prose (words-in
    refinements cover it, not exact values), ``object`` forces
    facetability.  Undeclared literals are sniffed: numeric/temporal are
    excluded, and only short strings qualify.
    """
    if not isinstance(value, Literal):
        return True
    if declared_type in ValueType.CONTINUOUS or declared_type == ValueType.TEXT:
        return False
    if declared_type == ValueType.OBJECT:
        return True
    if value.is_numeric or value.is_temporal:
        return False
    if len(value.lexical) > _MAX_FACET_LITERAL_CHARS:
        return False
    return len(value.lexical.split()) <= _MAX_FACET_LITERAL_TOKENS


def classify_value(
    value: Node, declared: str | None
) -> tuple[bool, bool, float | None]:
    """(facetable, counts-as-continuous, numeric reading) for one value.

    The reading is :meth:`RangeIndex.reading`'s: NaN is dropped (it
    has no place in a sorted range) and ±inf is kept.  The graph sweep
    and the facet entries of
    :class:`~repro.core.analysts.records.AnalystRecords` both classify
    through here, so their profiles stay bit-identical.
    """
    continuous = isinstance(value, Literal) and (
        value.is_numeric or value.is_temporal
    )
    return (
        is_facetable_value(value, declared),
        continuous,
        RangeIndex.reading(value),
    )


class PropertyProfile:
    """Everything one sweep learns about a single property.

    ``counts`` holds facetable-value item counts, ``coverage`` the
    number of collection items carrying the property,
    ``continuous_tally``/``value_tally`` the numeric-vs-total value
    occurrence split used for continuous detection, and ``readings``
    every value mapped onto the real line.
    """

    __slots__ = (
        "prop",
        "declared",
        "is_annotation",
        "counts",
        "coverage",
        "continuous_tally",
        "value_tally",
        "_readings",
        "_sorted_readings",
        "_value_info",
    )

    def __init__(self, prop: Resource, declared: str | None, is_annotation: bool):
        self.prop = prop
        self.declared = declared
        self.is_annotation = is_annotation
        self.counts: Counter = Counter()
        self.coverage = 0
        self.continuous_tally = 0
        self.value_tally = 0
        self._readings: list[float] = []
        self._sorted_readings: list[float] | None = None
        #: value -> (facetable, counts-as-continuous, numeric reading)
        self._value_info: dict[Node, tuple[bool, bool, float | None]] = {}

    def classify(self, value: Node) -> tuple[bool, bool, float | None]:
        """Per-value classification, memoized per distinct value.

        Facet values repeat heavily across a collection (a cuisine, an
        ingredient), so paying string-splitting and number-parsing once
        per *distinct* value is most of this sweep's speedup.
        """
        info = self._value_info.get(value)
        if info is None:
            info = self._value_info[value] = classify_value(value, self.declared)
        return info

    def sorted_readings(self) -> list[float]:
        """All numeric readings, sorted (computed once, then reused)."""
        if self._sorted_readings is None:
            self._sorted_readings = sorted(self._readings)
        return self._sorted_readings

    def __repr__(self) -> str:
        return (
            f"<PropertyProfile {self.prop!r} coverage={self.coverage} "
            f"values={self.value_tally}>"
        )


class CollectionProfile:
    """One-sweep summary of a collection's metadata occurrence.

    Replaces the layered scans the facet overview used to perform (one
    value-count pass, one coverage pass per property, one continuous-
    detection pass, one readings pass per continuous property) with a
    single pass over ``properties_of`` whose results every consumer
    shares.  All accessors reproduce the legacy functions' outputs
    exactly, including dict/Counter insertion order.
    """

    __slots__ = ("properties", "item_count")

    def __init__(self, item_count: int):
        #: property -> profile, in first-encounter order over the sweep
        self.properties: dict[Resource, PropertyProfile] = {}
        self.item_count = item_count

    def facet_counts(self) -> dict[Resource, Counter]:
        """{property: Counter({value: item count})} for every facetable
        (property, value) pair, skipping annotation properties.

        Counts are item counts: a multi-valued item contributes once per
        distinct value.
        """
        return {
            prop: profile.counts
            for prop, profile in self.properties.items()
            if not profile.is_annotation and profile.counts
        }

    def coverage(self, prop: Resource) -> int:
        """Number of collection items carrying the property."""
        profile = self.properties.get(prop)
        return profile.coverage if profile is not None else 0

    def sorted_readings(self, prop: Resource) -> list[float]:
        """Numeric readings of a property, sorted ascending (copied)."""
        profile = self.properties.get(prop)
        return list(profile.sorted_readings()) if profile is not None else []

    def continuous_properties(
        self,
        schema: Schema,
        threshold: float = 0.9,
        skip_annotation: bool = False,
        require_numeric: bool = False,
    ) -> list[Resource]:
        """Properties qualifying for range treatment, sorted.

        A property qualifies when its schema annotation declares a
        continuous type or at least ``threshold`` of its observed value
        occurrences are numeric/temporal literals.  The two flags mirror
        the two historical call sites: the facet overview admits
        annotation properties and a 100%-non-numeric 0/0 never arises;
        the range analyst skips annotation properties and additionally
        requires at least one numeric occurrence.
        """
        qualified: list[Resource] = []
        for prop, profile in self.properties.items():
            if skip_annotation and profile.is_annotation:
                continue
            if schema.is_continuous(prop):
                qualified.append(prop)
                continue
            total = profile.value_tally
            if total and profile.continuous_tally / total >= threshold:
                if require_numeric and profile.continuous_tally <= 0:
                    continue
                qualified.append(prop)
        return sorted(qualified)

    def __repr__(self) -> str:
        return (
            f"<CollectionProfile {len(self.properties)} properties over "
            f"{self.item_count} items>"
        )


def collection_profile(
    graph: Graph, schema: Schema, items: Sequence[Node]
) -> CollectionProfile:
    """Single-pass metadata profile of a collection.

    The sweep iterates ``properties_of`` copies in the exact order the
    legacy multi-pass code did, so every derived payload — value
    Counters, coverage, continuous tallies, readings — is bit-for-bit
    what the separate scans produced.
    """
    profile = CollectionProfile(len(items))
    properties = profile.properties
    hidden_cache: dict[Resource, bool] = {}
    for item in items:
        for prop, values in graph.properties_of(item).items():
            prop_profile = properties.get(prop)
            if prop_profile is None:
                hidden = hidden_cache.get(prop)
                if hidden is None:
                    hidden = schema.is_hidden(prop)
                    hidden_cache[prop] = hidden
                if hidden:
                    continue
                prop_profile = PropertyProfile(
                    prop,
                    schema.value_type(prop),
                    prop in ANNOTATION_PROPERTIES,
                )
                properties[prop] = prop_profile
            prop_profile.coverage += 1
            classify = prop_profile.classify
            counts = prop_profile.counts
            readings = prop_profile._readings
            continuous_seen = 0
            for value in values:
                facetable, continuous, number = classify(value)
                if facetable:
                    counts[value] += 1
                if continuous:
                    continuous_seen += 1
                if number is not None:
                    readings.append(number)
            prop_profile.value_tally += len(values)
            prop_profile.continuous_tally += continuous_seen
    return profile


def composed_facet_counts(
    graph: Graph, schema: Schema, items: Sequence[Node]
) -> dict[tuple[Resource, ...], Counter]:
    """Facet counts along each annotated attribute composition."""
    counts: dict[tuple[Resource, ...], Counter] = {}
    chains = schema.effective_compositions()
    for chain in chains:
        if any(schema.is_hidden(p) for p in chain):
            continue
        declared = schema.value_type(chain[-1])
        bucket = counts.setdefault(chain, Counter())
        for item in items:
            for value in set(compose_values(graph, item, chain)):
                if is_facetable_value(value, declared):
                    bucket[value] += 1
    return {c: b for c, b in counts.items() if b}


def value_idf(graph: Graph, universe_size: int, prop: Resource, value: Node) -> float:
    """Corpus idf of an exact (property, value) pair."""
    df = graph.count_subjects(prop, value)
    if df <= 0 or universe_size <= 0 or df >= universe_size:
        return 0.0
    return math.log(universe_size / df)


def path_label(schema: Schema, path: Iterable[Resource]) -> str:
    """Display name of a property chain: "body → creator" style."""
    return " → ".join(schema.label(p) for p in path)
