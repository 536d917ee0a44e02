"""Structural schema summaries — the Dataguides idea Magnet builds on.

§2: "Lore uses a concept called Dataguides to retrieve structural schema
summaries and uses the summaries to support query formulation"; Magnet's
interface likewise "shows that the collection of recipes has properties
like cooking method, cuisine type, and ingredient" (§3).  This module
computes that summary directly from the data: for each ``rdf:type``, the
properties its instances carry, with coverage, cardinality, value kinds,
and sample values.

The summary backs the CLI's ``describe`` command and gives programmatic
users a quick map of an unfamiliar repository — the "newly encountered,
or less than fully structured, information" scenario of §1.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .graph import Graph
from .schema import Schema
from .terms import Literal, Node, Resource
from .vocab import MAGNET, RDF, RDFS

__all__ = ["PropertySummary", "TypeSummary", "StructuralSummary"]

_SKIP = frozenset(
    {MAGNET.valueType, MAGNET.compose, MAGNET.hidden,
     MAGNET.importantProperty, RDFS.label}
)


class PropertySummary(NamedTuple):
    """One property's shape within a type."""

    prop: Resource
    #: instances carrying the property
    coverage: int
    #: min/max values per carrying instance
    min_cardinality: int
    max_cardinality: int
    #: value kind counts: 'object' / 'string' / 'number' / 'temporal'
    kinds: dict
    #: up to a handful of distinct example values (display strings)
    samples: list

    @property
    def dominant_kind(self) -> str:
        if not self.kinds:
            return "none"
        return max(self.kinds.items(), key=lambda kv: (kv[1], kv[0]))[0]

    @property
    def is_multivalued(self) -> bool:
        return self.max_cardinality > 1


class TypeSummary(NamedTuple):
    """One rdf:type's shape."""

    rdf_type: Resource
    instance_count: int
    properties: list  # of PropertySummary, coverage-descending


class StructuralSummary:
    """The whole repository's shape, grouped by type."""

    def __init__(self, graph: Graph, max_samples: int = 4):
        self.graph = graph
        self.schema = Schema(graph)
        self.max_samples = max_samples
        self.types: list[TypeSummary] = self._build()

    def _build(self) -> list[TypeSummary]:
        by_type: dict[Resource, list[Node]] = {}
        for subject, _p, rdf_type in self.graph.triples(None, RDF.type, None):
            if isinstance(rdf_type, Resource):
                by_type.setdefault(rdf_type, []).append(subject)
        # Triples come back in set order, which follows string hash
        # randomization; sorting keeps the sampled values the same from
        # run to run.
        summaries = [
            self._summarize_type(rdf_type, sorted(instances, key=_n3))
            for rdf_type, instances in by_type.items()
        ]
        summaries.sort(key=lambda t: (-t.instance_count, t.rdf_type.uri))
        return summaries

    def _summarize_type(
        self, rdf_type: Resource, instances: list[Node]
    ) -> TypeSummary:
        coverage: Counter = Counter()
        cardinalities: dict[Resource, list[int]] = {}
        kinds: dict[Resource, Counter] = {}
        samples: dict[Resource, list[str]] = {}
        for instance in instances:
            for prop, values in self.graph.properties_of(instance).items():
                if prop in _SKIP or prop == RDF.type:
                    continue
                coverage[prop] += 1
                bucket = cardinalities.setdefault(prop, [])
                bucket.append(len(values))
                kind_bucket = kinds.setdefault(prop, Counter())
                sample_bucket = samples.setdefault(prop, [])
                for value in sorted(values, key=_n3):
                    kind_bucket[_kind(value)] += 1
                    display = self.graph.label(value)
                    if (
                        len(sample_bucket) < self.max_samples
                        and display not in sample_bucket
                    ):
                        sample_bucket.append(display)
        properties = [
            PropertySummary(
                prop,
                coverage[prop],
                min(cardinalities[prop]),
                max(cardinalities[prop]),
                dict(kinds[prop]),
                samples[prop],
            )
            for prop in coverage
        ]
        properties.sort(key=lambda p: (-p.coverage, p.prop.uri))
        return TypeSummary(rdf_type, len(instances), properties)

    def type_summary(self, rdf_type: Resource) -> TypeSummary | None:
        """The summary for one type, or None."""
        for summary in self.types:
            if summary.rdf_type == rdf_type:
                return summary
        return None

    def render(self, width: int = 72) -> str:
        """A text rendering (the CLI's ``describe`` output)."""
        lines = ["=" * width, "REPOSITORY STRUCTURE", "=" * width]
        for type_summary in self.types:
            lines.append(
                f"{self.schema.label(type_summary.rdf_type)} "
                f"({type_summary.instance_count} instances)"
            )
            for prop in type_summary.properties:
                label = self.schema.label(prop.prop)
                card = (
                    f"{prop.min_cardinality}..{prop.max_cardinality}"
                    if prop.is_multivalued
                    else "1"
                )
                sample_text = ", ".join(prop.samples)
                if len(sample_text) > 44:
                    sample_text = sample_text[:41] + "..."
                lines.append(
                    f"  {label:<20} {prop.dominant_kind:<8} "
                    f"x{card:<6} [{prop.coverage}/{type_summary.instance_count}] "
                    f"e.g. {sample_text}"
                )
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    def __repr__(self) -> str:
        return f"<StructuralSummary {len(self.types)} types>"


def _n3(node: Node) -> str:
    return node.n3()


def _kind(value: Node) -> str:
    if not isinstance(value, Literal):
        return "object"
    if value.is_numeric:
        return "number"
    if value.is_temporal:
        return "temporal"
    if value.as_number() is not None:
        return "number"
    return "string"
