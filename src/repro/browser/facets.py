"""Faceted overview of a collection (§3.1, Figure 2).

For large collections where the navigation pane is inadequate, Magnet
shows "a broad overview of the occurrence of metadata in the collection"
— per property, the most frequent values with counts, "organized and
sorted" so the user can gain a summary and start browsing.  Continuous
properties are summarized by their observed range instead of values.
"""

from __future__ import annotations

from ..core.workspace import Workspace
from ..query.preview import RangePreview
from ..rdf.terms import Node, Resource

__all__ = ["PropertyFacet", "FacetSummary"]


class PropertyFacet:
    """One property's value distribution over the collection."""

    def __init__(
        self,
        prop: Resource,
        label: str,
        values: list[tuple[Node, int]],
        total_values: int,
        coverage: int,
        range_preview: RangePreview | None = None,
    ):
        self.prop = prop
        self.label = label
        #: top (value, count) pairs, count-descending
        self.values = values
        #: number of distinct facetable values overall
        self.total_values = total_values
        #: number of collection items carrying the property
        self.coverage = coverage
        #: set for continuous properties (range instead of values)
        self.range_preview = range_preview

    @property
    def truncated(self) -> bool:
        """True when more values exist than are shown ('...')."""
        return self.total_values > len(self.values)

    def __repr__(self) -> str:
        return (
            f"<PropertyFacet {self.label!r} values={self.total_values} "
            f"coverage={self.coverage}>"
        )


class FacetSummary:
    """The Figure-2 overview: every property's top values with counts."""

    def __init__(self, facets: list[PropertyFacet], collection_size: int):
        self.facets = facets
        self.collection_size = collection_size

    @classmethod
    def of_collection(
        cls,
        workspace: Workspace,
        items: list[Node],
        max_values: int = 8,
    ) -> "FacetSummary":
        """Compute the overview for a collection.

        Value counts, coverage, continuous detection, and numeric
        readings all come from one shared sweep
        (:meth:`~repro.core.workspace.Workspace.facet_profile`), instead
        of the historical one-scan-per-property approach.
        """
        profile = workspace.facet_profile(items)
        facets: list[PropertyFacet] = []
        for prop, values in profile.facet_counts().items():
            top = [
                (value, count)
                for value, count in sorted(
                    values.items(),
                    key=lambda kv: (-kv[1], workspace.label(kv[0]).lower()),
                )[:max_values]
            ]
            facets.append(
                PropertyFacet(
                    prop,
                    workspace.label(prop),
                    top,
                    total_values=len(values),
                    coverage=profile.coverage(prop),
                )
            )
        for prop in profile.continuous_properties(workspace.schema):
            readings = profile.sorted_readings(prop)
            if len(set(readings)) < 2:
                continue
            facets.append(
                PropertyFacet(
                    prop,
                    workspace.label(prop),
                    [],
                    total_values=len(set(readings)),
                    coverage=profile.coverage(prop),
                    range_preview=RangePreview(readings),
                )
            )
        facets.sort(key=lambda f: (-f.coverage, f.label.lower()))
        return cls(facets, len(items))

    def facet_for(self, prop: Resource) -> PropertyFacet | None:
        """Look up one property's facet."""
        for facet in self.facets:
            if facet.prop == prop:
                return facet
        return None

    def __iter__(self):
        return iter(self.facets)

    def __len__(self) -> int:
        return len(self.facets)

    def __repr__(self) -> str:
        return (
            f"<FacetSummary {len(self.facets)} properties over "
            f"{self.collection_size} items>"
        )
