"""The Refine-Collection facet analyst (§4.1, §4.3).

"One analyst looks for commonly occurring property values and adds them
as possible constraints to the current query."  For every facetable
(property, value) pair "common to some but not all items in the
collection", a refinement suggestion is posted, weighted by the §5.3
query-refinement convention (common-but-not-too-common, idf-adjusted).

Composed attribute chains (from schema annotations or important-property
expansion) are treated identically, which is what makes Figure 6's
"type / content / creator / date on the body" refinements appear.
"""

from __future__ import annotations

from ...query.ast import HasValue, PathValue
from ..advisors import REFINE_COLLECTION
from ..blackboard import Blackboard
from ..suggestions import Refine
from ..view import View
from ..weights import refinement_weight
from .base import Analyst
from .common import composed_facet_counts, path_label, value_idf

__all__ = ["RefinementAnalyst"]


class RefinementAnalyst(Analyst):
    """Posts facet-value refinements for collection views."""

    name = "refine-by-property-value"
    view_pure = True

    def __init__(self, max_values_per_property: int = 24):
        self.max_values_per_property = max_values_per_property

    def triggers_on(self, view: View) -> bool:
        return view.is_collection and len(view.items) > 1

    def analyze(self, view: View, blackboard: Blackboard) -> None:
        workspace = view.workspace
        size = len(view.items)
        universe = len(workspace.query_context.universe)
        for prop, values in sorted(
            workspace.facet_profile(view.items).facet_counts().items(),
            key=lambda kv: kv[0].uri,
        ):
            group = workspace.schema.label(prop)
            ranked = values.most_common(self.max_values_per_property)
            for value, count in ranked:
                if count >= size:
                    continue  # present in every item: cannot refine
                idf = value_idf(workspace.graph, universe, prop, value)
                weight = refinement_weight(count, size, idf)
                if weight <= 0.0:
                    continue
                self.post(
                    blackboard,
                    REFINE_COLLECTION,
                    f"{workspace.schema.label(value)} ({count})",
                    Refine(HasValue(prop, value)),
                    weight=weight,
                    group=group,
                )
        if not workspace.model.use_compositions:
            return
        for chain, values in sorted(
            composed_facet_counts(
                workspace.graph, workspace.schema, view.items
            ).items(),
            key=lambda kv: [p.uri for p in kv[0]],
        ):
            group = path_label(workspace.schema, chain)
            ranked = values.most_common(self.max_values_per_property)
            for value, count in ranked:
                if count >= size:
                    continue
                weight = refinement_weight(count, size, 1.0)
                if weight <= 0.0:
                    continue
                self.post(
                    blackboard,
                    REFINE_COLLECTION,
                    f"{workspace.schema.label(value)} ({count})",
                    Refine(PathValue(chain, value)),
                    weight=weight,
                    group=group,
                )
