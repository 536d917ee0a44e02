"""Range-widget analyst for continuous attributes (§4.3, §5.4, Figure 5).

"Others provide support for refining the collection based on the type of
the data in the collection (for example having range widgets for
refining continuous valued types)."  A property qualifies when its
schema annotation declares a continuous type, or — absent annotations —
when its observed literal values are numeric/temporal (the heuristic
path §7 anticipates).  Compositions ending in a continuous property get
widgets too, which yields Figure 6's "date on the body" control.
"""

from __future__ import annotations

from ...query.ast import RangeIndex
from ...query.preview import RangePreview
from ...rdf.terms import Resource
from ...vsm.composition import compose_values
from ..advisors import REFINE_COLLECTION
from ..blackboard import Blackboard
from ..suggestions import OpenRangeWidget
from ..view import View
from .base import Analyst
from .common import path_label

__all__ = ["RangeAnalyst"]


class RangeAnalyst(Analyst):
    """Posts range-widget suggestions for continuous attributes."""

    name = "refine-by-range"
    view_pure = True

    def __init__(self, min_items: int = 2, min_distinct: int = 2,
                 detection_support: float = 0.9):
        self.min_items = min_items
        self.min_distinct = min_distinct
        self.detection_support = detection_support

    def triggers_on(self, view: View) -> bool:
        return view.is_collection and len(view.items) >= self.min_items

    def analyze(self, view: View, blackboard: Blackboard) -> None:
        workspace = view.workspace
        profile = workspace.facet_profile(view.items)
        for prop in self._continuous_properties(view):
            values = profile.sorted_readings(prop)
            if len(set(values)) < self.min_distinct:
                continue
            coverage = len(values) / len(view.items)
            self.post(
                blackboard,
                REFINE_COLLECTION,
                f"{workspace.schema.label(prop)} range…",
                OpenRangeWidget(prop, RangePreview(values)),
                weight=0.9 * min(1.0, coverage),
                group=workspace.schema.label(prop),
            )
        if not workspace.model.use_compositions:
            return
        for chain in workspace.schema.effective_compositions():
            last = chain[-1]
            if not workspace.schema.is_continuous(last):
                continue
            if any(workspace.schema.is_hidden(p) for p in chain):
                continue
            values: list[float] = []
            for item in view.items:
                for value in compose_values(workspace.graph, item, chain):
                    number = RangeIndex.reading(value)  # NaN skipped
                    if number is not None:
                        values.append(number)
            if len(set(values)) < self.min_distinct:
                continue
            label = path_label(workspace.schema, chain)
            self.post(
                blackboard,
                REFINE_COLLECTION,
                f"{label} range…",
                OpenRangeWidget(last, RangePreview(sorted(values))),
                weight=0.8,
                group=label,
            )

    def _continuous_properties(self, view: View) -> list[Resource]:
        workspace = view.workspace
        return workspace.facet_profile(view.items).continuous_properties(
            workspace.schema,
            threshold=self.detection_support,
            skip_annotation=True,
            require_numeric=True,
        )
