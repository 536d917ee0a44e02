"""Sharing-a-property analyst (§4.1's Related Items → Sharing a property).

For an item view, suggests collections of items "that have a given
metadata attribute and value in common with the currently viewed item".
Rarer shared values weigh more (a shared corpus-unique ingredient is a
better hop than a shared ubiquitous one).
"""

from __future__ import annotations

from ..advisors import RELATED_ITEMS
from ..blackboard import Blackboard
from ..suggestions import GoToCollection
from ..view import View
from ..weights import share_weight
from .base import Analyst
from .common import ANNOTATION_PROPERTIES, is_facetable_value, value_idf

__all__ = ["SharingPropertyAnalyst"]


class SharingPropertyAnalyst(Analyst):
    """Posts "sharing <property>: <value>" hops for item views."""

    name = "sharing-a-property"
    view_pure = True

    def __init__(self, max_collection: int = 200):
        self.max_collection = max_collection

    def triggers_on(self, view: View) -> bool:
        return view.is_item

    def analyze(self, view: View, blackboard: Blackboard) -> None:
        workspace = view.workspace
        universe = len(workspace.query_context.universe)
        for prop, values in sorted(
            workspace.graph.properties_of(view.item).items(),
            key=lambda kv: kv[0].uri,
        ):
            if prop in ANNOTATION_PROPERTIES or workspace.schema.is_hidden(prop):
                continue
            declared = workspace.schema.value_type(prop)
            group = f"Sharing {workspace.schema.label(prop)}"
            for value in sorted(values, key=lambda v: v.n3()):
                if not is_facetable_value(value, declared):
                    continue
                fellows = sorted(
                    (
                        other
                        for other in workspace.graph.subjects(prop, value)
                        if other != view.item
                        and other in workspace.query_context.universe
                    ),
                    key=lambda n: n.n3(),
                )
                if not fellows:
                    continue
                idf = value_idf(workspace.graph, universe, prop, value)
                self.post(
                    blackboard,
                    RELATED_ITEMS,
                    (
                        f"{workspace.schema.label(prop)}: "
                        f"{workspace.schema.label(value)} ({len(fellows)})"
                    ),
                    GoToCollection(
                        fellows[: self.max_collection],
                        f"items sharing {workspace.schema.label(prop)} = "
                        f"{workspace.schema.label(value)}",
                    ),
                    weight=share_weight(len(fellows), idf),
                    group=group,
                )
