"""Sharing-a-property analyst (§4.1's Related Items → Sharing a property).

For an item view, suggests collections of items "that have a given
metadata attribute and value in common with the currently viewed item".
Rarer shared values weigh more (a shared corpus-unique ingredient is a
better hop than a shared ubiquitous one).

The fellows of one (property, value) pair are its ``HasValue`` extent
mask, taken through the extent cache, ANDed with the universe and less
the item's own bit, then listed in view order.
"""

from __future__ import annotations

from ...query.ast import HasValue
from ...rdf.terms import Node, Resource
from ..advisors import RELATED_ITEMS
from ..blackboard import Blackboard
from ..suggestions import GoToCollection
from ..view import View
from ..weights import share_weight
from .base import Analyst
from .common import ANNOTATION_PROPERTIES, is_facetable_value, value_idf

__all__ = ["SharingPropertyAnalyst", "fellows"]


def fellows(workspace, item: Node, prop: Resource, value: Node) -> list[Node]:
    """The universe's items other than ``item`` having ``(prop, value)``,
    in view order (``n3``)."""
    mask = workspace.query_engine.select(HasValue(prop, value))
    item_id = workspace.graph.interner.id_of(item)
    if item_id is not None:
        mask &= ~(1 << item_id)
    return workspace.query_context.ordered_nodes(mask)


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
                shared = fellows(workspace, view.item, prop, value)
                if not shared:
                    continue
                idf = value_idf(workspace.graph, universe, prop, value)
                self.post(
                    blackboard,
                    RELATED_ITEMS,
                    (
                        f"{workspace.schema.label(prop)}: "
                        f"{workspace.schema.label(value)} ({len(shared)})"
                    ),
                    GoToCollection(
                        shared[: self.max_collection],
                        f"items sharing {workspace.schema.label(prop)} = "
                        f"{workspace.schema.label(value)}",
                    ),
                    weight=share_weight(len(shared), idf),
                    group=group,
                )
