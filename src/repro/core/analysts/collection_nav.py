"""Related-collections analyst: navigate to the facet values themselves.

§3.3: "since the navigation suggestions are created by the user
interface inside one or more collections, users can navigate to these
collections of suggestions ... and browse them to find refinements
useful for the original query" — e.g. from a collection of recipes to
the collection of their ingredients, refine *that*, and apply the result
back with an any/all quantifier.

The values come from the workspace's per-item analyst records
(:mod:`.records`); a property whose values in view are all literals
offers no collection to browse and is never posted.
"""

from __future__ import annotations

from ..advisors import MODIFY
from ..blackboard import Blackboard
from ..suggestions import GoToCollection
from ..view import View
from .base import Analyst

__all__ = ["RelatedCollectionsAnalyst"]


class RelatedCollectionsAnalyst(Analyst):
    """Posts "browse the <property> values" hops for collection views."""

    name = "related-collections"
    view_pure = True

    def __init__(self, min_values: int = 2, max_values: int = 500):
        self.min_values = min_values
        self.max_values = max_values

    def triggers_on(self, view: View) -> bool:
        return view.is_collection and len(view.items) > 1

    def analyze(self, view: View, blackboard: Blackboard) -> None:
        workspace = view.workspace
        records = workspace.analyst_records()
        by_property: dict[int, set[int]] = {}
        for record in records.of(view.items):
            for prop_id, value_ids in record.targets:
                targets = by_property.get(prop_id)
                if targets is None:
                    targets = by_property[prop_id] = set()
                targets.update(value_ids)
        for prop, targets in sorted(
            ((records.node(p), t) for p, t in by_property.items()),
            key=lambda kv: kv[0].uri,
        ):
            if not (self.min_values <= len(targets) <= self.max_values):
                continue
            label = workspace.schema.label(prop)
            members = sorted(map(records.node, targets), key=lambda n: n.n3())
            self.post(
                blackboard,
                MODIFY,
                f"Browse the {label} values ({len(members)})",
                GoToCollection(members, f"values of {label}"),
                weight=min(1.0, len(members) / len(view.items)),
                group="Related Collections",
            )
