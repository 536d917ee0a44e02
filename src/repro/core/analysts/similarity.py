"""Similar-by-Content analysts (§4.1).

"There are typically two different analysts that are associated with
this advisor, one for working with single items and providing other
related items, and the other for working with collections and providing
more items similar to the items in the collection."  Both run the fuzzy
vector-space retrieval of §5.3 over every coordinate kind at once —
"similar structural elements (properties) and similar textual elements".
"""

from __future__ import annotations

from ..advisors import RELATED_ITEMS
from ..blackboard import Blackboard
from ..suggestions import GoToCollection
from ..view import View
from ..weights import similarity_weight
from .base import Analyst

__all__ = ["SimilarToItemAnalyst", "SimilarToCollectionAnalyst"]


class SimilarToItemAnalyst(Analyst):
    """For item views: other items with similar overall content."""

    name = "similar-by-content-item"
    view_pure = True

    def __init__(self, k: int = 10, min_score: float = 1e-9):
        self.k = k
        self.min_score = min_score

    def triggers_on(self, view: View) -> bool:
        return view.is_item and view.item in view.workspace.model

    def analyze(self, view: View, blackboard: Blackboard) -> None:
        workspace = view.workspace
        hits = [
            hit
            for hit in workspace.vector_store.similar_to_item(view.item, self.k)
            if hit.score >= self.min_score
        ]
        if not hits:
            return
        label = workspace.label(view.item)
        self.post(
            blackboard,
            RELATED_ITEMS,
            f"Similar by Content (Overall) to {label}",
            GoToCollection(
                [hit.item for hit in hits],
                f"items similar to {label}",
            ),
            weight=similarity_weight(hits[0].score),
            group="Similar Items",
        )


class SimilarToCollectionAnalyst(Analyst):
    """For collection views: more items like the collection's members.

    Retrieval is against the "average member" centroid (§5.3); current
    members are excluded so the suggestion expands the collection.
    """

    name = "similar-by-content-collection"
    view_pure = True

    def __init__(self, k: int = 10, min_score: float = 1e-9):
        self.k = k
        self.min_score = min_score

    def triggers_on(self, view: View) -> bool:
        return view.is_collection and bool(view.items)

    def analyze(self, view: View, blackboard: Blackboard) -> None:
        workspace = view.workspace
        hits = [
            hit
            for hit in workspace.vector_store.similar_to_collection(
                view.items, self.k
            )
            if hit.score >= self.min_score
        ]
        if not hits:
            return
        self.post(
            blackboard,
            RELATED_ITEMS,
            "More items like these (Overall content)",
            GoToCollection(
                [hit.item for hit in hits],
                "items similar to the current collection",
            ),
            weight=similarity_weight(hits[0].score),
            group="Similar Items",
        )
