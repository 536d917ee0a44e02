"""Navigation suggestions and the actions they perform (§4.1, §4.3).

Analysts post :class:`Suggestion` objects on the blackboard; advisors
select and present them.  Each suggestion carries

* the **advisor** it belongs to (the user-facing grouping),
* a display **title** and an optional **group** key ("the interface
  groups suggestions by properties"),
* an **IR weight** — "analysts providing suggestions to a shared advisor
  ... need to have a common approach to giving weights" — used by the
  advisor to select the most relevant, and
* an **action**: what selecting the suggestion does.  §4.3 names three
  escalating kinds: recommending "a specific document or collection",
  recommending "possible query terms", and "at the most general ...
  arbitrary action to be performed upon selection".
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..query.ast import Predicate
from ..query.preview import RangePreview
from ..rdf.terms import Node, Resource

__all__ = [
    "RefineMode",
    "Action",
    "Refine",
    "GoToItem",
    "GoToCollection",
    "NewQuery",
    "OpenRangeWidget",
    "Invoke",
    "Suggestion",
]


class RefineMode:
    """How a refinement predicate combines with the current collection.

    §4.1: "The selected property and value may be used to either filter
    the current collection, or remove matching items from the current
    collection.  Alternatively, a user can also use the refinement
    suggestions as terms to expand the collection."
    """

    FILTER = "filter"
    EXCLUDE = "exclude"
    EXPAND = "expand"

    ALL = frozenset({FILTER, EXCLUDE, EXPAND})


class Action:
    """Base class for what happens when a suggestion is selected."""

    __slots__ = ()


class Refine(Action):
    """Apply a predicate to the current collection."""

    __slots__ = ("predicate", "mode")

    def __init__(self, predicate: Predicate, mode: str = RefineMode.FILTER):
        if mode not in RefineMode.ALL:
            raise ValueError(f"unknown refine mode {mode!r}")
        self.predicate = predicate
        self.mode = mode

    def __repr__(self) -> str:
        return f"Refine({self.predicate!r}, mode={self.mode!r})"


class GoToItem(Action):
    """Navigate to a single item."""

    __slots__ = ("item",)

    def __init__(self, item: Node):
        self.item = item

    def __repr__(self) -> str:
        return f"GoToItem({self.item!r})"


class GoToCollection(Action):
    """Navigate to a fixed collection of items (e.g. similar items)."""

    __slots__ = ("items", "description")

    def __init__(self, items: Sequence[Node], description: str):
        self.items = list(items)
        self.description = description

    def __repr__(self) -> str:
        return f"GoToCollection({len(self.items)} items, {self.description!r})"


class NewQuery(Action):
    """Replace the current query with a brand-new one."""

    __slots__ = ("predicate",)

    def __init__(self, predicate: Predicate):
        self.predicate = predicate

    def __repr__(self) -> str:
        return f"NewQuery({self.predicate!r})"


class OpenRangeWidget(Action):
    """Open the two-slider range control of Figure 5 for a property."""

    __slots__ = ("prop", "preview")

    def __init__(self, prop: Resource, preview: RangePreview):
        self.prop = prop
        self.preview = preview

    def __repr__(self) -> str:
        return f"OpenRangeWidget({self.prop!r}, {self.preview!r})"


class Invoke(Action):
    """Arbitrary analyst-supplied behaviour, run on selection (§4.3)."""

    __slots__ = ("callback", "description")

    def __init__(self, callback: Callable[[], object], description: str):
        self.callback = callback
        self.description = description

    def __repr__(self) -> str:
        return f"Invoke({self.description!r})"


class Suggestion:
    """One navigation recommendation on the blackboard."""

    __slots__ = ("advisor", "title", "action", "weight", "group", "analyst")

    def __init__(
        self,
        advisor: str,
        title: str,
        action: Action,
        weight: float = 0.0,
        group: str | None = None,
        analyst: str | None = None,
    ):
        self.advisor = advisor
        self.title = title
        self.action = action
        self.weight = float(weight)
        self.group = group
        self.analyst = analyst

    def copy(self) -> "Suggestion":
        """A fresh suggestion with the same fields; the action is shared."""
        return Suggestion(
            self.advisor,
            self.title,
            self.action,
            weight=self.weight,
            group=self.group,
            analyst=self.analyst,
        )

    def __repr__(self) -> str:
        return (
            f"Suggestion({self.advisor!r}, {self.title!r}, "
            f"w={self.weight:.3f}, group={self.group!r})"
        )
