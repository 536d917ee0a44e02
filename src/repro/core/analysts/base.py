"""Analyst base class and triggering contract (§4.3).

An analyst is an algorithmic unit "triggered by the framework based on
the currently viewed (document, collection of documents / result set,
query, etc.)".  Subclasses implement:

* :meth:`Analyst.triggers_on` — whether this view activates the analyst
  (the "triggered when a user navigates to items of a given type"
  mechanism), and
* :meth:`Analyst.analyze` — inspect the view and post suggestions.

Analysts triggered "by results from other analysts" instead override
:meth:`Analyst.on_posted` and return True from :meth:`is_reactive`.

An analyst whose postings depend only on the view's kind, item, items
and query plus the workspace declares :attr:`Analyst.view_pure`; the
engine may then serve a repeated view from the workspace's analysis
memo instead of running it (:mod:`..analysis_memo`).
"""

from __future__ import annotations

from ..blackboard import Blackboard
from ..suggestions import Suggestion
from ..view import View

__all__ = ["Analyst"]


class Analyst:
    """Base class for all navigation analysts."""

    #: Stable identifier, used to tag suggestions for debugging/studies.
    name = "analyst"

    #: A contract, not a setting: True only when :meth:`analyze` reads
    #: nothing but the view's kind, item, items and query and the
    #: workspace (never its history), so equal views post equal
    #: suggestions while the workspace's data is unchanged.
    view_pure = False

    def triggers_on(self, view: View) -> bool:
        """True when this analyst should run for the given view."""
        raise NotImplementedError

    def analyze(self, view: View, blackboard: Blackboard) -> None:
        """Inspect the view and post suggestions to the blackboard."""
        raise NotImplementedError

    def is_reactive(self) -> bool:
        """True for analysts triggered by other analysts' postings."""
        return False

    def on_posted(
        self, view: View, blackboard: Blackboard, suggestion: Suggestion
    ) -> None:
        """React to another analyst's posting (reactive analysts only)."""

    def post(
        self,
        blackboard: Blackboard,
        advisor: str,
        title: str,
        action,
        weight: float = 0.0,
        group: str | None = None,
    ) -> Suggestion:
        """Helper: build, tag, and post a suggestion."""
        suggestion = Suggestion(
            advisor, title, action, weight=weight, group=group, analyst=self.name
        )
        blackboard.post(suggestion)
        return suggestion

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
