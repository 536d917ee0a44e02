"""The navigation engine: triggering analysts, presenting advisors (§4).

``NavigationEngine.suggest`` runs one blackboard cycle for a view:

1. a fresh :class:`Blackboard` is created;
2. reactive analysts register as post listeners (the "triggered by
   results from other analysts" mechanism);
3. every analyst whose :meth:`triggers_on` accepts the view runs —
   or, for a ``view_pure`` analyst whose postings for an equal view are
   in the workspace's analysis memo, fresh copies of them are posted;
4. each advisor selects and orders its suggestions.

The result — advisor id → presented suggestions — is what the
navigation pane renders.
"""

from __future__ import annotations

from ..obs import NULL_OBS
from .advisors import Advisor, standard_advisors
from .analysis_memo import ViewSignature
from .analysts import Analyst, standard_analysts
from .blackboard import Blackboard
from .suggestions import Suggestion
from .view import View

__all__ = ["NavigationEngine", "NavigationResult"]

#: Fixed buckets for the per-analyst posted-suggestion histogram.
_SUGGESTION_BUCKETS = (0, 1, 2, 5, 10, 20, 50)


class NavigationResult:
    """The outcome of one suggestion cycle."""

    def __init__(
        self,
        view: View,
        blackboard: Blackboard,
        presented: dict[str, list[Suggestion]],
        overflow: dict[str, list[str]],
    ):
        self.view = view
        self.blackboard = blackboard
        #: advisor id → ordered suggestions to display
        self.presented = presented
        #: advisor id → groups truncated by the per-group cap ('...')
        self.overflow = overflow

    def suggestions(self, advisor_id: str) -> list[Suggestion]:
        """The presented suggestions of one advisor ([] when silent)."""
        return self.presented.get(advisor_id, [])

    def all_suggestions(self) -> list[Suggestion]:
        """Every presented suggestion across advisors."""
        return [s for batch in self.presented.values() for s in batch]

    def find(self, fragment: str) -> list[Suggestion]:
        """Presented suggestions whose title contains a fragment."""
        needle = fragment.lower()
        return [s for s in self.all_suggestions() if needle in s.title.lower()]

    def groups(self, advisor_id: str) -> list[str]:
        """Distinct display groups of one advisor, in presented order."""
        seen: list[str] = []
        for suggestion in self.suggestions(advisor_id):
            if suggestion.group and suggestion.group not in seen:
                seen.append(suggestion.group)
        return seen

    def __repr__(self) -> str:
        total = sum(len(v) for v in self.presented.values())
        return f"<NavigationResult {total} suggestions over {len(self.presented)} advisors>"


class NavigationEngine:
    """Coordinates analysts and advisors for suggestion cycles."""

    def __init__(
        self,
        analysts: list[Analyst] | None = None,
        advisors: dict[str, Advisor] | None = None,
    ):
        self.analysts = analysts if analysts is not None else standard_analysts()
        self.advisors = advisors if advisors is not None else standard_advisors()

    def add_analyst(self, analyst: Analyst) -> None:
        """Register an additional analyst — the §4.1 extension hook."""
        self.analysts.append(analyst)

    def add_advisor(self, advisor: Advisor) -> None:
        """Register an additional advisor."""
        self.advisors[advisor.advisor_id] = advisor

    def suggest(self, view: View) -> NavigationResult:
        """Run one full blackboard cycle for a view.

        Each triggered analyst runs under its own ``nav.analyst`` span
        tagged with how many suggestions its turn put on the blackboard
        (including reactive postings it provoked), and the same count
        feeds the ``nav.analyst_suggestions`` histogram — the per-stage
        cost accounting of the blackboard dispatch.  A memo hit posts
        and accounts exactly as a live run would.  The memo is consulted
        only when no reactive analyst listens to the blackboard.
        """
        workspace = view.workspace
        obs = getattr(workspace, "obs", None) or NULL_OBS
        tracer = obs.tracer
        per_analyst = obs.metrics.histogram(
            "nav.analyst_suggestions", _SUGGESTION_BUCKETS
        )
        blackboard = Blackboard()
        reactive = False
        for analyst in self.analysts:
            if analyst.is_reactive():
                reactive = True
                blackboard.add_listener(
                    lambda board, suggestion, analyst=analyst: analyst.on_posted(
                        view, board, suggestion
                    )
                )
        memo = None if reactive else getattr(workspace, "analysis_memo", None)
        signature = None
        if memo is not None:
            try:
                signature = ViewSignature(view)
            except (TypeError, NotImplementedError):
                pass  # an unhashable custom query: every analyst runs
        with tracer.span("nav.suggest", view=view.kind) as cycle:
            for analyst in self.analysts:
                if analyst.is_reactive() or not analyst.triggers_on(view):
                    continue
                memoized = signature is not None and analyst.view_pure
                before = len(blackboard)
                with tracer.span("nav.analyst", name=analyst.name) as span:
                    postings = memo.get(analyst, signature) if memoized else None
                    if postings is not None:
                        blackboard.post_all(postings)
                    else:
                        analyst.analyze(view, blackboard)
                        if memoized:
                            memo.put(
                                analyst, signature, blackboard.entries[before:]
                            )
                    posted = len(blackboard) - before
                    span.set_tag("suggestions", posted)
                per_analyst.observe(posted)
            presented: dict[str, list[Suggestion]] = {}
            overflow: dict[str, list[str]] = {}
            for advisor_id, advisor in self.advisors.items():
                with tracer.span("nav.advisor", name=advisor_id) as span:
                    chosen = advisor.select(blackboard)
                    truncated = advisor.overflow_groups(blackboard)
                    span.set_tag("selected", len(chosen))
                if chosen:
                    presented[advisor_id] = chosen
                if truncated:
                    overflow[advisor_id] = truncated
            cycle.set_tag("posted", len(blackboard))
        return NavigationResult(view, blackboard, presented, overflow)

    def __repr__(self) -> str:
        return (
            f"<NavigationEngine analysts={len(self.analysts)} "
            f"advisors={len(self.advisors)}>"
        )
