"""Contrary-constraints analyst (§4.1).

Suggests collections "that have one of the current collection
constraints inverted.  This advisor helps users get an overview of other
related information that is available" — and, per the user study
(§6.3.1), it is the hook that got stuck users "started in the process"
of negation during the no-nuts task.
"""

from __future__ import annotations

from ...query.ast import And, Predicate
from ..advisors import MODIFY
from ..blackboard import Blackboard
from ..suggestions import NewQuery
from ..view import View
from .base import Analyst

__all__ = ["ContraryAnalyst"]


class ContraryAnalyst(Analyst):
    """Posts one inverted-constraint query per current constraint chip."""

    name = "contrary-constraints"
    view_pure = True

    def __init__(self, weight: float = 0.6):
        self.weight = weight

    def triggers_on(self, view: View) -> bool:
        return view.is_collection and bool(view.constraints())

    def analyze(self, view: View, blackboard: Blackboard) -> None:
        constraints = view.constraints()
        context = view.workspace.query_context
        for index, constraint in enumerate(constraints):
            inverted = self._invert_at(constraints, index)
            self.post(
                blackboard,
                MODIFY,
                f"Instead: NOT ({constraint.describe(context)})",
                NewQuery(inverted),
                weight=self.weight,
                group="Contrary Constraints",
            )

    @staticmethod
    def _invert_at(constraints: list[Predicate], index: int) -> Predicate:
        parts = [
            constraint.negated() if i == index else constraint
            for i, constraint in enumerate(constraints)
        ]
        if len(parts) == 1:
            return parts[0]
        return And(parts)
