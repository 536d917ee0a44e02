"""The multi-hop path analyst: composition chips discovered from data.

Where :class:`RefinementAnalyst` follows *schema-annotated* attribute
compositions, this analyst discovers two-hop chains from the instance
data itself: for every item in view whose property value is a node with
properties of its own, the chain ``p1/p2 : value`` is a candidate
refinement.  Chips are posted as :class:`~repro.query.ast.Path`
predicates, so selecting one exercises the same typed-path machinery
the query bar's ``author/affiliation`` syntax reaches — and the
differential fuzzer's suggestion probe previews these chips against the
naive model, racing path evaluation on every suggestion cycle.

The chains come from the workspace's per-item analyst records
(:mod:`.records`), so a cycle counts precomputed chips instead of
walking two hops of the graph for every item in view.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from ...query.ast import Path, PathStep
from ..advisors import REFINE_COLLECTION
from ..blackboard import Blackboard
from ..suggestions import Refine
from ..view import View
from ..weights import refinement_weight
from .base import Analyst

__all__ = ["PathAnalyst"]


class PathAnalyst(Analyst):
    """Posts two-hop ``p1/p2 : value`` refinements for collection views."""

    name = "refine-by-path"
    view_pure = True

    def __init__(self, max_chips: int = 12):
        self.max_chips = max_chips

    def triggers_on(self, view: View) -> bool:
        return view.is_collection and len(view.items) > 1

    def analyze(self, view: View, blackboard: Blackboard) -> None:
        workspace = view.workspace
        schema = workspace.schema
        size = len(view.items)
        records = workspace.analyst_records()
        counts = Counter(
            chain.from_iterable(r.chips for r in records.of(view.items))
        )
        ranked = sorted(
            ((records.chip(chip_id), count) for chip_id, count in counts.items()),
            key=lambda kv: (
                -kv[1],
                kv[0][0].uri,
                kv[0][1].uri,
                kv[0][2].n3(),
            ),
        )
        posted = 0
        for (p1, p2, value), count in ranked:
            if posted >= self.max_chips:
                break
            if count >= size:
                continue  # present via this chain in every item
            weight = refinement_weight(count, size, 1.0)
            if weight <= 0.0:
                continue
            self.post(
                blackboard,
                REFINE_COLLECTION,
                f"{schema.label(value)} ({count})",
                Refine(Path((PathStep(p1), PathStep(p2)), value)),
                weight=weight,
                group=f"{schema.label(p1)} / {schema.label(p2)}",
            )
            posted += 1
