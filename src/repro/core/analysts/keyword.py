"""Text-refinement analysts: words in the body/title, and query-within.

§3.2: the Refine Collections advisor "suggests refining the search by
one of the metadata attribute axes, as well as by words in the body or
in the title of the document"; §4.3: other analysts "provide support for
keyword search within the collection (as shown under 'Query')".
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from ...query.ast import TextMatch
from ..advisors import REFINE_COLLECTION
from ..blackboard import Blackboard
from ..suggestions import Invoke, Refine
from ..view import View
from ..weights import refinement_weight
from .base import Analyst

__all__ = ["TextRefinementAnalyst", "KeywordSearchAnalyst"]


class TextRefinementAnalyst(Analyst):
    """Suggests discriminating words from the collection's text values.

    This is §5.3's query-refinement technique applied per text property:
    "picking terms in the average document having the largest normalized
    term weights" — i.e. words common (but not too common) in the result
    set, with corpus idf folded in.
    """

    name = "refine-by-text"
    view_pure = True

    def __init__(self, max_words_per_property: int = 10, min_items: int = 2):
        self.max_words_per_property = max_words_per_property
        self.min_items = min_items

    def triggers_on(self, view: View) -> bool:
        return view.is_collection and len(view.items) >= self.min_items

    def analyze(self, view: View, blackboard: Blackboard) -> None:
        workspace = view.workspace
        size = len(view.items)
        # per text property: each item's distinct stems (document
        # frequency within the collection) and its raw tokens (surface
        # forms, so the pane shows "parsley", not the stem "parslei";
        # TextMatch re-analyzes, so either works).
        records = workspace.analyst_records()
        by_property: dict[int, tuple[list, list]] = {}
        for record in records.of(view.items):
            for prop_id, stems, raws in record.words:
                lists = by_property.get(prop_id)
                if lists is None:
                    lists = by_property[prop_id] = ([], [])
                lists[0].append(stems)
                lists[1].append(raws)
        universe = len(workspace.text_index.indexed_items) or 1
        for prop, stems, raws in sorted(
            ((records.node(p), s, r) for p, (s, r) in by_property.items()),
            key=lambda entry: entry[0].uri,
        ):
            counts = Counter(chain.from_iterable(stems))
            corpus_df = workspace.text_index.token_frequencies(within=prop)
            group = f"words in {workspace.schema.label(prop)}"
            scored = []
            for token, count in counts.items():
                if count >= size:
                    continue  # in every item: not a refinement
                df = corpus_df.get(token, count)
                idf = _safe_idf(universe, df)
                weight = refinement_weight(count, size, idf)
                if weight > 0.0:
                    scored.append((weight, token, count))
            scored.sort(key=lambda entry: (-entry[0], entry[1]))
            if not scored:
                continue
            surfaces = _surface_forms(records, chain.from_iterable(raws))
            for weight, token, count in scored[: self.max_words_per_property]:
                display = surfaces[token]
                self.post(
                    blackboard,
                    REFINE_COLLECTION,
                    f"“{display}” ({count})",
                    Refine(TextMatch(display, within=prop)),
                    weight=weight,
                    group=group,
                )


def _surface_forms(records, raws) -> dict[str, str]:
    """Stem -> its most frequent raw form, ties to the first seen.

    The raw counts keep first-occurrence order, so the strict ``>``
    picks what ``Counter.most_common(1)`` over one stem's raws would.
    """
    best: dict[str, tuple[str, int]] = {}
    for raw, count in Counter(raws).items():
        stem = records.stem_of(raw)
        held = best.get(stem)
        if held is None or count > held[1]:
            best[stem] = (raw, count)
    return {stem: raw for stem, (raw, _count) in best.items()}


def _safe_idf(universe: int, df: int) -> float:
    import math

    if df <= 0 or df >= universe:
        return 0.0
    return math.log(universe / df)


class KeywordSearchAnalyst(Analyst):
    """Posts the always-available "Query within this collection" entry.

    Selecting it requires user input, so the action is the most general
    kind §4.3 allows: an :class:`Invoke` whose callback the session wires
    to its ``search_within`` operation.
    """

    name = "keyword-search-within"
    view_pure = True

    def __init__(self, weight: float = 0.25):
        self.weight = weight

    def triggers_on(self, view: View) -> bool:
        return view.is_collection and bool(view.items)

    def analyze(self, view: View, blackboard: Blackboard) -> None:
        self.post(
            blackboard,
            REFINE_COLLECTION,
            "Query within this collection…",
            Invoke(lambda: None, "prompt for keywords, then refine"),
            weight=self.weight,
            group=None,
        )
