"""The cross-session memo of view-pure analyst postings.

Most analysts read nothing but the currently viewed thing — its kind,
item, items and query — and the workspace (§4.3: analysts are
"triggered by the framework based on the currently viewed (document,
collection ..., query)").  Such an analyst declares ``view_pure``, and
what it posts for one view is then a function of that view and the
workspace's data.  Every session's landing pane is the same
whole-corpus view, and many users walk the same navigation structure,
so the workspace keeps those postings in an :class:`AnalysisMemo` and a
repeated view is served from it instead of re-running the analysts.

* **Key.**  The analyst object and the view's :class:`ViewSignature`.
* **Validity.**  The memo lives on one workspace, whose graph and
  model never change, so no entry goes stale.  Epoch workspaces and
  ``as_of`` views carry memos of their own.
* **Bound.**  An LRU of at most :data:`ANALYSIS_MEMO_CAP` entries, one
  per (analyst, view).
* **Copies.**  Postings are stored and served as fresh
  :class:`~repro.core.suggestions.Suggestion` copies, so a caller that
  edits a presented suggestion cannot change another session's pane.
  Actions are shared, and are immutable by contract.

The lock guards only the dictionary.  It is never held while an
analyst runs, so two concurrent misses on one view may both compute;
the second store overwrites the first with equal postings.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from ..perf.stats import CacheStats
from .suggestions import Suggestion

__all__ = ["ANALYSIS_MEMO_CAP", "AnalysisMemo", "ViewSignature"]

#: Most (analyst, view) entries one workspace keeps; past it the least
#: recently used entry is evicted.  What an entry holds depends on its
#: analyst.  Median sizes on the 1,000-recipe corpus, counting the
#: suggestions, their actions and strings but not the graph's terms:
#: refine-by-property-value 14 kB (4-17), sharing-a-property 10 kB,
#: refine-by-text 7.4 kB, refine-by-path 6.3 kB, refine-by-range
#: 2.6 kB (1.5-19), related-collections 2.4 kB, contrary-constraints
#: 1.2 kB, both similar-by-content analysts 0.7 kB, and
#: keyword-search-within 0.55 kB.  A full memo adds under 2% to the
#: served process's resident set; 2,048 entries added 13%.  The vector
#: store keeps its own memo of similarity searches
#: (:class:`~repro.index.store.SearchMemo`), so those outlive this LRU.
ANALYSIS_MEMO_CAP = 256


class ViewSignature:
    """A view's identity for the memo: ``(kind, item, items, query)``.

    The items tuple can hold a whole corpus, so the hash is taken once.
    Equal predicates may still render differently (``Range`` bounds
    ``0.0`` and ``-0.0`` are equal, but describe as "0" and "-0"), so
    the query's repr is part of the key too.  Construction raises
    ``TypeError`` or ``NotImplementedError`` for an unhashable query.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, view):
        query = view.query
        self.key = (
            view.kind,
            view.item,
            tuple(view.items),
            query,
            None if query is None else repr(query),
        )
        self._hash = hash(self.key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ViewSignature)
            and self._hash == other._hash
            and self.key == other.key
        )


class AnalysisMemo:
    """Postings of view-pure analysts, per (analyst, view), bounded."""

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, analyst, signature: ViewSignature) -> list[Suggestion] | None:
        """Fresh copies of the memoized postings, or None on a miss."""
        key = (analyst, signature)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self.stats.record_miss()
            return None
        self.stats.record_hit()
        return [suggestion.copy() for suggestion in entry]

    def put(
        self, analyst, signature: ViewSignature, postings: Sequence[Suggestion]
    ) -> None:
        """Store copies of what an analyst posted for a view."""
        entry = tuple(suggestion.copy() for suggestion in postings)
        key = (analyst, signature)
        evicted = 0
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > ANALYSIS_MEMO_CAP:
                self._entries.popitem(last=False)
                evicted += 1
        for _ in range(evicted):
            self.stats.record_eviction()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"<AnalysisMemo entries={len(self._entries)} {self.stats!r}>"
