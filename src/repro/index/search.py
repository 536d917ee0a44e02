"""Top-k retrieval over an inverted index of weighted vectors.

:func:`top_k` is exhaustive term-at-a-time accumulation followed by heap
selection: it touches every posting of every query coordinate and ranks
by (score desc, repr asc), so results are deterministic.  A WAND-style
pruned variant was measured and dropped: made the default on the served
browse workload it cut throughput from ~248 to ~108 ops/s, so the
exhaustive scan is the only strategy.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, NamedTuple

from ..vsm.vector import SparseVector
from .inverted import InvertedIndex

__all__ = ["Hit", "top_k"]


class Hit(NamedTuple):
    """One retrieval result: an item and its dot-product score."""

    item: Hashable
    score: float


class _MaxStr:
    """A string that sorts in *reverse*.

    Heap entries are ``(score, _MaxStr(repr(item)), seq, item)`` on a
    min-heap keeping the k best, so ``heap[0]`` must be the *worst*
    retained hit: the lowest score, and among equal scores the largest
    repr.  Reversing the string's ordering makes the plain tuple
    comparison do exactly that.
    """

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __lt__(self, other: "_MaxStr") -> bool:
        return self.value > other.value


def top_k(
    index: InvertedIndex,
    query: SparseVector,
    k: int,
    exclude: Callable[[Hashable], bool] | None = None,
) -> list[Hit]:
    """The ``k`` items with the largest dot product against ``query``.

    Accumulates partial scores document-at-a-time over the postings of
    the query's non-zero coordinates, then heap-selects.  Ties break on
    the items' repr for determinism.  ``exclude`` filters items out
    during selection (e.g. the currently viewed item).

    Selection maintains a k-entry min-heap whose root is the worst hit
    kept so far; candidates that cannot beat it are dismissed on the
    score comparison alone, so their (surprisingly expensive) reprs are
    never computed and no filtered copy of the score table is built.
    """
    if k <= 0 or len(query) == 0:
        return []
    scores: dict[Hashable, float] = {}
    touched = 0
    for coord, q_weight in query.items():
        postings = index.postings(coord)
        touched += len(postings)
        for item, d_weight in postings.items():
            scores[item] = scores.get(item, 0.0) + q_weight * d_weight
    index.postings_touched += touched
    return _select(scores, k, exclude)


def _select(
    scores: dict[Hashable, float],
    k: int,
    exclude: Callable[[Hashable], bool] | None,
) -> list[Hit]:
    """Heap-select the k best (score desc, repr asc) from a score table.

    The kept set is canonical — the k smallest entries under
    ``(-score, repr)`` — so the result does not depend on the table's
    iteration order.
    """
    heap: list[tuple[float, _MaxStr, int, Hashable]] = []
    seq = 0
    for item, score in scores.items():
        if exclude is not None and exclude(item):
            continue
        if len(heap) < k:
            heapq.heappush(heap, (score, _MaxStr(repr(item)), seq, item))
        elif score > heap[0][0]:
            heapq.heapreplace(heap, (score, _MaxStr(repr(item)), seq, item))
        elif score == heap[0][0]:
            marker = _MaxStr(repr(item))
            if marker.value < heap[0][1].value:
                heapq.heapreplace(heap, (score, marker, seq, item))
        seq += 1
    ordered = sorted(heap, key=lambda entry: (-entry[0], entry[1].value))
    return [Hit(item, score) for score, _marker, _seq, item in ordered]
