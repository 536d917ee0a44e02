"""Top-k retrieval over an inverted index of weighted vectors.

:func:`top_k` is exhaustive term-at-a-time accumulation followed by heap
selection: it touches every posting of every query coordinate and ranks
by (score desc, repr asc), so results are deterministic.  A WAND-style
pruned variant was measured and dropped: made the default on the served
browse workload it cut throughput from ~248 to ~108 ops/s, so the
exhaustive scan is the only strategy.

Scores accumulate over the index's interned document ids, which stay
private to :mod:`repro.index`: an id is mapped back to its item only
when the candidate enters the k-heap, and callers pass and receive
items.  Exclusion is set membership: the ids of the excluded items are
looked up once per search and removed from the set of scored documents
before selection.

Results are bit-identical to accumulating into an item-keyed dict.
Each document's sum starts at ``0.0`` and adds ``q·w`` in the query's
coordinate order, so every score is the same float either way.
Selection keeps the k smallest entries under ``(-score, repr)``, a
canonical set that does not depend on the order the candidates are
visited in, as long as no two scored items share a repr — true of RDF
terms, whose reprs spell out their identity.  So neither the id values
nor the accumulator layout can change a hit or its score.
"""

from __future__ import annotations

import heapq
from typing import Collection, Hashable, NamedTuple

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
    exclude: Collection[Hashable] = (),
) -> list[Hit]:
    """The ``k`` items with the largest dot product against ``query``.

    Accumulates partial scores over the postings of the query's non-zero
    coordinates, then heap-selects.  Ties break on the items' repr for
    determinism.  Items in ``exclude`` are never returned (e.g. the
    currently viewed item).

    Selection maintains a k-entry min-heap whose root is the worst hit
    kept so far; candidates that cannot beat it are dismissed on the
    score comparison alone, so their (surprisingly expensive) reprs are
    never computed.
    """
    if k <= 0 or len(query) == 0:
        return []
    postings = index._postings
    items = index._items
    # Dense accumulators indexed by doc id; ``scored`` records which
    # documents share a coordinate with the query (a sum may be 0.0).
    scores = [0.0] * len(items)
    scored: set[int] = set()
    touched = 0
    for coord, q_weight in query.items():
        bucket = postings.get(coord)
        if bucket is None:
            continue
        touched += len(bucket)
        scored.update(bucket)
        for doc, d_weight in bucket.items():
            scores[doc] += q_weight * d_weight
    index.postings_touched += touched
    if exclude:
        scored.difference_update(map(index._ids.get, exclude))
    return _select(scored, scores, items, k)


def _select(
    scored: set[int], scores: list[float], items: list, k: int
) -> list[Hit]:
    """Heap-select the k best (score desc, repr asc) of the scored docs.

    The kept set is canonical — the k smallest entries under
    ``(-score, repr)`` — so the result does not depend on the order the
    candidates are visited in.
    """
    heap: list[tuple[float, _MaxStr, int, Hashable]] = []
    seq = 0
    for doc in scored:
        score = scores[doc]
        if len(heap) < k:
            item = items[doc]
            heapq.heappush(heap, (score, _MaxStr(repr(item)), seq, item))
        elif score > heap[0][0]:
            item = items[doc]
            heapq.heapreplace(heap, (score, _MaxStr(repr(item)), seq, item))
        elif score == heap[0][0]:
            item = items[doc]
            marker = _MaxStr(repr(item))
            if marker.value < heap[0][1].value:
                heapq.heapreplace(heap, (score, marker, seq, item))
        seq += 1
    ordered = sorted(heap, key=lambda entry: (-entry[0], entry[1].value))
    return [Hit(item, score) for score, _marker, _seq, item in ordered]
