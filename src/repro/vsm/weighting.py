"""Term weighting: tf.idf and normalization exactly as §5.2 specifies.

    term-weight = log(freq + 1.0) × log(num-docs / num-docs-with-term)

    normalized-weight = term-weight / sqrt(Σ term-weight²)

The tf fed into the formula has already been divided by the number of
values the attribute carries (the Lucene-style per-attribute
normalization that "gives equal importance to different attributes in a
document"), and the final division normalizes each item to unit length
"to give objects equal importance rather than giving more importance to
items with more metadata".

The document frequencies behind idf are counted once per epoch: by a
cold build, or by :meth:`CorpusStats.advance` from the prior epoch's
counts, which it leaves untouched.
"""

from __future__ import annotations

import math

__all__ = ["term_weight", "idf", "CorpusStats"]


def idf(num_docs: int, num_docs_with_term: int) -> float:
    """Inverse document frequency: log(N / df); 0 for unseen terms.

    A term occurring in every document gets idf 0, which is what lets
    the model "ignore those attribute values that are very common".
    """
    if num_docs <= 0 or num_docs_with_term <= 0:
        return 0.0
    if num_docs_with_term >= num_docs:
        return 0.0
    return math.log(num_docs / num_docs_with_term)


def term_weight(freq: float, num_docs: int, num_docs_with_term: int) -> float:
    """The paper's un-normalized term weight."""
    if freq <= 0.0:
        return 0.0
    return math.log(freq + 1.0) * idf(num_docs, num_docs_with_term)


class CorpusStats:
    """Document frequencies for the corpus.

    Magnet indexes data "in advance (as it arrives)": a cold build adds
    each item's coordinate set once, and an epoch fold derives the next
    epoch's statistics with :meth:`advance` instead of editing the
    prior epoch's.
    """

    def __init__(self):
        self._df: dict = {}
        self.num_docs = 0

    @classmethod
    def advance(cls, prior: "CorpusStats", gone, arrived) -> "CorpusStats":
        """``prior``'s counts less the documents ``gone``, plus ``arrived``.

        Both are sequences of coordinate sets, one per document; every
        document of ``gone`` must have been counted in ``prior``.  The
        counts equal a cold build's over the same documents, and
        ``prior`` is left untouched.
        """
        stats = cls()
        df = stats._df = dict(prior._df)
        for coords in gone:
            for coord in coords:
                remaining = df[coord] - 1
                if remaining:
                    df[coord] = remaining
                else:
                    del df[coord]
        stats.num_docs = prior.num_docs - len(gone)
        for coords in arrived:
            stats.add_document(coords)
        return stats

    def doc_frequency(self, coord) -> int:
        """Number of documents containing a coordinate."""
        return self._df.get(coord, 0)

    def idf(self, coord) -> float:
        """idf of one coordinate under the current stats."""
        return idf(self.num_docs, self._df.get(coord, 0))

    def add_document(self, coords) -> None:
        """Record a new document's distinct coordinates."""
        for coord in coords:
            self._df[coord] = self._df.get(coord, 0) + 1
        self.num_docs += 1

    def vocabulary_size(self) -> int:
        """Number of distinct coordinates seen so far."""
        return len(self._df)

    def __repr__(self) -> str:
        return f"<CorpusStats docs={self.num_docs} vocab={len(self._df)}>"
