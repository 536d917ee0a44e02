"""Sparse vectors and the coordinate scheme of the semistructured VSM.

§5 maps each item to a vector with one coordinate per attribute/value
pair; text values contribute one coordinate per (attribute, word) and
numeric values contribute a two-component unit-circle encoding (§5.4).
A coordinate is therefore identified by:

* ``path`` — the attribute, or the chain of attributes for a composed
  ("transitive") coordinate (§5.1);
* ``kind`` — how the value is encoded (``object``, ``word``,
  ``num-cos``/``num-sin``);
* ``token`` — the value's identifier: a resource URI, a stemmed word, or
  '' for the numeric components.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, NamedTuple

__all__ = ["Coord", "KIND_OBJECT", "KIND_WORD", "KIND_NUM_COS",
           "KIND_NUM_SIN", "SparseVector"]

KIND_OBJECT = "object"
KIND_WORD = "word"
KIND_NUM_COS = "num-cos"
KIND_NUM_SIN = "num-sin"


class Coord(NamedTuple):
    """One coordinate (dimension) of the semistructured vector space."""

    path: tuple[str, ...]
    kind: str
    token: str

    def describe(self) -> str:
        """A compact human-readable rendering, used in figures/tests."""
        path = ".".join(_short(p) for p in self.path)
        if self.kind == KIND_OBJECT:
            return f"{path}={_short(self.token).upper()}"
        if self.kind == KIND_WORD:
            return f"{path}={self.token}"
        return f"{path}#{self.kind}"


def _short(uri: str) -> str:
    for sep in ("#", "/"):
        if sep in uri:
            tail = uri.rsplit(sep, 1)[1]
            if tail:
                return tail
    return uri


class SparseVector:
    """A sparse real-valued vector over hashable coordinates.

    Backed by a dict; zero entries are never stored.  Supports the
    operations the model and the retrieval machinery need: dot product,
    norms, scaling, addition, and unit-length normalization.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping | Iterable[tuple] | None = None):
        self._entries: dict = {}
        if entries:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for key, weight in items:
                if weight:
                    self._entries[key] = self._entries.get(key, 0.0) + float(weight)
            self._drop_zeros()

    def _drop_zeros(self) -> None:
        dead = [k for k, w in self._entries.items() if w == 0.0]
        for k in dead:
            del self._entries[k]

    # -- mapping-ish interface -----------------------------------------

    def __getitem__(self, key) -> float:
        return self._entries.get(key, 0.0)

    def get(self, key, default: float = 0.0) -> float:
        return self._entries.get(key, default)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator:
        return iter(self._entries)

    def items(self):
        return self._entries.items()

    def keys(self):
        return self._entries.keys()

    def set(self, key, weight: float) -> None:
        """Set one coordinate (removing it when weight is zero)."""
        if weight:
            self._entries[key] = float(weight)
        elif key in self._entries:
            del self._entries[key]

    def increment(self, key, delta: float) -> None:
        """Add ``delta`` to one coordinate."""
        new = self._entries.get(key, 0.0) + float(delta)
        self.set(key, new)

    # -- algebra ---------------------------------------------------------

    def dot(self, other: "SparseVector") -> float:
        """Dot product — the similarity measure of §5.3."""
        if len(other) < len(self):
            self, other = other, self
        mine = self._entries
        theirs = other._entries
        return sum(w * theirs[k] for k, w in mine.items() if k in theirs)

    def norm(self) -> float:
        """Euclidean length.

        Computed hypot-style (scaled by the largest magnitude) so that
        vectors with subnormal-scale weights don't lose precision to
        underflow when squaring.
        """
        if not self._entries:
            return 0.0
        largest = max(abs(w) for w in self._entries.values())
        if largest == 0.0:
            return 0.0
        scaled = sum((w / largest) ** 2 for w in self._entries.values())
        return largest * math.sqrt(scaled)

    def normalized(self) -> "SparseVector":
        """A unit-length copy (the zero vector normalizes to itself).

        Weights are divided by the norm directly rather than multiplied
        by its reciprocal — for subnormal-scale vectors ``1/norm``
        overflows to infinity while the division stays finite.
        """
        length = self.norm()
        if length == 0.0:
            return SparseVector()
        out = SparseVector()
        out._entries = {k: w / length for k, w in self._entries.items()}
        return out

    def cosine(self, other: "SparseVector") -> float:
        """Cosine similarity (dot of the two normalized vectors)."""
        denom = self.norm() * other.norm()
        if denom == 0.0:
            return 0.0
        return self.dot(other) / denom

    def scaled(self, factor: float) -> "SparseVector":
        """A copy with every weight multiplied by ``factor``."""
        if factor == 0.0:
            return SparseVector()
        out = SparseVector()
        out._entries = {k: w * factor for k, w in self._entries.items()}
        return out

    def __add__(self, other: "SparseVector") -> "SparseVector":
        out = SparseVector()
        out._entries = dict(self._entries)
        for k, w in other._entries.items():
            out.increment(k, w)
        return out

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + other.scaled(-1.0)

    @staticmethod
    def centroid(vectors: Iterable["SparseVector"]) -> "SparseVector":
        """The normalized sum — §5.3's "average member" of a collection.

        Sums into one dict with :meth:`increment`'s semantics — a
        running sum that reaches exactly ``0.0`` is deleted, and a later
        addend re-inserts it at the end — so the result, key order
        included, equals folding ``total = total + vec``; that order is
        the summation order of a search against the centroid.
        """
        total = SparseVector()
        entries = total._entries
        get = entries.get
        count = 0
        for vec in vectors:
            for key, weight in vec._entries.items():
                value = get(key, 0.0) + weight
                if value:
                    entries[key] = value
                elif key in entries:
                    del entries[key]
            count += 1
        if count == 0:
            return total
        return total.normalized()

    # -- misc -------------------------------------------------------------

    def top(self, n: int) -> list[tuple]:
        """The ``n`` highest-weight (key, weight) pairs, deterministic."""
        return sorted(
            self._entries.items(), key=lambda kv: (-kv[1], repr(kv[0]))
        )[:n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"<SparseVector dims={len(self._entries)} norm={self.norm():.4f}>"
