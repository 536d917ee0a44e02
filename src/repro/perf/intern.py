"""A monotonic intern table mapping hashable nodes to dense small ints.

Interned ids are assigned in first-seen order and are never reused or
reassigned, so any bitmask built against the table stays valid for the
table's whole lifetime — growing the corpus only appends ids.  This is
the property that lets the query layer cache extents as plain ints and
invalidate purely on the graph's mutation version, and that lets a view
keep its own mask for as long as the table lives.  The table is weakly
referenceable so such a cache can name the table without pinning it.

:meth:`InternTable.ordered` lists a mask's nodes in a caller's sort
order from a rank over the ids, built once per table: a C-level
``compress`` or a sort of ids by rank replaces a per-node key call.
"""

from __future__ import annotations

import threading
from itertools import compress
from operator import itemgetter
from typing import Callable, Hashable, Iterable

from .bitset import bits_from_ids, iter_ids

__all__ = ["InternTable"]


class InternTable:
    """Bidirectional ``node ↔ int`` mapping with monotonic ids."""

    __slots__ = ("_id_of", "_node_at", "_lock", "_rank", "__weakref__")

    def __init__(self):
        self._id_of: dict[Hashable, int] = {}
        self._node_at: list[Hashable] = []
        self._lock = threading.Lock()
        #: (sort key, _Rank) for :meth:`ordered`, built on first use.
        self._rank: tuple[Callable, "_Rank"] | None = None

    def intern(self, node: Hashable) -> int:
        """The node's id, minting a fresh one on first sight.

        Double-checked: the lock-free fast path serves the read-mostly
        steady state; minting takes the lock so two threads first seeing
        the same node cannot assign it two ids (which would silently
        split its extent bits).  The list append happens before the dict
        publish so a concurrent ``node_at`` on a freshly read id cannot
        observe a hole.
        """
        idx = self._id_of.get(node)
        if idx is None:
            with self._lock:
                idx = self._id_of.get(node)
                if idx is None:
                    idx = len(self._node_at)
                    self._node_at.append(node)
                    self._id_of[node] = idx
        return idx

    def id_of(self, node: Hashable) -> int | None:
        """The node's id without minting; None when never interned."""
        return self._id_of.get(node)

    def node_at(self, idx: int) -> Hashable:
        """The node carrying an id (raises IndexError for unknown ids)."""
        return self._node_at[idx]

    def __len__(self) -> int:
        return len(self._node_at)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._id_of

    # ------------------------------------------------------------------
    # Bitmask bridging
    # ------------------------------------------------------------------

    def bits_of(self, nodes: Iterable[Hashable]) -> int:
        """A bitmask over the nodes' ids (minting ids as needed)."""
        intern = self.intern
        return bits_from_ids(intern(node) for node in nodes)

    def nodes_of(self, mask: int) -> set:
        """The set of nodes whose ids are set in ``mask``."""
        node_at = self._node_at
        return {node_at[idx] for idx in iter_ids(mask)}

    def ordered(self, mask: int, key: Callable) -> list:
        """``sorted(self.nodes_of(mask), key=key)``, without calling ``key``.

        The first call ranks every id the table holds by ``key`` (one
        key call per node); later calls with the same key object reuse
        the rank.  A mask carrying an id minted after the rank was built
        falls back to the plain sort.
        """
        cached = self._rank
        if cached is None or cached[0] is not key:
            cached = (key, _Rank(self._node_at, key))
            self._rank = cached
        rank = cached[1]
        if mask >> rank.size:
            return sorted(self.nodes_of(mask), key=key)
        return rank.ordered(mask)

    def __repr__(self) -> str:
        return f"<InternTable size={len(self._node_at)}>"


#: ``bin()`` digits to flag bytes: ``b"0" -> 0``, ``b"1" -> 1``.
_FLAGS = bytes.maketrans(b"01", b"\0\1")

#: Below one set bit in this many ids, :meth:`_Rank.ordered` walks the
#: set bits instead of compressing the whole ranked node list.
_SPARSE = 64


class _Rank:
    """Ids ``0 .. size-1`` of one intern table, ranked by a sort key.

    ``nodes`` lists the nodes in key order, ``position[i]`` is id ``i``'s
    place in it, and ``pick`` permutes a per-id flag string into that
    order.  Immutable once built, so concurrent readers may share it.
    """

    __slots__ = ("size", "nodes", "position", "pick", "node_at")

    def __init__(self, node_at: list, key: Callable):
        # Ids are never reassigned, so the live list can be read below
        # ``size`` while other threads append past it.
        held = node_at[:]
        keys = list(map(key, held))
        order = sorted(range(len(held)), key=keys.__getitem__)
        self.size = len(held)
        self.node_at = node_at
        self.nodes = [held[i] for i in order]
        position = [0] * len(order)
        for place, idx in enumerate(order):
            position[idx] = place
        self.position = position
        # itemgetter over a single index returns a scalar, not a tuple.
        self.pick = itemgetter(*order) if len(order) > 1 else None

    def ordered(self, mask: int) -> list:
        """The nodes of ``mask`` (every id below ``size``), in key order."""
        if mask.bit_count() * _SPARSE < self.size or self.pick is None:
            node_at = self.node_at
            ids = sorted(iter_ids(mask), key=self.position.__getitem__)
            return [node_at[idx] for idx in ids]
        flags = bin(mask)[:1:-1].encode("ascii").translate(_FLAGS)
        flags = flags.ljust(self.size, b"\0")
        return list(compress(self.nodes, self.pick(flags)))
