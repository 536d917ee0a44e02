"""Counters that make cache and index-maintenance behaviour observable.

These are deliberately dumb mutable records: hot paths bump plain int
attributes, and tests/benchmarks read them to prove a cache actually hit
or an index update actually stayed incremental.

:class:`CacheStats` additionally offers ``record_*`` increments guarded
by a lock: a sealed workspace is read concurrently by many sessions, and
`x += 1` on a shared counter is a read-modify-write that loses updates
under races.  The concurrency stress tests assert exact counts, so the
shared-cache call sites use the locked path.
"""

from __future__ import annotations

import threading

__all__ = ["CacheStats", "IndexMaintenanceStats"]


class CacheStats:
    """Hit/miss/eviction counters for a cache."""

    __slots__ = ("hits", "misses", "evictions", "_lock")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()

    def record_hit(self) -> None:
        """Atomically count a hit (safe under concurrent readers)."""
        with self._lock:
            self.hits += 1

    def record_miss(self) -> None:
        """Atomically count a miss."""
        with self._lock:
            self.misses += 1

    def record_eviction(self) -> None:
        """Atomically count an entry dropped to stay within capacity."""
        with self._lock:
            self.evictions += 1

    def reset(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"<CacheStats hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions}>"
        )


class IndexMaintenanceStats:
    """How a refreshable index has been kept up to date."""

    __slots__ = ("full_rebuilds", "items_reindexed")

    def __init__(self):
        self.full_rebuilds = 0
        self.items_reindexed = 0

    def reset(self) -> None:
        self.full_rebuilds = 0
        self.items_reindexed = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "full_rebuilds": self.full_rebuilds,
            "items_reindexed": self.items_reindexed,
        }

    def __repr__(self) -> str:
        return (
            f"<IndexMaintenanceStats full={self.full_rebuilds} "
            f"reindexed={self.items_reindexed}>"
        )
