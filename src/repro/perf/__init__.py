"""Performance substrate: interning, bitsets, and cache instrumentation.

Magnet's interactivity (§3–§5: suggestions and query previews recomputed
on every refinement click) rests on the repository being fast at
repeated set algebra and facet counting over the same corpus.  This
package supplies the shared low-level pieces:

* :class:`InternTable` — a monotonic ``Node ↔ int`` intern table, so
  item sets can be represented as Python-int bitmasks;
* bitset utilities (:func:`bits_from_ids`, :func:`iter_ids`,
  :func:`popcount`) — AND/OR/NOT over whole collections become single
  bitwise operations;
* :class:`CacheStats` / :class:`IndexMaintenanceStats` — counters that
  make cache behaviour observable in tests and benchmarks.

The per-item facet entries behind single-pass facet profiles live with
the other per-item analyst state in
:class:`repro.core.analysts.records.AnalystRecords`.

Everything here is pure bookkeeping: no component changes any query,
facet, or ranking *output*, only the time taken to produce it.
"""

from .bitset import bits_from_ids, bits_from_nodes, iter_ids, popcount
from .intern import InternTable
from .stats import CacheStats, IndexMaintenanceStats

__all__ = [
    "InternTable",
    "CacheStats",
    "IndexMaintenanceStats",
    "bits_from_ids",
    "bits_from_nodes",
    "iter_ids",
    "popcount",
]
