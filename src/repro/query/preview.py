"""Query preview for continuous attributes (§5.4, Figure 5).

The range-selection control shows "hatch marks to represent documents,
thus showing a form of query preview": a histogram of the attribute's
values over the current collection, plus the count that would survive a
candidate [low, high] selection.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

__all__ = ["RangePreview"]


class RangePreview:
    """Histogram + slider state for one continuous attribute.

    Mirrors Figure 5's control: two sliders select the boundary, hatch
    marks preview the document distribution.

    Readings are kept sorted, so NaN (which has no place in an order)
    is dropped.  ±inf readings are kept and counted, as ``Range`` does,
    but the sliders and the histogram span the finite readings only.
    """

    def __init__(self, values: Sequence[float], buckets: int = 20):
        if buckets <= 0:
            raise ValueError("buckets must be positive")
        self.values = sorted(v for v in values if not math.isnan(v))
        self.buckets = buckets
        self._finite = slice(
            bisect_right(self.values, -math.inf),
            bisect_left(self.values, math.inf),
        )

    @property
    def is_empty(self) -> bool:
        return not self.values

    @property
    def low(self) -> float:
        """The smallest finite reading (0.0 when there is none)."""
        finite = self._finite
        return self.values[finite.start] if finite.start < finite.stop else 0.0

    @property
    def high(self) -> float:
        """The largest finite reading (0.0 when there is none)."""
        finite = self._finite
        return self.values[finite.stop - 1] if finite.start < finite.stop else 0.0

    def histogram(self) -> list[int]:
        """Per-bucket counts of the finite readings over [low, high]."""
        counts = [0] * self.buckets
        low = self.low
        width = self.high - low
        for value in self.values[self._finite]:
            if width == 0.0:
                index = 0
            else:
                index = min(
                    self.buckets - 1,
                    int((value - low) / width * self.buckets),
                )
            counts[index] += 1
        return counts

    def count_between(self, low: float | None, high: float | None) -> int:
        """How many readings a [low, high] slider selection keeps.

        ``values`` is kept sorted, so the kept span is a contiguous
        slice located by bisection — dragging a slider costs O(log n)
        per preview instead of a full scan.
        """
        values = self.values
        start = 0 if low is None else bisect_left(values, low)
        end = len(values) if high is None else bisect_right(values, high)
        return max(0, end - start)

    def hatch_marks(self, width: int = 40) -> str:
        """An ASCII rendering of the hatch-mark strip.

        Each column shows density on a four-step scale — the textual
        stand-in for Figure 5's graphical control.
        """
        counts = self.histogram() if self.buckets == width else self._rebucket(width)
        peak = max(counts) if counts else 0
        if peak == 0:
            return " " * width
        glyphs = " .:|"
        out = []
        for count in counts:
            level = 0 if count == 0 else 1 + min(2, (count * 3 - 1) // peak)
            out.append(glyphs[level])
        return "".join(out)

    def _rebucket(self, width: int) -> list[int]:
        return RangePreview(self.values, buckets=width).histogram()

    def __repr__(self) -> str:
        if self.is_empty:
            return "<RangePreview empty>"
        return (
            f"<RangePreview n={len(self.values)} "
            f"[{self.low:g}, {self.high:g}] buckets={self.buckets}>"
        )
