"""Numeric attribute encoding on the unit circle (§5.4).

"To keep the numeric values (which might be arbitrarily large) from
swamping other coordinates in the vector space model when we normalize,
we map the numeric range to the first quadrant of the unit circle, so
that all values have the same norm but different values have small dot
product."

A value ``v`` within an observed attribute range ``[lo, hi]`` maps to the
angle ``θ = (v - lo)/(hi - lo) · π/2`` and contributes the pair
``(cos θ, sin θ)``.  Two properties follow directly:

* every encoded value has norm 1, so dates cannot dominate an item;
* the dot product of two encodings is ``cos(θ₁ - θ₂)``, which is 1 for
  equal values and decays smoothly with distance — e-mails sent a day
  apart are *similar*, not merely unequal (the paper's Thu July 31 /
  Fri Aug 1 example).
"""

from __future__ import annotations

import math

__all__ = ["NumericRange", "encode_unit_circle", "unit_circle_similarity"]


class NumericRange:
    """Running min/max of a numeric attribute across a corpus."""

    __slots__ = ("low", "high", "count")

    def __init__(self):
        self.low = math.inf
        self.high = -math.inf
        self.count = 0

    def observe(self, value: float) -> None:
        """Fold one value into the range.

        Non-finite readings are skipped: a single NaN would otherwise
        satisfy neither comparison, leaving ``low=inf``/``high=-inf``
        with ``count > 0`` — a poisoned range whose ``width`` is -inf
        and whose ``fraction`` is NaN for every later value.  Infinite
        values are rejected for the same reason (an infinite bound makes
        every fraction degenerate).
        """
        if not math.isfinite(value):
            return
        if value < self.low:
            self.low = value
        if value > self.high:
            self.high = value
        self.count += 1

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    @property
    def width(self) -> float:
        return 0.0 if self.is_empty else self.high - self.low

    def fraction(self, value: float) -> float:
        """Position of ``value`` within the range, clamped to [0, 1]."""
        if self.is_empty or self.width == 0.0:
            return 0.5
        return min(1.0, max(0.0, (value - self.low) / self.width))

    def __repr__(self) -> str:
        if self.is_empty:
            return "<NumericRange empty>"
        return f"<NumericRange [{self.low}, {self.high}] n={self.count}>"


def encode_unit_circle(value: float, value_range: NumericRange) -> tuple[float, float]:
    """Map a value to its (cos, sin) first-quadrant encoding."""
    theta = value_range.fraction(value) * math.pi / 2.0
    return (math.cos(theta), math.sin(theta))


def unit_circle_similarity(
    a: float, b: float, value_range: NumericRange
) -> float:
    """Dot product of the encodings of two values: cos(θa − θb)."""
    ca, sa = encode_unit_circle(a, value_range)
    cb, sb = encode_unit_circle(b, value_range)
    return ca * cb + sa * sb
