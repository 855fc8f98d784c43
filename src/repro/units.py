"""Units and numeric helpers shared across the package.

The library works in a small set of physical units, chosen to match the
numbers quoted in the paper:

* **time** — seconds (operation durations, transport time ``t_c``, wash
  times, schedule timestamps).
* **length** — millimetres (channel lengths; Table I reports mm).
* **diffusion coefficient** — cm²/s (the paper quotes 10⁻⁵ cm²/s for small
  molecules and 5×10⁻⁸ cm²/s for large cells).

Timestamps are floats; comparisons therefore go through a small epsilon to
avoid spurious conflicts from floating-point noise.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "EPSILON",
    "LARGEST_FLOAT",
    "Seconds",
    "Millimetres",
    "Cm2PerSecond",
    "approx_le",
    "approx_ge",
    "approx_eq",
    "clamp",
]

#: Tolerance used for all floating-point time comparisons in the package.
EPSILON: float = 1e-9

#: The largest finite float.  ``-LARGEST_FLOAT <= x <= LARGEST_FLOAT``
#: checks that a number is finite in one chained comparison, with no
#: call: NaN fails every comparison, and infinities and integers too
#: large to convert to a float (whose conversion would overflow) fail
#: a bound.
LARGEST_FLOAT: float = sys.float_info.max

# Type aliases documenting intent; all are plain floats at runtime.
Seconds = float
Millimetres = float
Cm2PerSecond = float


def approx_le(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when ``a <= b`` up to the shared epsilon."""
    return a <= b + eps


def approx_ge(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when ``a >= b`` up to the shared epsilon."""
    return a >= b - eps


def approx_eq(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when ``a == b`` up to the shared epsilon."""
    return math.isclose(a, b, rel_tol=0.0, abs_tol=eps)


def clamp(value: float, lower: float, upper: float) -> float:
    """Clamp *value* into the inclusive interval ``[lower, upper]``.

    Raises :class:`ValueError` when the interval is empty.
    """
    if lower > upper:
        raise ValueError(f"empty clamp interval: [{lower}, {upper}]")
    return max(lower, min(upper, value))
