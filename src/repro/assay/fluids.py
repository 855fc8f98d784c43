"""Fluid samples and the diffusion-coefficient wash-time model.

Section II-B of the paper explains that wash time is dominated by the
diffusion coefficient of the contaminant (citing Hu et al. [9]): a *lower*
coefficient means a *longer* wash.  Two calibration points are quoted:

* small molecules (lysis buffer): ``1e-5 cm²/s`` → ``0.2 s`` wash,
* large particles (tobacco mosaic virus): ``5e-8 cm²/s`` → ``6 s`` wash.

:func:`wash_time_from_diffusion` interpolates log-linearly between (and
extrapolates beyond, clamped at zero) these two points.  A
:class:`Fluid` may also carry an explicit ``wash_time`` override, which is
how the worked example of Fig. 2(b) (2 s / 10 s wash times) is encoded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import AssayError
from repro.units import LARGEST_FLOAT, Cm2PerSecond, Seconds

__all__ = [
    "DIFFUSION_FAST",
    "DIFFUSION_SLOW",
    "WASH_TIME_FAST",
    "WASH_TIME_SLOW",
    "wash_time_from_diffusion",
    "diffusion_for_wash_time",
    "Fluid",
]

#: Diffusion coefficient of a fast-diffusing small molecule (cm²/s).
DIFFUSION_FAST: Cm2PerSecond = 1e-5
#: Diffusion coefficient of a slow-diffusing large particle (cm²/s).
DIFFUSION_SLOW: Cm2PerSecond = 5e-8
#: Wash time of the fast-diffusing calibration point (s).
WASH_TIME_FAST: Seconds = 0.2
#: Wash time of the slow-diffusing calibration point (s).
WASH_TIME_SLOW: Seconds = 6.0

# Slope of the log-linear calibration: seconds of wash per decade of
# diffusion coefficient below DIFFUSION_FAST.
_LOG_FAST = math.log10(DIFFUSION_FAST)
_LOG_SLOW = math.log10(DIFFUSION_SLOW)
_SLOPE = (WASH_TIME_SLOW - WASH_TIME_FAST) / (_LOG_FAST - _LOG_SLOW)


def wash_time_from_diffusion(coefficient: Cm2PerSecond) -> Seconds:
    """Estimate the wash time (s) of a contaminant from its diffusion
    coefficient (cm²/s).

    The model is log-linear through the paper's two calibration points and
    clamped at zero, so very fast diffusers wash "instantly".

    >>> round(wash_time_from_diffusion(1e-5), 3)
    0.2
    >>> round(wash_time_from_diffusion(5e-8), 3)
    6.0
    """
    if coefficient <= 0.0:
        raise AssayError(
            f"diffusion coefficient must be positive, got {coefficient}"
        )
    wash = WASH_TIME_FAST + _SLOPE * (_LOG_FAST - math.log10(coefficient))
    return max(0.0, wash)


def diffusion_for_wash_time(wash_time: Seconds) -> Cm2PerSecond:
    """Invert :func:`wash_time_from_diffusion`.

    Useful when a benchmark specifies wash times directly (Fig. 2(b)) and a
    consistent diffusion coefficient is needed for the Case-I binding rule,
    which compares coefficients rather than wash times.
    """
    if wash_time < 0.0:
        raise AssayError(f"wash time must be non-negative, got {wash_time}")
    exponent = _LOG_FAST - (wash_time - WASH_TIME_FAST) / _SLOPE
    return 10.0 ** exponent


@dataclass(frozen=True)
class Fluid:
    """A fluid sample travelling through the chip.

    Parameters
    ----------
    name:
        Human-readable identifier, usually derived from the producing
        operation (e.g. ``"out(o4)"``).
    diffusion_coefficient:
        Diffusion coefficient in cm²/s; drives the wash-time model and the
        Case-I binding preference of Algorithm 1.
    wash_time_override:
        Optional explicit wash time in seconds.  When present it takes
        precedence over the model; this mirrors benchmarks that tabulate
        wash times directly.
    """

    name: str
    diffusion_coefficient: Cm2PerSecond = DIFFUSION_FAST
    wash_time_override: Seconds | None = field(default=None)

    def __post_init__(self) -> None:
        coefficient = self.diffusion_coefficient
        if not 0.0 < coefficient <= LARGEST_FLOAT:
            raise AssayError(
                f"fluid {self.name!r}: diffusion coefficient must be "
                f"finite and positive, got {coefficient}"
            )
        override = self.wash_time_override
        if override is not None and not 0 <= override <= LARGEST_FLOAT:
            raise AssayError(
                f"fluid {self.name!r}: wash time override must be "
                f"finite and non-negative, got {override}"
            )

    @property
    def wash_time(self) -> Seconds:
        """Wash time (s) needed to remove this fluid's residue."""
        if self.wash_time_override is not None:
            return self.wash_time_override
        return wash_time_from_diffusion(self.diffusion_coefficient)

    @classmethod
    def with_wash_time(cls, name: str, wash_time: Seconds) -> "Fluid":
        """Build a fluid from an explicit wash time.

        The diffusion coefficient is back-computed through the calibration
        model so that wash-time ordering and coefficient ordering agree.
        """
        return cls(
            name=name,
            diffusion_coefficient=diffusion_for_wash_time(wash_time),
            wash_time_override=wash_time,
        )
