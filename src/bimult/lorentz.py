"""Non-increasing rearrangements and weak Lorentz quasinorms.

Works for sequences (cell measure 1, counting) and for sampled fields
(cell measure = grid cell volume).  Level sets use strict inequality
|f| > lambda; for step data the sup defining the weak quasinorm is
attained at the breakpoints t_j = j * cell, so no lambda sweep is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MeasuredValues",
    "RearrangementProfile",
    "rearrangement",
    "weak_quasinorm",
    "level_measure",
    "lp_norm",
]


@dataclass(frozen=True)
class MeasuredValues:
    """Finite list of magnitudes with a common cell measure."""

    magnitudes: np.ndarray = field(repr=False)
    cell_measure: float = 1.0

    def __post_init__(self):
        m = np.asarray(self.magnitudes, dtype=float).ravel()
        if m.size and not np.all(np.isfinite(m)):
            raise ValueError("magnitudes must be finite")
        if np.any(m < 0):
            raise ValueError("magnitudes must be non-negative")
        if not self.cell_measure > 0:
            raise ValueError("cell measure must be positive")
        object.__setattr__(self, "magnitudes", m)

    @classmethod
    def of(cls, values, cell_measure: float = 1.0) -> "MeasuredValues":
        """Magnitudes of arbitrary (complex) values."""
        return cls(np.abs(np.asarray(values)).ravel(), cell_measure)


@dataclass(frozen=True)
class RearrangementProfile:
    """Sorted magnitudes; profile value on (t_{j-1}, t_j] is sorted[j-1]."""

    sorted_magnitudes: np.ndarray = field(repr=False)
    breakpoints: np.ndarray = field(repr=False)


def rearrangement(v: MeasuredValues) -> RearrangementProfile:
    """Non-increasing rearrangement with cumulative measure breakpoints."""
    s = np.sort(v.magnitudes)[::-1]
    t = v.cell_measure * np.arange(1, s.size + 1)
    return RearrangementProfile(s, t)


def weak_quasinorm(v: MeasuredValues, q: float) -> float:
    """sup over breakpoints of (j*cell)^(1/q) * (j-th largest magnitude)."""
    if not q > 0:
        raise ValueError("q must be positive")
    if v.magnitudes.size == 0:
        return 0.0
    prof = rearrangement(v)
    return float(np.max(prof.breakpoints ** (1.0 / q) * prof.sorted_magnitudes))


def level_measure(v: MeasuredValues, lam: float) -> float:
    """cell * card{|f| > lambda}, strict inequality."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return v.cell_measure * int(np.count_nonzero(v.magnitudes > lam))


def lp_norm(v: MeasuredValues, p: float) -> float:
    """(sum |f|^p * cell)^(1/p)."""
    if not p > 0:
        raise ValueError("p must be positive")
    if v.magnitudes.size == 0:
        return 0.0
    return float((np.sum(v.magnitudes**p) * v.cell_measure) ** (1.0 / p))
