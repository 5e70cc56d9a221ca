"""Non-increasing rearrangements and weak Lorentz quasinorms.

Works for sequences (cell measure 1, counting) and for sampled fields
(cell measure = grid cell volume).  Level sets use strict inequality
|f| > lambda; for step data the sup defining the weak quasinorm is
attained at the breakpoints t_j = j * cell, so no lambda sweep is needed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MeasuredValues", "weak_quasinorm"]


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


@functools.lru_cache(maxsize=2)
def _breakpoint_powers(size: int, cell: float, q: float) -> np.ndarray:
    """t_j^(1/q) at the breakpoints t_j = j * cell, j = 1..size (read-only)."""
    powers = (cell * np.arange(1, size + 1)) ** (1.0 / q)
    powers.flags.writeable = False
    return powers


def weak_quasinorm(v: MeasuredValues, q: float) -> float:
    """sup over breakpoints of (j*cell)^(1/q) * (j-th largest magnitude)."""
    if not q > 0:
        raise ValueError("q must be positive")
    if v.magnitudes.size == 0:
        return 0.0
    s = np.sort(v.magnitudes)[::-1]  # the non-increasing rearrangement
    return float(np.max(_breakpoint_powers(s.size, v.cell_measure, q) * s))
