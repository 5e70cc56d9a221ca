"""Smooth compactly supported bump profiles, defined in closed form.

Two shapes cover every construction in the package:

* a pure mollifier  exp(1 - 1/(1 - (u/r)^2))  on |u| < r, and
* a plateau bump equal to 1 on |u| <= a, falling to 0 at |u| = r through
  the C-infinity step h(t)/(h(t) + h(1-t)) with h(t) = exp(-1/t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BumpSpec", "smooth_step"]


def _h(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=float)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    ht = _h(t)
    return ht / (ht + _h(1.0 - t))


@dataclass(frozen=True)
class BumpSpec:
    """Even smooth bump with support radius `radius` (in the max norm).

    plateau: inner radius on which the profile equals 1; None selects the
    pure mollifier shape.  Both shapes peak at 1.
    """

    radius: float
    plateau: float | None = None

    def __post_init__(self):
        if not 0 < self.radius:
            raise ValueError("radius must be positive")
        if self.plateau is not None and not 0 < self.plateau < self.radius:
            raise ValueError("plateau must lie strictly inside the support")

    def profile(self, u) -> np.ndarray:
        """Profile value at scalar distance(s) u >= 0 from the center."""
        u = np.abs(np.asarray(u, dtype=float))
        if self.plateau is None:
            out = np.zeros_like(u)
            inside = u < self.radius
            s = u[inside] / self.radius
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - s * s))
            return out
        a, r = self.plateau, self.radius
        return smooth_step((r - u) / (r - a))
