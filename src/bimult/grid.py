"""Band-limited functions on a periodic torus: spectral/physical views and norms.

A function lives on the torus [0, L)^dim.  Its spectrum is supported on the
integer lattice {-F..F}^dim; lattice point p corresponds to the frequency
p / L, so the physical samples are

    field(x_j) = sum_p values(p) * exp(2*pi*i * j . p / P),   x_j = j * L / P,

with P = q*(2F+1) samples per axis (q >= 2 keeps sub-Nyquist margin for
L1 quadrature of oscillatory products).  Inversion is exact for band-limited
data: distinct lattice points stay distinct mod P.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = [
    "FrequencyBox",
    "SpectralVector",
    "PhysicalField",
    "synthesize",
    "l2_norm",
    "l1_norm",
    "apply_linear_multiplier",
    "spectral_to_json",
    "spectral_from_json",
]


@dataclass(frozen=True)
class FrequencyBox:
    """Discretization parameters: lattice radius, oversampling and period."""

    dim: int
    radius: int
    oversample: int = 4
    period: float = 1.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.radius < 1:
            raise ValueError("radius must be a positive integer")
        if self.oversample < 2:
            raise ValueError("oversample must be >= 2")
        if not self.period > 0:
            raise ValueError("period must be positive")

    @property
    def n_lattice(self) -> int:
        """Lattice points per axis, 2F+1."""
        return 2 * self.radius + 1

    @property
    def n_phys(self) -> int:
        """Physical samples per axis, q*(2F+1)."""
        return self.oversample * self.n_lattice

    @property
    def cell_measure(self) -> float:
        return (self.period / self.n_phys) ** self.dim

    @property
    def lattice_shape(self) -> tuple[int, ...]:
        return (self.n_lattice,) * self.dim

    @property
    def phys_shape(self) -> tuple[int, ...]:
        return (self.n_phys,) * self.dim

    def frequencies(self) -> np.ndarray:
        """Integer lattice coordinates along one axis, -F..F."""
        return np.arange(-self.radius, self.radius + 1)


@dataclass(frozen=True)
class SpectralVector:
    """Spectral samples f_hat(p) on the lattice of `box` (complex, no symmetry required)."""

    box: FrequencyBox
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.box.lattice_shape:
            raise ValueError(
                f"values shape {v.shape} does not match lattice {self.box.lattice_shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("spectral values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PhysicalField:
    """Sample-side view on the oversampled physical grid of `box`."""

    box: FrequencyBox
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.shape != self.box.phys_shape:
            raise ValueError(
                f"samples shape {s.shape} does not match grid {self.box.phys_shape}"
            )
        object.__setattr__(self, "samples", s)


def synthesize(spec: SpectralVector) -> PhysicalField:
    """Fourier inversion by zero-padded inverse FFT onto the oversampled grid."""
    box = spec.box
    P = box.n_phys
    padded = np.zeros((P,) * box.dim, dtype=complex)
    idx = np.ix_(*[box.frequencies() % P] * box.dim)
    padded[idx] = spec.values
    samples = np.fft.ifftn(padded) * P**box.dim
    return PhysicalField(box, samples)


def synthesize_direct(spec: SpectralVector) -> PhysicalField:
    """O(N^2) summation oracle for `synthesize`; test use only."""
    box = spec.box
    P = box.n_phys
    j = np.arange(P)
    samples = np.zeros((P,) * box.dim, dtype=complex)
    for flat, p in enumerate(np.ndindex(*box.lattice_shape)):
        freq = np.asarray(p) - box.radius
        phase = 1.0
        for axis in range(box.dim):
            e = np.exp(2j * np.pi * j * freq[axis] / P)
            shape = [1] * box.dim
            shape[axis] = P
            phase = phase * e.reshape(shape)
        samples += spec.values[p] * phase
    return PhysicalField(box, samples)


def l2_norm(spec: SpectralVector) -> float:
    """L2 norm via Plancherel: Euclidean norm of the spectrum, scaled by L^(dim/2).  Each |re|
    and |im| is scaled by 2^-e, 2^e just above the largest, before it is squared, and the norm
    by 2^e after: powers of two scale exactly, so squares that would overflow or underflow do
    not, and any other norm keeps every bit."""
    parts = np.abs(spec.values.ravel(order="K").view(float))  # in np.linalg.norm's order
    e = math.frexp(float(parts.max()))[1]
    norm = float(np.linalg.norm(np.ldexp(parts, -e, out=parts).view(complex)))
    # 2^e as two representable factors; a norm beyond the largest float becomes inf
    return norm * 2.0 ** (e // 2) * 2.0 ** (e - e // 2) * spec.box.period ** (spec.box.dim / 2)


def l1_norm(fld: PhysicalField) -> float:
    """Rectangle-rule L1 norm on the torus."""
    return float(np.sum(np.abs(fld.samples))) * fld.box.cell_measure


def apply_linear_multiplier(sigma: SpectralVector, f: SpectralVector) -> SpectralVector:
    """Pointwise product sigma(p) * f_hat(p); boxes must coincide."""
    if sigma.box != f.box:
        raise ValueError("multiplier and function live on different boxes")
    return SpectralVector(f.box, sigma.values * f.values)


def spectral_to_json(spec: SpectralVector) -> str:
    """Serialize as JSON: box header plus flat complex array, row-major, -F..F per axis."""
    flat = spec.values.ravel(order="C")
    payload = {
        "box": {
            "dim": spec.box.dim,
            "radius": spec.box.radius,
            "oversample": spec.box.oversample,
            "period": spec.box.period,
        },
        "index_order": "row-major, axes slowest-to-fastest, each axis -F..F",
        "values": [[float(z.real), float(z.imag)] for z in flat],
    }
    return json.dumps(payload)


def _is_finite_number(x) -> bool:
    """An int or float, not a bool, of magnitude at most the largest float.  Ints are
    compared exactly, so 10**400 fails as NaN and +-Infinity do."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _loads_finite(text: str, refusal: str):
    """`json.loads`, refusing a NaN, Infinity or -Infinity token with ValueError(refusal)."""
    def refuse(token):
        raise ValueError(refusal)
    return json.loads(text, parse_constant=refuse)


def _number_columns(rows, width: int, n_int: int = 0) -> list[tuple] | None:
    """The columns of `rows` from `_loads_finite` if it is a list of `width`-long lists of
    n_int ints, then finite numbers (see `spectral_from_json`), else None; checked in bulk."""
    if not (isinstance(rows, list) and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {width}):
        return None
    cols = list(zip(*rows)) or [()] * width
    nums = tuple(chain(*cols[n_int:]))
    # no NaN got past the parser, so the largest magnitude decides finiteness exactly
    ok = (set(map(type, chain(*cols[:n_int]))) <= {int} and set(map(type, nums)) <= {int, float}
          and max(map(abs, nums), default=0) <= sys.float_info.max)
    return cols if ok else None


def spectral_from_json(text: str) -> SpectralVector:
    """Inverse of `spectral_to_json`; a payload of any other shape is a ValueError.

    dim, radius and oversample are JSON ints.  The period and the values are finite numbers:
    an int or a float, never a bool, an int compared exactly with the largest float.  NaN,
    +-Infinity and a float literal beyond the largest float (1e400) are refused anywhere.
    """
    payload = _loads_finite(text, "spectral JSON must not hold NaN or Infinity")
    b = payload.get("box") if isinstance(payload, dict) else None
    if not (
        isinstance(b, dict)
        and all(type(b.get(k)) is int for k in ("dim", "radius", "oversample"))
        and _is_finite_number(b.get("period"))
    ):
        raise ValueError(
            "spectral JSON must be an object whose 'box' holds integer dim, radius,"
            " oversample and a finite numeric period"
        )
    box = FrequencyBox(b["dim"], b["radius"], b["oversample"], b["period"])
    values = payload.get("values")
    n, dim = box.n_lattice, box.dim
    cols = (
        isinstance(values, list)
        # n >= 3 > 2: a dim above the bit length cannot match, and n^dim is never taken for it
        and dim <= len(values).bit_length()
        and len(values) == n**dim
        and _number_columns(values, 2)
    )
    if not cols:
        raise ValueError(f"spectral JSON 'values' must be {n}^{dim} [re, im] finite number pairs")
    flat = np.array(cols, dtype=float).T.copy().view(complex)  # [re, im] rows -> complex
    return SpectralVector(box, flat.reshape(box.lattice_shape))
