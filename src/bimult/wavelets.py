"""Meyer product-wavelet analysis of sampled symbols.

The father/mother pair is defined in closed form on the frequency side with
the standard quartic transition polynomial nu(t) = t^4(35 - 84t + 70t^2 -
20t^3); the C^3 joins give wavelets decaying like |x|^-4, so periodization
onto a finite sampling box is controlled.  The analyzed basis elements are

    j = 0, G = (F,...,F):  products of father translates,
    j >= 1, G != (F,...,F): 2^((j-1)n) * prod Psi_{G_r}(2^(j-1) x_r - beta_r),

an orthonormal family in L2 of dimension 2n.  Coefficients are computed
frequency-side: both the grid spectrum and the wavelet spectra are sampled
on the same DFT grid, which makes the computation an exact discrete Parseval
pairing with the periodized wavelet.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import product
from operator import index

import numpy as np

from .bilinear import SymbolGrid
from .lorentz import MeasuredValues, weak_quasinorm

__all__ = [
    "meyer_father_hat",
    "meyer_mother_hat",
    "meyer_physical",
    "wavelet_indices",
    "wavelet_coefficients",
    "lemma_discrete_ratio",
]


def _nu(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)


def meyer_father_hat(xi) -> np.ndarray:
    """Low-pass profile: 1 on |xi| <= 1/3, supported in |xi| < 2/3."""
    a = np.abs(np.asarray(xi, dtype=float))
    out = np.zeros_like(a)
    out[a <= 1.0 / 3.0] = 1.0
    mid = (a > 1.0 / 3.0) & (a < 2.0 / 3.0)
    out[mid] = np.cos(np.pi / 2.0 * _nu(3.0 * a[mid] - 1.0))
    return out


def meyer_mother_hat(xi) -> np.ndarray:
    """Band-pass profile with the half-integer phase; supported in 1/3 < |xi| < 4/3."""
    x = np.asarray(xi, dtype=float)
    a = np.abs(x)
    mag = np.zeros_like(a)
    lo = (a > 1.0 / 3.0) & (a <= 2.0 / 3.0)
    hi = (a > 2.0 / 3.0) & (a < 4.0 / 3.0)
    mag[lo] = np.sin(np.pi / 2.0 * _nu(3.0 * a[lo] - 1.0))
    mag[hi] = np.cos(np.pi / 2.0 * _nu(1.5 * a[hi] - 1.0))
    return np.exp(1j * np.pi * x) * mag


_QUAD_POINTS = 8193  # trapezoid nodes on the mother's support [-4/3, 4/3]


def meyer_physical(kind: str, x) -> np.ndarray:
    """Physical-side samples by fine quadrature of the inverse Fourier integral."""
    x = np.asarray(x, dtype=float)
    omega = np.linspace(-4.0 / 3.0, 4.0 / 3.0, _QUAD_POINTS)
    spec = meyer_father_hat(omega) if kind == "F" else meyer_mother_hat(omega)
    kernel = np.exp(2j * np.pi * np.outer(x, omega))
    vals = np.trapezoid(kernel * spec, omega, axis=-1)
    return vals


def wavelet_indices(dim: int, j_max: int):
    """All (j, G) pairs with j <= j_max for the product family in `dim` variables."""
    pairs = [(0, ("F",) * dim)]
    for j in range(1, j_max + 1):
        for G in product("FM", repeat=dim):
            if set(G) == {"F"}:
                continue
            pairs.append((j, G))
    return pairs


def _grid_spectrum(m: SymbolGrid):
    """Continuum-normalized FT samples of the grid on the DFT frequency lattice."""
    P = 2 * m.radius + 1
    h = m.spacing
    freqs = np.fft.fftfreq(P, d=h)
    mhat = np.fft.fftn(m.values) * h**m.dim
    # centered-coordinate phase: x_i = (i - F) h
    for axis in range(m.dim):
        shape = [1] * m.dim
        shape[axis] = P
        mhat = mhat * np.exp(2j * np.pi * freqs * m.radius * h).reshape(shape)
    return freqs, mhat


class _BetaTable(Mapping):
    """Read-only beta -> complex view of one (j, G) coefficient `array` over beta in
    range(-beta_max, beta_max + 1)^dim; keys iterate in product() order, the row-major one."""

    def __init__(self, array: np.ndarray):
        array.flags.writeable = False
        self.array, self._beta_max = array, len(array) // 2

    def __len__(self) -> int:
        return self.array.size

    def __iter__(self):
        return product(range(-self._beta_max, self._beta_max + 1), repeat=self.array.ndim)

    def __getitem__(self, beta) -> complex:
        try:
            idx = tuple(index(b) + self._beta_max for b in beta)
        except TypeError:
            raise KeyError(beta) from None
        if len(idx) != self.array.ndim or not all(0 <= i < len(self.array) for i in idx):
            raise KeyError(beta)
        return self.array.item(idx)


def wavelet_coefficients(m: SymbolGrid, j_max: int) -> dict:
    """Inner products against the product family, keyed (j, G) -> {beta: coeff}.

    Each table is a read-only `_BetaTable` over one complex128 array, in product() order.

    Requires the grid resolution 1/spacing to be divisible by 2^(j_max - 1)
    so that the translation lattice at every scale lands on grid strides.
    Coefficients for beta beyond the box dilate are not represented.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    res = 1.0 / m.spacing
    P = 2 * m.radius + 1
    freqs, mhat = _grid_spectrum(m)
    d = m.dim
    n = m.n
    out = {}
    for j, G in wavelet_indices(d, j_max):
        lam = 1.0 if j == 0 else 2.0 ** (j - 1)
        stride = res / lam
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise ValueError(
                f"resolution {res} incompatible with scale 2^{j - 1}"
            )
        stride = int(round(stride))
        filt = mhat.copy()
        for axis in range(d):
            prof = (
                meyer_father_hat(freqs / lam)
                if G[axis] == "F"
                else meyer_mother_hat(freqs / lam)
            )
            shape = [1] * d
            shape[axis] = P
            filt = filt * np.conj(prof).reshape(shape)
        dOmega = (1.0 / (P * m.spacing)) ** d
        table = np.fft.ifftn(filt) * P**d * dOmega * lam**-n
        beta_max = (P // 2 - 1) // stride
        axis_idx = (np.arange(-beta_max, beta_max + 1) * stride) % P
        out[(j, G)] = _BetaTable(table[np.ix_(*[axis_idx] * d)])
    return out


def lemma_discrete_ratio(m: SymbolGrid, j: int, G: tuple, coeffs: dict | None = None) -> float:
    """2^(jn/2) * weak-l4 of the (j, G) coefficients over weak-L4 of the symbol; `coeffs`
    is the output of `wavelet_coefficients` with j_max >= j."""
    denom = weak_quasinorm(m.measured(), 4.0)
    if denom == 0.0:
        raise ValueError("symbol has zero weak norm")
    if coeffs is None:
        coeffs = wavelet_coefficients(m, j)
    num = weak_quasinorm(MeasuredValues.of(coeffs[(j, G)].array), 4.0)
    return 2.0 ** (j * m.n / 2.0) * num / denom
