"""Bilinear multiplier evaluation for band-limited inputs and sampled symbols.

The symbol m(xi, eta) is sampled on the lattice {-F..F}^{2n} with grid
spacing h; the spectral inputs live on a torus of period L = 1/h, so
lattice index p of either object refers to the same frequency p * h.
The operator output is band-limited to [-2F_in, 2F_in] per axis.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .grid import FrequencyBox, PhysicalField, SpectralVector, l1_norm, l2_norm, synthesize
from .lorentz import MeasuredValues

__all__ = ["SymbolGrid", "output_spectrum", "stream_output_spectrum", "apply_bilinear",
           "operator_ratio"]


def _all_finite(values: np.ndarray) -> bool:
    """True when no sample of the real or complex array `values` is NaN or infinite.

    The max and min of its float parts carry any NaN, +inf or -inf, and need
    no bool array the size of `values`.
    """
    parts = np.ravel(values).view(values.real.dtype)
    return not parts.size or bool(np.isfinite(parts.max()) and np.isfinite(parts.min()))


def _nonzero_rows(rows: np.ndarray, axes: int) -> np.ndarray:
    """Which of `rows` (shaped (xi..., eta...) with `axes` eta-axes) hold a sample
    whose bits are not all zero; a -0.0 sample counts as nonzero.  The last
    axis of `rows` must be contiguous, as it is in a SymbolGrid and a read chunk.
    """
    bits = rows.view(np.uint64)
    # max rather than any: the same answer in about half the time per chunk
    return bits.max(axis=tuple(range(bits.ndim - axes, bits.ndim)), initial=0) != 0


@dataclass(frozen=True)
class SymbolGrid:
    """Complex symbol samples on {-F..F}^dim with grid spacing `spacing`.

    dim must be even (= 2n).  Index i along any axis corresponds to the
    coordinate (i - F) * spacing; the cell measure is spacing^dim.
    provenance optionally records the generator, parameters and seed.
    """

    dim: int
    radius: int
    values: np.ndarray = field(repr=False)
    spacing: float = 1.0
    provenance: dict | None = None

    def __post_init__(self):
        if self.dim % 2 != 0 or self.dim < 2:
            raise ValueError("dim must be a positive even integer")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        v = np.ascontiguousarray(self.values, dtype=complex)  # rows viewable as bits
        expected = (2 * self.radius + 1,) * self.dim
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} does not match {expected}")
        if not _all_finite(v):
            raise ValueError("symbol values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.dim // 2

    @property
    def cell_measure(self) -> float:
        return self.spacing**self.dim

    def measured(self) -> MeasuredValues:
        return MeasuredValues.of(self.values, self.cell_measure)

    def scaled(self, c: complex) -> "SymbolGrid":
        return SymbolGrid(self.dim, self.radius, c * self.values, self.spacing, self.provenance)


def _check_compat(n: int, radius: int, spacing: float, f: SpectralVector, g: SpectralVector):
    """Check f and g against a symbol on {-radius..radius}^{2n} with grid spacing `spacing`."""
    if f.box != g.box:
        raise ValueError("f and g must share a box")
    if f.box.dim != n:
        raise ValueError("symbol dimension 2n does not match input dimension n")
    if f.box.radius > radius:
        raise ValueError("inputs exceed the symbol band limit")
    if abs(spacing * f.box.period - 1.0) > 1e-9:
        raise ValueError("symbol spacing and input period are inconsistent")


def _output_box(f: SpectralVector) -> FrequencyBox:
    b = f.box
    return FrequencyBox(b.dim, 2 * b.radius, b.oversample, b.period)


def _band(radius: int, F: int, axes: int) -> tuple[slice, ...]:
    """Index of the input band {-F..F} along `axes` axes of a symbol of radius `radius`."""
    return (slice(radius - F, radius + F + 1),) * axes


def _symbol_block(m: SymbolGrid, F: int) -> np.ndarray:
    """Symbol restricted to the input band, reshaped (xi-axes..., eta-axes...)."""
    return m.values[_band(m.radius, F, m.dim)]


def _accumulate(rows: Iterable[tuple[tuple[int, ...], np.ndarray]], f: SpectralVector,
                g: SpectralVector) -> SpectralVector:
    """Spectrum u(zeta) = sum_{xi+eta=zeta} m f g of T_m(f, g) on the doubled band, for
    `output_spectrum`, `stream_output_spectrum` and `symbols`' `block_output_spectrum`:
    the one sum of that spectrum but for its oracle, `apply_bilinear`'s mode "direct".

    rows yields (xi, m(xi, .)) for xi of f's box in row-major order, each row
    restricted to the input band; the callers leave out the rows that are
    all zero, and a row with f(xi) == 0 is skipped here.  Accumulated over
    anti-diagonals in that fixed order, so the per-zeta summation is
    deterministic.  A complex64 row is widened to complex128 inside the
    product, which is exact.  Each term (f(xi) m(xi, .)) g(.) is formed in
    one reused buffer.

    Neither skip changes a bit of u.  With f and g finite, the term of an
    all-zero row, or of f(xi) == 0, is +-0 in each part.  u starts at +0.0,
    and in IEEE arithmetic x + (+-0) = x for x != 0 and +0 + (+-0) = +0, so
    no partial sum ever holds -0 and none changes when a +-0 term is left out.
    """
    F = f.box.radius
    box_out = _output_box(f)
    u = np.zeros(box_out.lattice_shape, dtype=complex)
    gv = g.values
    term = np.empty_like(gv)
    for xi, row in rows:
        fval = f.values[xi]
        if fval == 0:
            continue
        target = u[tuple(slice(i, i + 2 * F + 1) for i in xi)]
        np.multiply(fval, row, out=term, dtype=complex)
        np.multiply(term, gv, out=term)
        np.add(target, term, out=target)
    return SpectralVector(box_out, u)


def output_spectrum(m: SymbolGrid, f: SpectralVector, g: SpectralVector) -> SpectralVector:
    """Spectrum u(zeta) = sum_{xi+eta=zeta} m f g of T_m(f, g) on the doubled band.

    The xi-rows of the band block that are all zero are skipped (see `_accumulate`).
    """
    _check_compat(m.n, m.radius, m.spacing, f, g)
    block = _symbol_block(m, f.box.radius)
    xis = map(tuple, np.argwhere(_nonzero_rows(block, m.n)).tolist())  # row-major
    return _accumulate(((xi, block[xi]) for xi in xis), f, g)


def stream_output_spectrum(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], n: int, radius: int, spacing: float,
    f: SpectralVector, g: SpectralVector,
) -> SpectralVector:
    """`output_spectrum` of a symbol given as chunks of its xi-rows instead of a SymbolGrid.

    chunks yields pairs (rows, _nonzero_rows(rows, n)), rows C-contiguous and shaped
    (rows,) + (2 radius + 1,) * n: the eta-samples m(xi, .) for every xi of
    {-radius..radius}^n in row-major order, a few rows at a time.  f and g are checked
    against (n, radius, spacing) before the first chunk is drawn; every chunk is drawn,
    and the rows outside f's band or all zero are skipped.  The result equals, bit for
    bit, `output_spectrum` on the SymbolGrid of these rows.
    """
    _check_compat(n, radius, spacing, f, g)
    F = f.box.radius
    band = _band(radius, F, n)
    box_shape = f.box.lattice_shape
    # position of each xi of f's box among the symbol's rows
    at = np.ravel_multi_index(np.indices(box_shape).reshape(n, -1) + radius - F,
                              (2 * radius + 1,) * n)
    wanted = dict(zip(at.tolist(), itertools.product(*map(range, box_shape))))

    def band_rows():
        start = 0
        for chunk, nonzero in chunks:
            for k in np.flatnonzero(nonzero).tolist():
                xi = wanted.get(start + k)
                if xi is not None:
                    yield xi, chunk[k][band]
            start += len(chunk)

    return _accumulate(band_rows(), f, g)


def apply_bilinear(
    m: SymbolGrid, f: SpectralVector, g: SpectralVector, mode: str = "antidiagonal"
) -> PhysicalField:
    """Evaluate the bilinear multiplier operator on band-limited inputs.

    mode 'antidiagonal' synthesizes `output_spectrum` on the doubled band;
    mode 'direct' is the literal double-sum oracle (O(lattice^2 * grid),
    small inputs only).
    """
    if mode == "antidiagonal":
        return synthesize(output_spectrum(m, f, g))
    _check_compat(m.n, m.radius, m.spacing, f, g)
    n = f.box.dim
    F = f.box.radius
    box_out = _output_box(f)
    block = _symbol_block(m, F)

    if mode == "direct":
        P = box_out.n_phys
        lattice = [np.asarray(p) - F for p in np.ndindex(*f.box.lattice_shape)]
        K = len(lattice)
        x_axes = [np.arange(P)] * n
        phases = np.zeros((K,) + box_out.phys_shape, dtype=complex)
        for i, freq in enumerate(lattice):
            ph = 1.0
            for axis in range(n):
                e = np.exp(2j * np.pi * x_axes[axis] * freq[axis] / P)
                shape = [1] * n
                shape[axis] = P
                ph = ph * e.reshape(shape)
            phases[i] = ph
        mflat = block.reshape(K, K)
        fflat = f.values.ravel()
        gflat = g.values.ravel()
        A = fflat[:, None] * phases.reshape(K, -1)
        B = gflat[:, None] * phases.reshape(K, -1)
        samples = np.einsum("ax,ab,bx->x", A, mflat, B).reshape(box_out.phys_shape)
        return PhysicalField(box_out, samples)

    raise ValueError(f"unknown mode {mode!r}")


def _input_norms(f: SpectralVector, g: SpectralVector) -> float:
    """||f||_2 ||g||_2, the operator ratio's denominator; rejects a zero input, and norms
    whose computation or product overflows to infinity or underflows to zero."""
    nf, ng = l2_norm(f), l2_norm(g)
    if not 0.0 < nf * ng < np.inf:
        raise ValueError(f"inputs must have L2 norms with a nonzero, finite product, not {nf:g}"
                         f" and {ng:g}")
    return nf * ng


def _ratio(l1: float, norms: float) -> float:
    """l1 / norms, the operator ratio of `operator_ratio` and the CLI's `apply`: refused
    unless finite, as records refuse it."""
    if not np.isfinite(ratio := l1 / norms):
        raise ValueError(f"operator ratio {ratio} is not finite")
    return ratio


def operator_ratio(m: SymbolGrid, f: SpectralVector, g: SpectralVector) -> float:
    """||T_m(f,g)||_1 / (||f||_2 ||g||_2)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN is refused, not warned of
        norms = _input_norms(f, g)
        return _ratio(l1_norm(apply_bilinear(m, f, g)), norms)
