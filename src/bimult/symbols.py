"""Symbol generators and symbol-side norm estimators.

Covers lattice-bump symbols with prescribed coefficients, shell-monotone
coefficient families with a power-law rearrangement, the two randomized
counterexample constructions (anti-diagonal signs on a single lattice, and
the multi-scale dilated block family), the Besov norm (weak-l4 norms of the
dyadic pieces of a sampled symbol), and the anti-diagonal representation
counts that drive the coherent lower bounds.

Block generators accept a `center` shift of the frequency lattice.  A shift
is a pure modulation of the operator output, so every measured magnitude
(L1, L2, weak norms, operator ratios) is invariant; it keeps desk-scale
grids small for blocks that sit far from the origin.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from dataclasses import dataclass, field

import numpy as np

from .bilinear import SymbolGrid, _accumulate, _check_compat, _nonzero_rows
from .bumps import BumpSpec, smooth_step
from .grid import FrequencyBox, SpectralVector, l2_norm
from .lorentz import MeasuredValues, weak_quasinorm
from .rowcol import CoeffMatrix

__all__ = [
    "SignAssignment",
    "ShellSequence",
    "power_shell_sequence",
    "lattice_symbol",
    "CounterexampleAConfig",
    "CounterexampleBConfig",
    "counterexample_B_block",
    "test_function_B",
    "besov_norm",
    "ReprTable",
    "count_representations",
]


# ---------------------------------------------------------------------------
# deterministic signs


def _pack64(key) -> bytes:
    """key as 8 little-endian two's-complement bytes (it must fit, signed or unsigned)."""
    key = operator.index(key)
    if not -(2**63) <= key < 2**64:
        raise ValueError(f"hash key {key} does not fit in 64 bits")
    return (key % 2**64).to_bytes(8, "little")


def _hash64(*keys: int) -> int:
    """blake2b-64 digest, read little-endian, of the keys packed by _pack64 one after
    another: the one derivation behind every seeded stream."""
    raw = b"".join(map(_pack64, keys))
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class SignAssignment:
    """Reproducible iid signs: same (seed, index) always gives the same sign.

    The sign of index l is +1 when `_hash64(seed, l)` is odd, else -1.  `signs`
    computes it for a range of ints at hash speed: the packed seed is hashed
    once into a blake2b prefix, and each l copies that state and adds its own
    8 bytes, which digests exactly the bytes `_hash64(seed, l)` hashes.
    """

    seed: int

    def signs(self, ls: range) -> list[int]:
        """The sign of each l in ls, in order."""
        copy = hashlib.blake2b(_pack64(self.seed), digest_size=8).copy
        if ls:  # a range lies between its endpoints: checking those checks every l
            _pack64(ls[0])
            _pack64(ls[-1])
        signs = []
        for l in ls:
            h = copy()
            h.update((l % 2**64).to_bytes(8, "little"))
            signs.append(1 if h.digest()[0] & 1 else -1)  # digest()[0] holds the low bit
        return signs


# ---------------------------------------------------------------------------
# shell-monotone coefficient families


def shell_rank(j, k):
    """1-based position of (j, k) in the shell-then-lex ordering of Z^2.

    j and k are ints (giving an int) or int64 arrays of one shape (giving an
    int64 array); int64 is exact while max(|j|, |k|) < 2**30."""
    j, k = np.asarray(j, dtype=np.int64), np.asarray(k, dtype=np.int64)
    s = np.maximum(abs(j), abs(k))
    # inner shells, then the cells of shell s in rows before j (row -s is
    # full, rows strictly inside hold two cells), then row j up to column k
    in_shell = np.where(
        j == -s, k + s,
        np.where(j == s, (2 * s + 1) + 2 * (2 * s - 1) + k + s,
                 (2 * s + 1) + 2 * (j + s - 1) + (k == s)),
    )
    rank = np.where(s == 0, 1, (2 * s - 1) ** 2 + in_shell + 1)
    return rank if rank.ndim else int(rank)


@dataclass(frozen=True)
class ShellSequence:
    """Realized coefficients on [-M, M]^2, non-increasing along max-norm shells."""

    box_radius: int
    dstar: np.ndarray = field(repr=False)  # dstar[j-1] = j-th largest value

    def __post_init__(self):
        d = np.asarray(self.dstar, dtype=float)
        if d.size != (2 * self.box_radius + 1) ** 2:
            raise ValueError("dstar length must equal the number of box cells")
        if np.any(np.diff(d) > 1e-12):
            raise ValueError("dstar must be non-increasing")
        object.__setattr__(self, "dstar", d)

    def coeff_matrix(self) -> CoeffMatrix:
        """dstar[j - 1] at the cell of `shell_rank` j, cells in rank order; zeros left out."""
        M = self.box_radius
        k, l = np.indices((2 * M + 1,) * 2).reshape(2, -1) - M
        at = np.argsort(shell_rank(k, l))[self.dstar != 0.0]
        return CoeffMatrix._of(k[at], l[at], self.dstar[self.dstar != 0.0].astype(complex))


def power_shell_sequence(box_radius: int, exponent: float) -> ShellSequence:
    """Shell family with exact rearrangement dstar(j) = j^(-exponent)."""
    n_cells = (2 * box_radius + 1) ** 2
    j = np.arange(1, n_cells + 1, dtype=float)
    return ShellSequence(box_radius, j**-exponent)


# ---------------------------------------------------------------------------
# lattice-bump symbols


_PSI = BumpSpec(radius=0.1, plateau=0.05)  # every symbol bump: radius 1/10 keeps them disjoint
_PHI_HAT = BumpSpec(radius=0.2, plateau=0.1)  # a test-function bump: its plateau covers _PSI
_BOX_PART = 4096  # lattice_symbol stamps its coefficient box in parts of about this many cells


def _check_symbol_grid(psi: BumpSpec, resolution: int) -> None:
    """At least one sample per unit cell, and bumps of radius <= 1/10 around
    lattice points, which are then pairwise disjoint.

    The growth experiments' sign pool also relies on the radius: a cell (j, k)
    then feeds only output frequencies within 0.2 of j + k.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, not {resolution}")
    if psi.radius > 0.1 + 1e-12:
        raise ValueError("bump support radius must be <= 1/10")


def _bump_samples(psi: BumpSpec, resolution: int) -> np.ndarray:
    """psi at the offsets -w..w of a grid with `resolution` samples per unit."""
    # samples on the support boundary evaluate to exactly 0, so the closed width is safe
    w = int(np.floor(psi.radius * resolution + 1e-9))
    return psi.profile(np.abs(np.arange(-w, w + 1)) / resolution)


def _bump_patch(psi: BumpSpec, resolution: int) -> np.ndarray:
    """Patch Psi(x, y) = psi(x) psi(y): C-infinity in both variables (a max-norm
    radial profile would have gradient kinks on the diagonals), same support box."""
    a = _bump_samples(psi, resolution)
    return np.outer(a, a)


def _stamp(coeffs: np.ndarray, corner: tuple[int, int], psi: BumpSpec, resolution: int):
    """(R, C, S): sum c_ij Psi(. - x_i, . - y_j) over the coefficient box `coeffs`, with
    x_i = corner[0] + resolution * i and y_j = corner[1] + resolution * j in grid
    indices, sampled on the rows R and columns C (both ascending) the bumps cover.
    _check_symbol_grid keeps the patches disjoint, so S holds 0 + c_ij * Psi, the value
    `+=` on a zero grid gives; every other sample of the sum is +0.0."""
    patch = _bump_patch(psi, resolution)
    w = patch.shape[0] // 2
    R, C = (((x + resolution * np.arange(n))[:, None] - w + np.arange(2 * w + 1)).ravel()
            for x, n in zip(corner, coeffs.shape))
    S = 0.0 + coeffs[:, None, :, None] * patch[:, None, :]  # S[i, a, j, b]
    return R, C, S.reshape(len(R), len(C))


def _stamped_grid(F: int, parts, corner: tuple, psi: BumpSpec, resolution: int):
    """The (2F+1)^2 samples of the stamp at `corner` of a coefficient box that `parts()`
    yields as (i, rows), its rows from row i on, each stamped straight into the grid;
    rows left out are all zero, and keep the +0.0 their stamp would give.  The grid is
    allocated first, so one too large to hold is refused before any coefficient is drawn."""
    values = np.zeros((2 * F + 1, 2 * F + 1), dtype=complex)
    for i, rows in parts():
        R, C, S = _stamp(rows, (corner[0] + resolution * i, corner[1]), psi, resolution)
        values[np.ix_(R, C)] = S
    return values


def _bump_train(phi: BumpSpec, F: int, resolution: int, centers) -> np.ndarray:
    """sum over c in centers, in order, of phi(p / resolution - c) at p = -F..F."""
    p = np.arange(-F, F + 1)
    values = np.zeros(2 * F + 1, dtype=complex)
    for c in centers:
        values += phi.profile(np.abs(p / resolution - c))
    return values


def lattice_symbol(c: CoeffMatrix, psi: BumpSpec, resolution: int) -> SymbolGrid:
    """Sampled m(xi, eta) = sum c_{k,l} Psi(xi - k, eta - l), disjoint bumps,
    `resolution` samples per unit cell."""
    _check_symbol_grid(psi, resolution)
    if not c.v.size:
        raise ValueError("empty coefficient matrix")
    r = resolution
    lo = [int(c.k.min()), int(c.l.min())]  # Python ints: F cannot wrap
    hi = [int(c.k.max()), int(c.l.max())]
    F = r * (max(map(abs, lo + hi)) + 1)
    height, width = hi[0] - lo[0] + 1, hi[1] - lo[1] + 1
    n = max(1, _BOX_PART // width)

    def box_parts():  # the box in parts of n whole rows, parts without a key left out
        for i in range(0, height, n):
            at = np.flatnonzero((c.k >= lo[0] + i) & (c.k < lo[0] + i + n))
            if at.size:
                part = np.zeros((min(n, height - i), width), dtype=complex)
                part[c.k[at] - lo[0] - i, c.l[at] - lo[1]] = c.v[at]
                yield i, part
    values = _stamped_grid(F, box_parts, (F + r * lo[0], F + r * lo[1]), psi, r)
    provenance = {"generator": "lattice_symbol", "resolution": r, "center": [0, 0]}
    return SymbolGrid(2, F, values, 1.0 / r, provenance)


# ---------------------------------------------------------------------------
# the counterexample block family


def _antidiagonal_signs(I: range, seed: int | None) -> list[int]:
    """eps_l for the anti-diagonals l = j + k of I x I, in order from l = 2 I.start;
    all +1 when seed is None."""
    ls = range(2 * I.start, 2 * I.stop - 1)
    return [1] * len(ls) if seed is None else SignAssignment(seed).signs(ls)


class _BlockFamily:
    """The construction both counterexamples share.

    Block `key` holds the coefficients eps_{j+k} * w_jk on I x I,
    I = interval(key), with w = weights(key): one sign per anti-diagonal, drawn
    from SignAssignment(block_seed(key, draw)).  Its symbol puts a psi bump at
    each (j, k) in coordinates centered at `center`, dilated by
    2^-dilation(key); its test function puts one phi_hat bump at each j in I.
    A config supplies block_keys, interval, center, weights, provenance and
    phi_hat, and a dilated family its dilation.  Both bumps are fixed by the
    construction: they are class constants, not settings.
    """

    psi = _PSI

    def block_seed(self, key: int, draw: int = 0) -> int:
        """Sign seed of draw `draw` for block `key`, hashed from the master seed."""
        return _hash64(self.master_seed, key, draw)

    def block_coefficients(self, key: int, seed: int | None) -> np.ndarray:
        """The |I| x |I| array of eps_{j+k} * w_jk over I x I, I = interval(key); seed
        None sets every sign +1."""
        I = self.interval(key)
        eps = np.array(_antidiagonal_signs(I, seed), dtype=float)
        at = np.arange(len(I))
        return eps[at[:, None] + at] * np.reshape(self.weights(key), (len(I), len(I)))

    def dilation(self, key: int) -> int:
        return 0

    def _layout(self, key: int, center: int | None) -> tuple[int, int]:
        """(center, F): center None is center(key), and F = r * (max |j - center| + 1)
        over j in I, so that the grid holds every bump of the block."""
        center = self.center(key) if center is None else center
        I = self.interval(key)
        return center, self.resolution * (max(abs(I.start - center), abs(I.stop - 1 - center)) + 1)

    def block_symbol(self, key: int, seed: int | None, center: int | None = None) -> SymbolGrid:
        """The sampled block symbol, at spacing 2^-dilation / resolution, so that
        symbol-side norms are in undilated units."""
        center, F = self._layout(key, center)
        r = self.resolution
        corner = (F + r * (self.interval(key).start - center),) * 2
        values = _stamped_grid(F, lambda: [(0, self.block_coefficients(key, seed))], corner,
                               self.psi, r)
        spacing = 2.0 ** -self.dilation(key) / r
        return SymbolGrid(2, F, values, spacing, self.provenance(key, seed, center))

    def block_output_spectrum(
        self, key: int, f: SpectralVector, g: SpectralVector, center: int | None = None
    ) -> SpectralVector:
        """`output_spectrum(block_symbol(key, None, center), f, g)` bit for bit, from the
        all-plus block's stamp alone: no symbol grid is built.  Stamped in f's band
        indices, its in-band nonzero rows go to `_accumulate` in ascending order through
        one band row that is +0.0 off the stamp's columns, as the grid's row is."""
        center, F = self._layout(key, center)
        r = self.resolution
        _check_compat(1, F, 2.0 ** -self.dilation(key) / r, f, g)
        Fin = f.box.radius
        corner = (Fin + r * (self.interval(key).start - center),) * 2
        R, _, S = _stamp(self.block_coefficients(key, None), corner, self.psi, r)
        band = slice(*np.searchsorted(R, (0, 2 * Fin + 1)))  # R is C: one slice for both
        R, S = R[band], S[band, band]
        row = np.zeros(2 * Fin + 1, dtype=complex)

        def band_rows():
            for i in np.flatnonzero(_nonzero_rows(S, 1)).tolist():
                row[R] = S[i]
                yield (int(R[i]),), row

        return _accumulate(band_rows(), f, g)

    def test_function(self, key: int, center: int | None = None) -> SpectralVector:
        """One phi_hat bump per block index, on the torus of period r * 2^dilation."""
        center, F = self._layout(key, center)
        r = self.resolution
        box = FrequencyBox(1, F, oversample=2, period=float(r) * 2 ** self.dilation(key))
        local = [j - center for j in self.interval(key)]
        return SpectralVector(box, _bump_train(self.phi_hat, F, r, local))


# ---------------------------------------------------------------------------
# counterexample A: anti-diagonal signs on a single lattice


@dataclass(frozen=True)
class CounterexampleAConfig(_BlockFamily):
    """Blocks I_K = {b_K .. 2 b_K - 1} with anti-diagonal signs and shell magnitudes.

    block_b: strictly increasing with b_{K+1} > 2 b_K, so the blocks are
    pairwise disjoint.  dstar_exponent fixes the magnitude family
    d*(t) = t^(-dstar_exponent).  The companion test functions' bump phi_hat
    has a plateau covering psi's support.
    """

    block_b: tuple[int, ...]
    dstar_exponent: float
    master_seed: int
    resolution: int = 20
    phi_hat = _PHI_HAT

    def __post_init__(self):
        bs = tuple(int(b) for b in self.block_b)
        if any(b2 <= 2 * b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValueError("blocks must satisfy b_{K+1} > 2 b_K")
        if any(b < 1 for b in bs):
            raise ValueError("block offsets must be positive")
        if not bs:
            raise ValueError("block_b must name at least one block")
        _check_symbol_grid(self.psi, self.resolution)
        object.__setattr__(self, "block_b", bs)

    def block_keys(self) -> range:
        return range(1, len(self.block_b) + 1)

    def interval(self, K: int) -> range:
        if K not in self.block_keys():
            raise ValueError(f"block index K={K} is outside 1..{len(self.block_b)}")
        b = self.block_b[K - 1]
        return range(b, 2 * b)

    def center(self, K: int) -> int:
        """Block center: the growth grids are built in coordinates centered here."""
        I = self.interval(K)
        return (I.start + I.stop - 1) // 2

    def rho(self, K: int) -> int:
        return (4 * self.block_b[K - 1]) ** 2

    def weights(self, K: int) -> list[float]:
        """Shell-monotone magnitudes d_{j,k} = (shell-lex rank)^(-exponent), j-major
        over I_K x I_K.  The powers are Python's float pow, one rank at a time:
        np.power rounds some ranks differently and turns overflow into inf."""
        I = self.interval(K)
        idx = np.arange(I.start, I.stop, dtype=np.int64)
        ranks = shell_rank(idx[:, None], idx[None, :]).ravel().tolist()
        exponent = -self.dstar_exponent
        return [float(rank) ** exponent for rank in ranks]

    def provenance(self, K: int, seed: int | None, center: int) -> dict:
        # a block of the single lattice: recorded as the lattice symbol it is
        return {
            "generator": "lattice_symbol",
            "resolution": self.resolution,
            "center": [center, center],
        }


def block_A_symbol(
    cfg: CounterexampleAConfig, K: int, seed: int | None, center: int = 0
) -> SymbolGrid:
    """Single-block lattice symbol for block K with the given sign seed (None: all +1)."""
    return cfg.block_symbol(K, seed, center)


# ---------------------------------------------------------------------------
# counterexample B: multi-scale dilated blocks


@dataclass(frozen=True)
class CounterexampleBConfig(_BlockFamily):
    """Dilated block family: bumps of width 2^-N at spacing 2^-N, coherent signs.

    mode 'paper' uses side count 2^(N^2 + N/2) and amplitude 2^(-n N^2 / 2)
    (N even); mode 'desk' uses side count 2^(2N) with the amplitude rescaled
    to s^(-1/2) * 2^(N/4) so the coherent-growth mechanism survives at
    reachable sizes.  Block offsets b_N = s_N * 2^N keep the dilated supports
    pairwise disjoint and satisfy b_{N+1} > 2 b_N.
    """

    mode: str
    Ns: tuple[int, ...]
    master_seed: int
    resolution: int = 20
    phi_hat = BumpSpec(radius=0.05)

    def __post_init__(self):
        if self.mode not in ("paper", "desk"):
            raise ValueError("mode must be 'paper' or 'desk'")
        Ns = tuple(int(N) for N in self.Ns)
        if self.mode == "paper" and any(N % 2 for N in Ns):
            raise ValueError("paper mode requires even N")
        if not Ns:
            raise ValueError("N must name at least one block")
        if any(N < 1 for N in Ns):
            raise ValueError("N must be positive")
        _check_symbol_grid(self.psi, self.resolution)
        object.__setattr__(self, "Ns", Ns)
        # disjointness of the dilated block supports, checked arithmetically:
        # block N occupies xi in [(b_N - 1)/2^N, (b_N + s_N)/2^N]
        spans = sorted(
            ((self.offset(N) - 1) / 2**N, (self.offset(N) + self.side_count(N)) / 2**N)
            for N in Ns
        )
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            if lo <= hi:
                raise ValueError("block supports overlap")

    def block_keys(self) -> tuple[int, ...]:
        return self.Ns

    def side_count(self, N: int) -> int:
        if self.mode == "paper":
            return 2 ** (N * N + N // 2)
        return 2 ** (2 * N)

    def amplitude(self, N: int) -> float:
        if self.mode == "paper":
            return 2.0 ** (-N * N / 2.0)
        return self.side_count(N) ** -0.5 * 2.0 ** (N / 4.0)

    def offset(self, N: int) -> int:
        return self.side_count(N) * 2**N

    def interval(self, N: int) -> range:
        """Block index interval {b_N .. b_N + s_N - 1}."""
        b = self.offset(N)
        return range(b, b + self.side_count(N))

    def center(self, N: int) -> int:
        """Default block center: the grids are built in coordinates centered here."""
        return self.offset(N) + self.side_count(N) // 2

    def weights(self, N: int) -> list[float]:
        """The amplitude on every cell of I_N x I_N."""
        return [self.amplitude(N)] * self.side_count(N) ** 2

    def dilation(self, N: int) -> int:
        return N

    def provenance(self, N: int, seed: int | None, center: int) -> dict:
        return {
            "generator": "counterexample_B_block",
            "mode": self.mode,
            "N": N,
            "seed": seed,
            "center": center,
            "resolution": self.resolution,
        }

    def test_function(self, N: int, center: int | None = None) -> SpectralVector:
        """The family's test function scaled to unit L2 norm (never 0: every bump is
        sampled at its peak, where both bump shapes equal 1)."""
        f = super().test_function(N, center)
        return SpectralVector(f.box, f.values / l2_norm(f))


def counterexample_B_block(
    cfg: CounterexampleBConfig, N: int, seed: int | None = None, center: int | None = None
) -> SymbolGrid:
    """Block symbol: amplitude * sum_{j,k} eps_{j+k} psi-bump at (j, k), dilated 2^-N.

    Signs key on the global anti-diagonal index j + k; seed None is the
    block's own seed, cfg.block_seed(N).
    """
    return cfg.block_symbol(N, cfg.block_seed(N) if seed is None else seed, center)


def test_function_B(
    cfg: CounterexampleBConfig, N: int, center: int | None = None
) -> SpectralVector:
    """Companion test function: one phi-bump per block index, unit L2 norm."""
    return cfg.test_function(N, center)


# ---------------------------------------------------------------------------
# dyadic frequency decomposition and the Besov norm


@functools.lru_cache(maxsize=4)
def _lp_cutoffs(dim: int, radius: int, spacing: float, k_max: int | None = None) -> np.ndarray:
    """Dyadic cutoffs phi_0 = c_0, phi_k = c_k - c_{k-1} (k <= k_max), stacked and
    read-only, on the DFT radius grid of a symbol of this shape, with
    c_k = smooth_step((1.5 - rho / 2^k) / 0.5): 1 on rho <= 2^k, 0 on rho >= 1.5 2^k.

    The default k_max is the first k with 2^k >= band = sqrt(dim) / (2 spacing).  Every
    DFT radius on the grid is below band, so c_k is exactly 1.0 at every sample for
    k >= k_max, and every later phi_k is exactly 0.0: it adds nothing to any sum.
    """
    if k_max is None:
        band = 0.5 / spacing * np.sqrt(dim)
        k_max = int(np.ceil(np.log2(max(band, 2.0))))
    freqs = np.fft.fftfreq(2 * radius + 1, d=spacing)
    grids = np.meshgrid(*([freqs] * dim), indexing="ij", sparse=True)
    rho = np.sqrt(sum(g**2 for g in grids))
    c = [smooth_step((1.5 - rho / 2.0**k) / 0.5) for k in range(k_max + 1)]
    phis = np.array(c[:1] + [c[k] - c[k - 1] for k in range(1, k_max + 1)])
    phis.flags.writeable = False
    return phis


def besov_norm(m: SymbolGrid) -> float:
    """Sum over k of 2^(nk/2) * weak-l4 norm of the k-th dyadic piece; the pieces
    past `_lp_cutoffs`' default k_max are exactly 0.0, so the sum is complete."""
    mhat = np.fft.fftn(m.values)
    total = 0.0
    for k, phi in enumerate(_lp_cutoffs(m.dim, m.radius, m.spacing)):
        piece = MeasuredValues.of(np.fft.ifftn(mhat * phi), m.cell_measure)
        total += 2.0 ** (m.n * k / 2.0) * weak_quasinorm(piece, 4.0)
    return total


# ---------------------------------------------------------------------------
# anti-diagonal representation counts


@dataclass(frozen=True)
class ReprTable:
    """r(l) = card{j in I^n : l - j in I^n}, separable over coordinates."""

    counts_1d: np.ndarray = field(repr=False)  # r(l) in 1d, from the smallest sum l up
    n: int = 1

    def sum_squares(self) -> int:
        one_d = int(np.sum(self.counts_1d.astype(object) ** 2))
        return one_d**self.n


def block_B_l4_fourth_coeff(cfg: CounterexampleBConfig, N: int) -> float:
    """||block symbol||_L4^4 from coefficient arithmetic, no grid materialized.

    Bumps are pairwise disjoint, so the fourth power sums patch by patch over
    the (side count)^2 populated cells.  The per-patch factor uses the same
    resolution-level samples the grid holds, making the dual-path comparison
    against the materialized grid an exact bookkeeping identity.
    """
    a = _bump_samples(cfg.psi, cfg.resolution)
    q4 = float(np.sum(a**4)) / cfg.resolution
    s = cfg.side_count(N)
    return cfg.amplitude(N) ** 4 * float(s) ** 2 * 2.0 ** (-2 * N) * q4**2


def block_B_level_measure_coeff(cfg: CounterexampleBConfig, N: int, lam: float) -> float:
    """|{|block symbol| > lam}| from per-bump counting: card^2 * patch level area.

    The patch level area is counted on the block's own sample grid (cell
    measure (2^-N / resolution)^2), so this equals the direct grid count.
    """
    amp = cfg.amplitude(N)
    if lam >= amp:
        return 0.0
    patch = _bump_patch(cfg.psi, cfg.resolution)
    cells = float(np.count_nonzero(patch > lam / amp))
    s = cfg.side_count(N)
    h = 2.0 ** (-N) / cfg.resolution
    return float(s) ** 2 * cells * h * h


def count_representations(I, n: int = 1) -> ReprTable:
    """Exact anti-diagonal counts by 1D self-convolution of the indicator."""
    idx = sorted(int(i) for i in I)
    if not idx:
        raise ValueError("interval must be non-empty")
    lo, hi = idx[0], idx[-1]
    ind = np.zeros(hi - lo + 1, dtype=np.int64)
    ind[[i - lo for i in idx]] = 1
    counts = np.convolve(ind, ind)
    return ReprTable(counts, n)
