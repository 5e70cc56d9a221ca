"""Symbol generators, shell sequences, dyadic cutoffs, and counting."""

import functools
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bimult.symbols
from bimult.bilinear import SymbolGrid, operator_ratio, output_spectrum
from bimult.bumps import BumpSpec
from bimult.grid import FrequencyBox, SpectralVector, l2_norm
from bimult.lorentz import weak_quasinorm
from bimult.rowcol import CoeffMatrix
from bimult.symbols import (
    CounterexampleAConfig,
    CounterexampleBConfig,
    SignAssignment,
    _bump_patch,
    _hash64,
    _lp_cutoffs,
    besov_norm,
    block_A_symbol,
    block_B_l4_fourth_coeff,
    counterexample_B_block,
    count_representations,
    lattice_symbol,
    power_shell_sequence,
    shell_rank,
)
from bimult.symbols import test_function_B as make_f_B

PSI = BumpSpec(radius=0.1, plateau=0.05)


# ---------------------------------------------------------------------------
# lattice symbols


def test_single_bump_sup():
    m = lattice_symbol(CoeffMatrix({(0, 0): 1.0}), PSI, 20)
    assert np.max(np.abs(m.values)) == pytest.approx(PSI.profile(0.0))


def test_two_bumps_l4_additive():
    single = lattice_symbol(CoeffMatrix({(0, 0): 1.0}), PSI, 20)
    double = lattice_symbol(CoeffMatrix({(0, 0): 1.0, (2, -1): -1.0}), PSI, 20)
    s4 = np.sum(np.abs(single.values) ** 4.0) * single.cell_measure
    d4 = np.sum(np.abs(double.values) ** 4.0) * double.cell_measure
    assert d4 == pytest.approx(2.0 * s4, rel=1e-12)


def test_lattice_symbol_homogeneity():
    c = CoeffMatrix({(0, 0): 1.0, (1, 1): 0.5, (-2, 3): 2.0})
    m1 = lattice_symbol(c, PSI, 10)
    m2 = lattice_symbol(c.scaled(2.0), PSI, 10)
    w1 = weak_quasinorm(m1.measured(), 4.0)
    w2 = weak_quasinorm(m2.measured(), 4.0)
    assert w2 == pytest.approx(2.0 * w1, rel=1e-12)


def test_lattice_symbol_radius_guard():
    with pytest.raises(ValueError):
        lattice_symbol(CoeffMatrix({(0, 0): 1.0}), BumpSpec(radius=0.2), 20)


def _stamp_by_offset(kl, v, psi, resolution, F):
    """Oracle: the per-offset stamper the box stamper replaced, one scatter of every entry
    per patch offset (di, dj) into a zero (2F+1)^2 grid."""
    patch = _bump_patch(psi, resolution)
    w = patch.shape[0] // 2
    rows = F + resolution * kl[:, 0] - w
    cols = F + resolution * kl[:, 1] - w
    values = np.zeros((2 * F + 1, 2 * F + 1), dtype=complex)
    for di, dj in np.ndindex(patch.shape):
        values[rows + di, cols + dj] += v * patch[di, dj]
    return values


_PART = st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6, allow_subnormal=True)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    entries=st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                            st.builds(complex, _PART, _PART), min_size=1, max_size=12),
    resolution=st.integers(1, 24),
    radius=st.floats(0.001, 0.1),
    plateau=st.none() | st.floats(0.05, 0.95),
)
def test_box_stamp_equals_per_offset_scatters(entries, resolution, radius, plateau):
    # the lattice symbol's samples, bit for bit, and so every -0.0 of the scatters too
    psi = BumpSpec(radius, None if plateau is None else plateau * radius)
    m = lattice_symbol(CoeffMatrix(entries), psi, resolution)
    kl = np.array(list(entries), dtype=np.int64)
    oracle = _stamp_by_offset(kl, np.array(list(entries.values())), psi, resolution, m.radius)
    assert np.array_equal(m.values.view(np.uint64), oracle.view(np.uint64))


@pytest.mark.parametrize("part", [1, 123, 4096])
def test_lattice_symbol_in_box_parts_equals_per_offset_scatters(monkeypatch, part):
    # the 41 x 41 box in parts of 1 row, of 3 rows (the last one shorter), and whole;
    # some parts hold no key and are left out
    monkeypatch.setattr(bimult.symbols, "_BOX_PART", part)
    rng = np.random.default_rng(part)
    kl = np.unique(np.vstack([rng.integers(-20, 21, size=(60, 2)), [[-20, -20], [20, 20]]]),
                   axis=0)
    v = rng.standard_normal(len(kl)) + 1j * rng.standard_normal(len(kl))
    v[:3] = [complex(-0.0, 0.0), complex(0.0, -0.0), 0.0]
    m = lattice_symbol(CoeffMatrix(dict(zip(map(tuple, kl.tolist()), v))), PSI, 12)
    oracle = _stamp_by_offset(kl, v, PSI, 12, m.radius)
    assert np.array_equal(m.values.view(np.uint64), oracle.view(np.uint64))


def test_lattice_symbol_holds_no_box_beside_its_grid():
    # two keys far apart at r = 1: the dense 401^2 coefficient box and its stamp, 2.5 MiB
    # each, once sat beside the 2.5 MiB grid (a 7.5 MiB peak); now the grid is the peak
    kl = np.array([[-200, -200], [200, 200]])
    v = np.array([1.0 + 2.0j, -3.0])
    c = CoeffMatrix(dict(zip(map(tuple, kl.tolist()), v)))
    tracemalloc.start()
    try:
        m = lattice_symbol(c, PSI, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= m.values.nbytes + 2**20
    oracle = _stamp_by_offset(kl, v, PSI, 1, m.radius)
    assert np.array_equal(m.values.view(np.uint64), oracle.view(np.uint64))


@pytest.mark.parametrize("family", ["A", "B"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.none() | st.integers(0, 2**64 - 1))
def test_block_symbol_is_the_lattice_symbol_of_its_coefficients(family, data, seed):
    # block coefficients placed at (j - c, k - c): the same samples, spacing aside
    cfg = _BLOCK_FAMILIES[family]
    key = data.draw(st.integers(1, 2), label="key")
    center = cfg.center(key) + data.draw(st.integers(-8, 8), label="shift")
    I = cfg.interval(key)
    c = cfg.block_coefficients(key, seed)
    lattice = CoeffMatrix({(j - center, k - center): c[j - I.start, k - I.start]
                           for j in I for k in I})
    m = cfg.block_symbol(key, seed, center)
    oracle = lattice_symbol(lattice, cfg.psi, cfg.resolution)
    assert m.radius == oracle.radius
    assert np.array_equal(m.values.view(np.uint64), oracle.values.view(np.uint64))


# ---------------------------------------------------------------------------
# shell sequences


def test_shell_rank_matches_enumeration():
    # rank within shells of max(|k|, |l|), lexicographic inside each shell
    for M in (3, 40):
        cells = sorted((max(abs(k), abs(l)), k, l) for k in range(-M, M + 1)
                       for l in range(-M, M + 1))
        for rank, (_, k, l) in enumerate(cells, start=1):
            assert shell_rank(k, l) == rank
    # the same formula on int64 arrays, one rank per cell
    kl = np.array([kl for _, *kl in cells], dtype=np.int64)
    ranks = shell_rank(kl[:, 0], kl[:, 1])
    assert ranks.dtype == np.int64 and ranks.tolist() == list(range(1, len(kl) + 1))


def test_power_shell_sequence_is_shell_monotone():
    c = power_shell_sequence(5, 0.125).coeff_matrix()
    for (k, l), v in c.entries.items():
        assert abs(v) == pytest.approx(shell_rank(k, l) ** -0.125)


# ---------------------------------------------------------------------------
# counterexample A


def test_signs_reproducible():
    s1 = SignAssignment(123456789)
    s2 = SignAssignment(123456789)
    assert s1.signs(range(-50, 50)) == s2.signs(range(-50, 50))
    assert set(s1.signs(range(200))) == {-1, 1}


def _blake2b_64(raw: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "little")


def test_hash64_matches_each_hand_packed_derivation():
    # the packings substream, block_seed and SignAssignment each used to write out
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b, c = (int(x) for x in rng.integers(-(2**63), 2**63, size=3, dtype=np.int64))
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        assert _hash64(a, b) == _blake2b_64(struct.pack("<qq", a, b))
        assert _hash64(a, b, c) == _blake2b_64(struct.pack("<qqq", a, b, c))
        raw = struct.pack("<Q", seed) + struct.pack("<q", a)
        assert SignAssignment(seed).signs(range(a, a + 1)) == [1 if _blake2b_64(raw) & 1 else -1]
    for key in (2**64, -(2**63) - 1):
        with pytest.raises(ValueError, match="64 bits"):
            _hash64(0, key)
    assert _hash64(2**64 - 1) == _hash64(-1)  # the same 8 bytes


_SIGN_SEEDS = (0, -1, 2**63 - 1, 2**64 - 1, 123456789)


@pytest.mark.parametrize("seed", _SIGN_SEEDS)
@pytest.mark.parametrize(
    "ls",
    [
        pytest.param(range(-40, 41), id="crossing-0"),
        pytest.param(range(-(2**63), -(2**63) + 20), id="from-min-int64"),
        pytest.param(range(2**63 - 20, 2**63), id="to-max-int64"),
        pytest.param(range(2**63 - 3, 2**63 + 3), id="crossing-2**63"),
        pytest.param(range(2**64 - 5, 2**64), id="to-max-uint64"),
        pytest.param(range(8, 263), id="block-128-antidiagonals"),
        pytest.param(range(5, 5), id="empty"),
    ],
)
def test_batched_signs_match_hash64(seed, ls):
    # oracle: one full _hash64 per index
    expected = [1 if _hash64(seed, l) & 1 else -1 for l in ls]
    assert SignAssignment(seed).signs(ls) == expected


@pytest.mark.parametrize(
    "seed, ls, bad",
    [
        pytest.param(2**64, range(3), 2**64, id="seed-above-uint64"),
        pytest.param(-(2**63) - 1, range(3), -(2**63) - 1, id="seed-below-int64"),
        pytest.param(2**64, range(0), 2**64, id="seed-above-uint64-empty-range"),
        pytest.param(0, range(-(2**63) - 1, -(2**63) + 2), -(2**63) - 1, id="start-below-int64"),
        pytest.param(0, range(2**64 - 2, 2**64 + 1), 2**64, id="last-above-uint64"),
    ],
)
def test_batched_signs_refuse_keys_outside_64_bits(seed, ls, bad):
    with pytest.raises(ValueError, match="64 bits") as hashed:
        _hash64(seed, bad)
    with pytest.raises(ValueError, match="64 bits") as batched:
        SignAssignment(seed).signs(ls)
    assert str(batched.value) == str(hashed.value)


_WEIGHT_BLOCKS = (1, 4, 16, 64, 256)


@functools.cache
def _scalar_ranks(b: int) -> list[int]:
    return [shell_rank(j, k) for j in range(b, 2 * b) for k in range(b, 2 * b)]


@pytest.mark.parametrize("exponent", [0.125, 0.3, 1 / 3])
def test_block_A_weights_match_python_pow_oracle(exponent):
    # weights() takes its ranks from int64 arrays but its powers from Python's
    # float pow, as the per-cell oracle does.  np.power is not a substitute: on an
    # AVX-512 host it differed from Python pow on 12,166 of the first 200,000
    # ranks at exponent 0.125, and it turns an overflow into inf where Python
    # pow raises OverflowError.
    cfg = CounterexampleAConfig(block_b=_WEIGHT_BLOCKS, dstar_exponent=exponent, master_seed=0)
    for K, b in enumerate(_WEIGHT_BLOCKS, start=1):
        expected = [float(rank) ** -exponent for rank in _scalar_ranks(b)]
        got = cfg.weights(K)
        assert all(type(w) is float for w in got)
        assert [w.hex() for w in got] == [w.hex() for w in expected]


def test_block_weights_overflow_raises():
    cfg = CounterexampleAConfig(block_b=(64,), dstar_exponent=-200, master_seed=0)
    with pytest.raises(OverflowError):
        cfg.weights(1)


def test_counterexample_A_single_cell():
    cfg = CounterexampleAConfig(block_b=(1,), dstar_exponent=0.0, master_seed=0)
    c = cfg.block_coefficients(1, cfg.block_seed(1))
    assert c.shape == (1, 1) and c.dtype == float
    assert abs(c[0, 0]) == 1.0


def test_counterexample_A_antidiagonal_signs():
    cfg = CounterexampleAConfig(block_b=(2,), dstar_exponent=0.0, master_seed=5)
    c = cfg.block_coefficients(1, cfg.block_seed(1))  # cells (j, k) of {2, 3}^2, weight 1
    # signs depend only on j + k, so the two cells with j+k=5 agree
    assert c[0, 1] == c[1, 0]
    eps = SignAssignment(cfg.block_seed(1)).signs(range(4, 7))
    assert c.tolist() == [[eps[j + k] for k in range(2)] for j in range(2)]


def test_counterexample_A_magnitudes_unchanged_by_signs():
    cfg = CounterexampleAConfig(block_b=(4,), dstar_exponent=0.125, master_seed=9)
    signed, plus = cfg.block_coefficients(1, cfg.block_seed(1)), cfg.block_coefficients(1, None)
    assert np.array_equal(np.abs(signed), plus)
    assert plus.ravel().tolist() == cfg.weights(1)  # j-major, as weights(K)
    weak4 = [CoeffMatrix({(j, k): v for (j, k), v in np.ndenumerate(c)}).weak4()
             for c in (signed, plus)]
    assert weak4[0] == pytest.approx(weak4[1], rel=1e-12)


def test_counterexample_A_block_spacing_guard():
    with pytest.raises(ValueError):
        CounterexampleAConfig(block_b=(4, 8), dstar_exponent=0.125, master_seed=0)


def test_companion_A_bump_count_and_norm():
    cfg = CounterexampleAConfig(block_b=(4,), dstar_exponent=0.125, master_seed=1)
    f = cfg.test_function(1, center=cfg.center(1))
    # b_1 = 4 disjoint plateau bumps; L2 is 4x the single-bump L2
    single = CounterexampleAConfig(block_b=(1,), dstar_exponent=0.125, master_seed=1)
    f1 = single.test_function(1, center=1)
    assert l2_norm(f) ** 2 == pytest.approx(4.0 * l2_norm(f1) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# counterexample B


def test_counterexample_B_paper_parameters():
    cfg = CounterexampleBConfig(mode="paper", Ns=(2,), master_seed=3)
    assert cfg.side_count(2) == 32
    assert cfg.amplitude(2) == pytest.approx(0.25)


def test_counterexample_B_block_values():
    cfg = CounterexampleBConfig(mode="desk", Ns=(1,), master_seed=3)
    m = counterexample_B_block(cfg, 1, center=0)
    # side_count(1) = 4 bumps per axis, all of magnitude amplitude(1)
    mags = np.abs(m.values)
    assert np.max(mags) == pytest.approx(cfg.amplitude(1))
    assert m.spacing == pytest.approx(0.5 / cfg.resolution)


def test_counterexample_B_l4_law_exact():
    cfg = CounterexampleBConfig(mode="paper", Ns=(2, 4), master_seed=3)
    c2 = block_B_l4_fourth_coeff(cfg, 2) * 2.0**2
    c4 = block_B_l4_fourth_coeff(cfg, 4) * 2.0**4
    assert c2 == c4  # the 2^-nN proportionality constant is scale-free


def test_counterexample_B_paper_mode_rejects_odd_N():
    with pytest.raises(ValueError):
        CounterexampleBConfig(mode="paper", Ns=(3,), master_seed=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda r: CounterexampleAConfig(
            block_b=(4,), dstar_exponent=0.125, master_seed=0, resolution=r
        ),
        lambda r: CounterexampleBConfig(mode="desk", Ns=(1,), master_seed=0, resolution=r),
        lambda r: lattice_symbol(CoeffMatrix({(0, 0): 1.0}), PSI, r),
    ],
    ids=["A", "B", "lattice"],
)
@pytest.mark.parametrize("resolution", [0, -3])
def test_symbol_grids_reject_resolution_below_one(make, resolution):
    with pytest.raises(ValueError, match="resolution must be >= 1"):
        make(resolution)


@pytest.mark.parametrize("K", [0, -2, 3])
def test_block_A_rejects_index_outside_its_blocks(K):
    # K = 0 used to read block_b[-1] and build the last block
    cfg = CounterexampleAConfig(block_b=(4, 16), dstar_exponent=0.125, master_seed=0)
    for build in (
        lambda: block_A_symbol(cfg, K, 1),
        lambda: cfg.test_function(K, 0),
        lambda: cfg.center(K),
    ):
        with pytest.raises(ValueError, match="outside 1..2"):
            build()


# ---------------------------------------------------------------------------
# modulation invariance of the block constructions under `center`


def _embed_symbol(m: SymbolGrid, R: int) -> SymbolGrid:
    return SymbolGrid(m.dim, R, np.pad(m.values, R - m.radius), m.spacing)


def _embed_input(f: SpectralVector, R: int) -> SpectralVector:
    box = FrequencyBox(f.box.dim, R, f.box.oversample, f.box.period)
    return SpectralVector(box, np.pad(f.values, R - f.box.radius))


def _ratios_on_common_grid(build, centers):
    """operator_ratio(m, f, f) of each centered (m, f), on one common grid."""
    pairs = [build(c) for c in centers]
    R = max(max(m.radius, f.box.radius) for m, f in pairs)
    ratios = []
    for m, f in pairs:
        f = _embed_input(f, R)
        ratios.append(operator_ratio(_embed_symbol(m, R), f, f))
    return ratios


@pytest.mark.parametrize("family", ["A", "B"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**63 - 1))
def test_block_ratio_invariant_under_center_shift(family, data, seed):
    if family == "A":  # one block b..2b-1, shifted around its start b
        b = data.draw(st.integers(1, 3), label="b")
        resolution = data.draw(st.integers(10, 14), label="resolution")
        cfg = CounterexampleAConfig(
            block_b=(b,), dstar_exponent=0.125, master_seed=0, resolution=resolution
        )
        key, base, reach = 1, b, 6
    else:  # one desk block N, shifted around its center
        key = data.draw(st.integers(1, 2), label="N")
        cfg = CounterexampleBConfig(mode="desk", Ns=(key,), master_seed=0, resolution=10)
        base, reach = cfg.center(key), 8
    shifts = data.draw(st.tuples(st.integers(-reach, reach), st.integers(-reach, reach)))
    r0, r1 = _ratios_on_common_grid(
        lambda c: (cfg.block_symbol(key, seed, c), cfg.test_function(key, c)),
        [base + s for s in shifts],
    )
    assert r1 == pytest.approx(r0, rel=1e-9)


_BLOCK_FAMILIES = {
    "A": CounterexampleAConfig(block_b=(4, 16, 64), dstar_exponent=0.125, master_seed=0),
    "B": CounterexampleBConfig(mode="desk", Ns=(1, 2, 3), master_seed=0),
}


@pytest.mark.parametrize(
    "family, key, centered",
    [(fam, key, True) for fam in "AB" for key in (1, 2, 3)]
    + [(fam, key, False) for fam in "AB" for key in (1, 2)],
)
def test_block_output_spectrum_equals_grid_spectrum(family, key, centered):
    # oracle: the all-plus block symbol's grid, summed by output_spectrum
    cfg = _BLOCK_FAMILIES[family]
    center = cfg.center(key) if centered else 0
    f = cfg.test_function(key, center)
    u = cfg.block_output_spectrum(key, f, f, center)
    oracle = output_spectrum(cfg.block_symbol(key, None, center), f, f)
    assert u.box == oracle.box
    assert np.array_equal(u.values, oracle.values)


@pytest.mark.parametrize("family", ["A", "B"])
def test_block_output_spectrum_of_narrower_inputs(family):
    # inputs on a band inside the block's grid: bumps cut by the band edge drop out, and
    # a band 10 lattice units off the block's center holds none
    cfg, key = _BLOCK_FAMILIES[family], 2
    period = cfg.test_function(key).box.period
    rng = np.random.default_rng(5)
    for shift, radius in ((0, 3), (0, 40), (10, 3)):
        center = cfg.center(key) + shift
        box = FrequencyBox(1, radius, 2, period)
        f, g = (SpectralVector(box, rng.standard_normal(2 * radius + 1)
                               + 1j * rng.standard_normal(2 * radius + 1)) for _ in "fg")
        u = cfg.block_output_spectrum(key, f, g, center)
        oracle = output_spectrum(cfg.block_symbol(key, None, center), f, g)
        assert np.array_equal(u.values, oracle.values)


@pytest.mark.parametrize("family", ["A", "B"])
def test_block_output_spectrum_refuses_mismatched_input(family):
    cfg = _BLOCK_FAMILIES[family]
    f = cfg.test_function(2, cfg.center(2))  # block 2's input, wider than block 1's band
    with pytest.raises(ValueError, match="band limit|spacing"):
        cfg.block_output_spectrum(1, f, f, cfg.center(1))


def test_companion_B_unit_norm():
    cfg = CounterexampleBConfig(mode="desk", Ns=(1, 2, 3), master_seed=2)
    for N in cfg.Ns:
        f = make_f_B(cfg, N)
        assert l2_norm(f) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Littlewood-Paley cutoffs and the Besov norm


def band_limited_symbol(radius_cap, seed, F=24, res=8):
    """Random symbol whose DFT spectrum lies inside the given frequency radius."""
    rng = np.random.default_rng(seed)
    P = 2 * F + 1
    h = 1.0 / res
    freqs = np.fft.fftfreq(P, d=h)
    w1, w2 = np.meshgrid(freqs, freqs, indexing="ij")
    mask = np.hypot(w1, w2) <= radius_cap
    spec = np.zeros((P, P), dtype=complex)
    cnt = int(np.count_nonzero(mask))
    spec[mask] = rng.standard_normal(cnt) + 1j * rng.standard_normal(cnt)
    from bimult.bilinear import SymbolGrid

    return SymbolGrid(2, F, np.fft.ifft2(spec), spacing=h)


def lp_pieces(m, k_max):
    """The dyadic pieces besov_norm measures: m filtered through each cutoff."""
    mhat = np.fft.fftn(m.values)
    return [np.fft.ifftn(mhat * phi) for phi in _lp_cutoffs(m.dim, m.radius, m.spacing, k_max)]


def test_lp_piece_band_limited_identity():
    m = band_limited_symbol(0.9, 0)
    p0, *rest = lp_pieces(m, 3)
    assert np.max(np.abs(p0 - m.values)) < 1e-8 * np.max(np.abs(m.values))
    for pk in rest:
        assert np.max(np.abs(pk)) < 1e-8 * np.max(np.abs(m.values))


def test_lp_telescoping_recovers_band_limited():
    m = band_limited_symbol(3.0, 1)
    total = sum(lp_pieces(m, 5))
    assert np.max(np.abs(total - m.values)) < 1e-8 * np.max(np.abs(m.values))


def test_lp_parseval_band():
    # the cutoffs form a partition of unity (not of squares): at any frequency
    # at most two pieces overlap and phi + (1 - phi) = 1, so the energy of the
    # pieces lies in [1/2, 1] times the total energy
    m = band_limited_symbol(4.0, 2)
    l2sq = float(np.sum(np.abs(m.values) ** 2) * m.cell_measure)
    pieces = sum(float(np.sum(np.abs(pk) ** 2) * m.cell_measure) for pk in lp_pieces(m, 7))
    assert 0.5 - 1e-9 <= pieces / l2sq <= 1.0 + 1e-9


def test_besov_norm_band_limited_equals_weak():
    m = band_limited_symbol(0.9, 3)
    assert besov_norm(m) == pytest.approx(weak_quasinorm(m.measured(), 4.0), rel=1e-6)


def test_besov_norm_makes_one_forward_fft(monkeypatch):
    # the boundedness corpus grid: radius 50 at spacing 1/10, so band = sqrt(2) * 5 <= 2^3
    m = band_limited_symbol(2.0, 5, F=50, res=10)
    calls = {"fftn": 0, "ifftn": 0}

    def counting(name):
        real = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.fft, name, counting(name))
    besov_norm(m)
    # one forward FFT, and one inverse per dyadic piece k = 0..3 that can be nonzero
    assert calls == {"fftn": 1, "ifftn": 4}


def test_besov_norm_default_drops_only_zero_pieces():
    m = band_limited_symbol(2.0, 5, F=50, res=10)
    k0 = 3  # first k with 2^k >= band = sqrt(2) * 5
    shape = (m.dim, m.radius, m.spacing)
    default, longer = _lp_cutoffs(*shape), _lp_cutoffs(*shape, k0 + 2)
    assert len(default) == k0 + 1
    for phi, same in zip(default, longer):
        assert np.array_equal(phi.view(np.uint64), same.view(np.uint64))
    for phi in longer[k0 + 1 :]:  # so besov_norm would add exactly 0.0 for each
        assert np.all(phi == 0.0)


def test_besov_norm_zero_and_homogeneous():
    m = band_limited_symbol(2.0, 4)
    z = m.scaled(0.0)
    assert besov_norm(z) == 0.0
    assert besov_norm(m.scaled(2.0)) == pytest.approx(2.0 * besov_norm(m), rel=1e-9)


# ---------------------------------------------------------------------------
# counting and periodization


def test_count_representations_small_cases():
    t = count_representations(range(3))
    assert list(t.counts_1d) == [1, 2, 3, 2, 1]  # sums 0..4
    assert t.sum_squares() == 19
    assert count_representations(range(2)).sum_squares() == 6


def test_count_representations_closed_form():
    for M in (2, 3, 7, 32, 101):
        assert count_representations(range(M)).sum_squares() == M * (2 * M * M + 1) // 3


def test_count_representations_separable_in_n():
    one_d = count_representations(range(5), n=1)
    two_d = count_representations(range(5), n=2)
    assert two_d.sum_squares() == one_d.sum_squares() ** 2


def test_periodization_sup_bounded_and_stable():
    # sum over the integer lattice of (1 + |x - k|)^-2 stays uniformly small
    x = np.linspace(0.0, 1.0, 2001)
    def periodized(k_range):
        k = np.arange(-k_range, k_range + 1)
        return np.max(np.sum((1.0 + np.abs(x[:, None] - k[None, :])) ** -2.0, axis=1))
    s200 = periodized(200)
    s400 = periodized(400)
    assert s200 < 4.0
    assert abs(s400 - s200) / s200 < 0.01
