"""Bilinear multiplier evaluation: algebraic identities and the direct oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bimult.cli
from bimult.bilinear import (
    SymbolGrid,
    apply_bilinear,
    operator_ratio,
    output_spectrum,
    stream_output_spectrum,
)
from bimult.cli import _open_symbol, write_symbol
from bimult.grid import (
    FrequencyBox,
    SpectralVector,
    apply_linear_multiplier,
    l1_norm,
    synthesize,
)


def random_pair(F, seed, oversample=4):
    rng = np.random.default_rng(seed)
    box = FrequencyBox(1, F, oversample, 1.0)
    shape = box.lattice_shape
    f = SpectralVector(box, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    g = SpectralVector(box, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return f, g


def ones_symbol(F_sym):
    side = 2 * F_sym + 1
    return SymbolGrid(2, F_sym, np.ones((side, side)), spacing=1.0)


def test_identity_symbol_gives_pointwise_product():
    f, g = random_pair(8, 0)
    out = apply_bilinear(ones_symbol(8), f, g)
    prod = synthesize_at(f, out.box) * synthesize_at(g, out.box)
    rel = np.max(np.abs(out.samples - prod)) / np.max(np.abs(prod))
    assert rel < 1e-9


def synthesize_at(f, box_out):
    """Resample f on the (wider) output box by zero-padding its spectrum."""
    vals = np.zeros(box_out.lattice_shape, dtype=complex)
    F_in, F_out = f.box.radius, box_out.radius
    sl = slice(F_out - F_in, F_out + F_in + 1)
    vals[(sl,) * f.box.dim] = f.values
    return synthesize(SpectralVector(box_out, vals)).samples


def test_tensor_symbol_factors_through_linear_multipliers():
    # m(xi, eta) = sigma(xi) tau(eta) means T_m(f, g) = (sigma f) * (tau g)
    F = 6
    rng = np.random.default_rng(42)
    sigma = rng.standard_normal(2 * F + 1)
    tau = rng.standard_normal(2 * F + 1)
    m = SymbolGrid(2, F, np.outer(sigma, tau), spacing=1.0)
    f, g = random_pair(F, 1)
    sf = apply_linear_multiplier(SpectralVector(f.box, sigma), f)
    tg = apply_linear_multiplier(SpectralVector(g.box, tau), g)
    out = apply_bilinear(m, f, g)
    prod = synthesize_at(sf, out.box) * synthesize_at(tg, out.box)
    rel = np.max(np.abs(out.samples - prod)) / np.max(np.abs(prod))
    assert rel < 1e-9


def test_direct_mode_cross_check_corpus():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        F = int(rng.integers(1, 6))
        f, g = random_pair(F, 2000 + seed, oversample=2)
        side = 2 * F + 1
        m = SymbolGrid(
            2, F, rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        )
        fast = apply_bilinear(m, f, g, mode="antidiagonal").samples
        slow = apply_bilinear(m, f, g, mode="direct").samples
        scale = max(np.max(np.abs(slow)), 1e-30)
        worst = max(worst, np.max(np.abs(fast - slow)) / scale)
    assert worst < 1e-10


def test_bilinearity():
    F = 5
    f1, g = random_pair(F, 3)
    f2, _ = random_pair(F, 4)
    m = ones_symbol(F)
    comb = SpectralVector(f1.box, 2.0 * f1.values + 3j * f2.values)
    lhs = apply_bilinear(m, comb, g).samples
    rhs = 2.0 * apply_bilinear(m, f1, g).samples + 3j * apply_bilinear(m, f2, g).samples
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))


def test_ratio_scale_invariance_in_inputs():
    f, g = random_pair(6, 5)
    m = ones_symbol(6)
    r1 = operator_ratio(m, f, g)
    f2 = SpectralVector(f.box, 3.7 * f.values)
    assert operator_ratio(m, f2, g) == pytest.approx(r1, rel=1e-12)


def test_ratio_homogeneous_in_symbol():
    f, g = random_pair(6, 6)
    m = ones_symbol(6)
    assert operator_ratio(m.scaled(5.0), f, g) == pytest.approx(
        5.0 * operator_ratio(m, f, g), rel=1e-12
    )


def test_sanity_bound_identity_symbol():
    # T_1(f,g) = fg and Cauchy-Schwarz on the unit torus: ||fg||_1 <= ||f||_2 ||g||_2
    for seed in range(20):
        f, g = random_pair(7, 300 + seed)
        assert operator_ratio(ones_symbol(7), f, g) <= 1.0 + 1e-9


def test_incompatible_inputs_rejected():
    f, g = random_pair(8, 7)
    with pytest.raises(ValueError):
        apply_bilinear(ones_symbol(4), f, g)  # band limit too small
    m = SymbolGrid(2, 8, np.ones((17, 17)), spacing=0.5)  # wrong spacing for period 1
    with pytest.raises(ValueError):
        apply_bilinear(m, f, g)
    with pytest.raises(ValueError):
        apply_bilinear(ones_symbol(8), f, g, mode="bogus")


def test_zero_input_ratio_rejected():
    f, _ = random_pair(4, 8)
    z = SpectralVector(f.box, np.zeros_like(f.values))
    with pytest.raises(ValueError):
        operator_ratio(ones_symbol(4), f, z)


@pytest.mark.parametrize("bad", [complex("nan"), complex(0, float("inf")), complex(float("-inf"), 1)],
                         ids=["nan", "inf-imag", "minus-inf-real"])
@pytest.mark.parametrize("layout", ["c-order", "fortran", "strided"])
def test_symbol_grid_refuses_non_finite_values(bad, layout):
    values = np.ones((9, 18), dtype=complex)
    values[4, 6] = bad
    values = {"c-order": values[:, :9].copy(), "fortran": np.asfortranarray(values[:, :9]),
              "strided": values[:, ::2]}[layout]
    with pytest.raises(ValueError, match="symbol values must be finite"):
        SymbolGrid(2, 4, values)


def test_symbol_grid_keeps_strided_values():
    values = np.arange(162.0).reshape(9, 18) * (1 - 0.5j)
    m = SymbolGrid(2, 4, values[:, ::2].T)
    assert m.values.flags.c_contiguous
    assert np.array_equal(m.values, values[:, ::2].T)


# ---------------------------------------------------------------------------
# the operator skips a symbol's all-zero xi-rows without changing a bit


def _per_row_spectrum(block, f, g):
    """Oracle: the accumulation loop as it was before all-zero rows were skipped.

    Every xi-row of the band block with f(xi) != 0 adds its term, in
    row-major order, through one reused term buffer.
    """
    F = f.box.radius
    u = np.zeros((4 * F + 1,) * f.box.dim, dtype=complex)
    gv = g.values
    term = np.empty_like(gv)
    for xi in np.ndindex(*f.box.lattice_shape):
        fval = f.values[xi]
        if fval == 0:
            continue
        target = u[tuple(slice(i, i + 2 * F + 1) for i in xi)]
        np.multiply(fval, block[xi], out=term, dtype=complex)
        np.multiply(term, gv, out=term)
        np.add(target, term, out=target)
    return u


def _assert_same_bits(u, oracle):
    assert np.array_equal(u, oracle)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(u, part)), np.signbit(getattr(oracle, part)))


ROW_KINDS = ("zero", "zero-in-band", "negative-zero", "dense")


@st.composite
def zero_row_cases(draw):
    """(n, radius, F, row kinds, rows per file chunk, Fortran-ordered input, seed)."""
    n = draw(st.sampled_from([1, 2]))
    radius = draw(st.integers(1, 5 if n == 1 else 3))
    F = draw(st.integers(1, radius))
    rows = (2 * radius + 1) ** n
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=rows, max_size=rows))
    return n, radius, F, kinds, draw(st.integers(1, 4)), draw(st.booleans()), draw(
        st.integers(0, 2**32 - 1))


def _rows_of_kinds(rng, n, radius, F, kinds):
    """complex64 symbol on {-radius..radius}^{2n} whose xi-row k is of kind kinds[k]."""
    side = 2 * radius + 1
    rows = np.zeros((side**n,) + (side,) * n, dtype=np.complex64)
    outside = np.ones((side,) * n, dtype=bool)
    outside[(slice(radius - F, radius + F + 1),) * n] = False
    for row, kind in zip(rows, kinds):
        noise = rng.standard_normal(row.shape) + 1j * rng.standard_normal(row.shape)
        if kind == "zero-in-band":  # nonzero only outside f's band (all zero if F == radius)
            row[outside] = noise[outside]
        elif kind == "negative-zero":  # every part +-0, some -0: nonzero bits, a kept row
            row.real[rng.random(row.shape) < 0.5] = -0.0
            row.imag[rng.random(row.shape) < 0.5] = -0.0
        elif kind == "dense":  # with some zero and -0.0 samples among the others
            row[...] = noise
            row[rng.random(row.shape) < 0.2] = 0
            row.real[rng.random(row.shape) < 0.1] = -0.0
    return rows.reshape((side,) * (2 * n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=zero_row_cases())
# nonzero rows 1 and 2 fall in two file chunks of two rows each
@example(case=(1, 3, 2, ["zero", "dense", "dense", "zero", "negative-zero", "zero", "zero"],
               2, False, 0))
def test_zero_row_skip_is_bit_exact(tmp_path_factory, case):
    n, radius, F, kinds, chunk_rows, fortran, seed = case
    rng = np.random.default_rng(seed)
    values = _rows_of_kinds(rng, n, radius, F, kinds)
    m = SymbolGrid(2 * n, radius, np.asfortranarray(values) if fortran else values, 0.5)
    box = FrequencyBox(n, F, 2, 2.0)
    shape = box.lattice_shape
    f_vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f_vals[rng.random(shape) < 0.3] = 0
    f = SpectralVector(box, f_vals)
    g = SpectralVector(box, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    oracle = _per_row_spectrum(m.values[(slice(radius - F, radius + F + 1),) * (2 * n)], f, g)
    _assert_same_bits(output_spectrum(m, f, g).values, oracle)

    path = str(tmp_path_factory.mktemp("zero-rows") / "s.bin")
    write_symbol(path, m, {})  # complex64 samples: the file holds values' bits
    side = 2 * radius + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bimult.cli, "_CHUNK", chunk_rows * side**n)
        with _open_symbol(path) as (dim, r, spacing, chunks):
            sizes = []
            u = stream_output_spectrum((sizes.append(len(c)) or (c, nz) for c, nz in chunks),
                                       n, r, spacing, f, g)
    assert sum(sizes) == side**n and max(sizes) == min(chunk_rows, side**n)
    _assert_same_bits(u.values, oracle)
