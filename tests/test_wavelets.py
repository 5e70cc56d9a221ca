"""Meyer product-wavelet profiles, coefficients, and the scale-decay ratio."""

import hashlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimult.bilinear import SymbolGrid
from bimult.bumps import BumpSpec
from bimult.experiments import substream
from bimult.lorentz import MeasuredValues, weak_quasinorm
from bimult.rowcol import CoeffMatrix
from bimult.symbols import lattice_symbol
from bimult.wavelets import (
    lemma_discrete_ratio,
    meyer_father_hat,
    meyer_mother_hat,
    meyer_physical,
    wavelet_coefficients,
    wavelet_indices,
)


def sampled_wavelet(j, G, beta, F=256, res=16):
    """Grid samples of one product family member on the box [-F/res, F/res]^2."""
    xs = np.arange(-F, F + 1) / res
    lam = 1.0 if j == 0 else 2.0 ** (j - 1)
    scale = 1.0 if j == 0 else lam  # 2^((j-1) n) with n = 1
    a = meyer_physical(G[0], lam * xs - beta[0])
    b = meyer_physical(G[1], lam * xs - beta[1])
    return SymbolGrid(2, F, scale * np.outer(a, b), 1.0 / res)


def test_profile_support_and_normalization():
    assert meyer_father_hat(0.0) == 1.0
    assert meyer_father_hat(0.3) == 1.0  # inside |xi| <= 1/3
    assert meyer_father_hat(0.7) == 0.0
    assert np.all(np.abs(meyer_mother_hat(np.linspace(-0.33, 0.33, 9))) == 0.0)
    assert meyer_mother_hat(1.4) == 0.0
    om = np.linspace(-1.5, 1.5, 300001)
    fhat, mhat = meyer_father_hat(om), meyer_mother_hat(om)
    assert np.trapezoid(fhat**2, om) == pytest.approx(1.0, abs=1e-8)
    assert np.trapezoid(np.abs(mhat) ** 2, om) == pytest.approx(1.0, abs=1e-8)


def test_partition_identity():
    # |father|^2 + sum_j |mother(xi / 2^j)|^2 = 1 on the covered band
    xi = np.linspace(-0.49, 0.49, 101)
    total = meyer_father_hat(xi) ** 2
    for j in range(3):
        total = total + np.abs(meyer_mother_hat(xi / 2**j)) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_wavelets_are_real():
    x = np.linspace(-3, 3, 41)
    assert np.max(np.abs(meyer_physical("F", x).imag)) < 1e-10
    assert np.max(np.abs(meyer_physical("M", x).imag)) < 1e-10


def test_index_set_structure():
    idx = wavelet_indices(2, 2)
    assert (0, ("F", "F")) in idx
    assert (1, ("F", "F")) not in idx
    assert (2, ("M", "F")) in idx
    # j = 0 contributes 1 label, each j >= 1 contributes 2^2 - 1 = 3
    assert len(idx) == 1 + 3 * 2


def test_orthonormality_against_family():
    # analyze sampled family members; coefficients must reproduce the identity
    worst = 0.0
    for j0, G0, b0 in [
        (0, ("F", "F"), (0, 1)),
        (1, ("M", "M"), (0, 0)),
        (2, ("M", "F"), (1, -2)),
    ]:
        m = sampled_wavelet(j0, G0, b0)
        coeffs = wavelet_coefficients(m, 2)
        for (j, G), table in coeffs.items():
            lam = 1.0 if j == 0 else 2.0 ** (j - 1)
            for beta, cval in table.items():
                if max(abs(b) / lam for b in beta) > 6.0:
                    continue  # translates at the box edge see the periodization
                target = 1.0 if (j, G, beta) == (j0, G0, b0) else 0.0
                worst = max(worst, abs(cval - target))
    assert worst <= 1e-5, f"orthonormality deviation {worst}"


def test_parseval_band_limited():
    F, res = 128, 16
    xs = np.arange(-F, F + 1) / res
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = np.exp(-(X**2 + Y**2) / (2 * 0.53**2)) * np.cos(2 * np.pi * 0.4 * X)
    m = SymbolGrid(2, F, vals, 1.0 / res)
    l2sq = float(np.sum(np.abs(m.values) ** 2) * m.cell_measure)
    total = sum(
        abs(c) ** 2 for table in wavelet_coefficients(m, 3).values() for c in table.values()
    )
    assert total == pytest.approx(l2sq, rel=0.01)


def test_real_symbol_gives_real_coefficients():
    F, res = 64, 8
    xs = np.arange(-F, F + 1) / res
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    m = SymbolGrid(2, F, np.exp(-(X**2 + Y**2)), 1.0 / res)
    coeffs = wavelet_coefficients(m, 2)
    worst = max(abs(c.imag) for table in coeffs.values() for c in table.values())
    assert worst < 1e-10


def test_zero_symbol_all_zero():
    m = SymbolGrid(2, 16, np.zeros((33, 33)), 1.0 / 8)
    coeffs = wavelet_coefficients(m, 1)
    assert all(c == 0 for table in coeffs.values() for c in table.values())


def test_lemma_ratio_scale_invariant_exactly():
    m = sampled_wavelet(1, ("M", "F"), (0, 0), F=64, res=8)
    coeffs = wavelet_coefficients(m, 1)
    coeffs7 = wavelet_coefficients(m.scaled(7.0), 1)
    r1 = lemma_discrete_ratio(m, 1, ("M", "F"), coeffs)
    r7 = lemma_discrete_ratio(m.scaled(7.0), 1, ("M", "F"), coeffs7)
    # the factor 7 cancels between numerator and denominator; only float
    # rounding of the scalar multiplications remains
    assert r7 == pytest.approx(r1, rel=1e-12)


def test_lemma_ratio_finite_single_bump():
    rng = np.random.default_rng(0)
    F, res = 64, 8
    xs = np.arange(-F, F + 1) / res
    bump = np.exp(-(xs**2) * 4.0)
    m = SymbolGrid(2, F, np.outer(bump, bump), 1.0 / res)
    r = lemma_discrete_ratio(m, 2, ("M", "M"))
    assert np.isfinite(r) and r >= 0.0


def test_incompatible_resolution_rejected():
    m = SymbolGrid(2, 16, np.ones((33, 33)), 1.0 / 10)  # 10 not divisible by 4
    with pytest.raises(ValueError):
        wavelet_coefficients(m, 3)


def criterion_9_draw(t, master_seed=20260824):
    """Lattice symbol t of the acceptance gate's criterion-9 wavelet corpus."""
    rng = substream(master_seed, t)
    M = int(rng.integers(1, 4))
    keep = rng.random((2 * M + 1, 2 * M + 1)) < 0.5
    vals = rng.standard_normal(keep.shape) + 1j * rng.standard_normal(keep.shape)
    entries = {
        (k - M, l - M): vals[k, l]
        for k in range(2 * M + 1)
        for l in range(2 * M + 1)
        if keep[k, l]
    }
    entries[(0, 0)] = entries.get((0, 0), 1.0 + 0.0j)
    return lattice_symbol(CoeffMatrix(entries), BumpSpec(radius=0.1, plateau=0.05), 16)


def coefficient_digest(coeffs: dict) -> str:
    """sha256 over every (j, G, beta) key and the float.hex of each coefficient, in dict order."""
    h = hashlib.sha256()
    for (j, G), table in coeffs.items():
        for beta, c in table.items():
            assert type(c) is complex
            h.update(f"{j} {''.join(G)} {beta} {c.real.hex()} {c.imag.hex()}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "t, digest",
    [
        (0, "6549768e5f94ced29f2b63c96eb98c6e8cf3d69444c3348df3d8360162f81138"),
        (1, "598a42017c11e18ea1ff83b7c4333e9a0a4111189a59d4ce15e56869963373e6"),
    ],
)
def test_corpus_coefficients_are_pinned(t, digest):
    assert coefficient_digest(wavelet_coefficients(criterion_9_draw(t), 4)) == digest


def dict_oracle(m: SymbolGrid, coeffs: dict) -> dict:
    """The {beta: coeff} dicts `wavelet_coefficients` once built from each gathered array."""
    res = round(1.0 / m.spacing)
    out = {}
    for (j, G), table in coeffs.items():
        stride = res // (1 if j == 0 else 2 ** (j - 1))
        beta_max = (m.radius - 1) // stride
        betas = range(-beta_max, beta_max + 1)
        sub = table.array
        out[(j, G)] = dict(zip(product(betas, repeat=m.dim), sub.ravel().tolist()))
    return out


def oracle_ratio(m: SymbolGrid, j: int, G: tuple, oracle: dict) -> float:
    """`lemma_discrete_ratio` as computed from a dict table."""
    a = np.array(list(oracle[(j, G)].values()))
    num = weak_quasinorm(MeasuredValues.of(a), 4.0)
    return 2.0 ** (j * m.n / 2.0) * num / weak_quasinorm(m.measured(), 4.0)


def assert_tables_match_the_oracle(m: SymbolGrid, j_max: int):
    coeffs = wavelet_coefficients(m, j_max)
    oracle = dict_oracle(m, coeffs)
    assert list(coeffs) == list(oracle)
    for key, table in coeffs.items():
        assert list(table) == list(oracle[key])  # key order
        assert all(type(c) is complex for c in table.values())
        bits = [(beta, c.real.hex(), c.imag.hex()) for beta, c in table.items()]
        assert bits == [(beta, c.real.hex(), c.imag.hex()) for beta, c in oracle[key].items()]
        assert lemma_discrete_ratio(m, *key, coeffs) == oracle_ratio(m, *key, oracle)


@pytest.mark.parametrize("t", range(10))
def test_corpus_tables_match_the_dict_oracle(t):
    assert_tables_match_the_oracle(criterion_9_draw(t), 4)


@settings(max_examples=25, deadline=None)
@given(radius=st.integers(1, 12), res_exp=st.integers(0, 3), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_small_symbol_tables_match_the_dict_oracle(radius, res_exp, data, seed):
    j_max = data.draw(st.integers(0, res_exp + 1))
    rng = np.random.default_rng(seed)
    shape = (2 * radius + 1,) * 2
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert_tables_match_the_oracle(SymbolGrid(2, radius, values, 2.0**-res_exp), j_max)


def test_table_is_a_read_only_mapping():
    table = wavelet_coefficients(criterion_9_draw(0), 2)[(2, ("M", "F"))]
    beta_max = (len(table.array) - 1) // 2
    assert len(table) == table.array.size == (2 * beta_max + 1) ** 2
    corner = (beta_max, -beta_max)
    assert corner in table and (0, 0) in table
    assert table[corner] == table.array[-1, 0] and type(table[corner]) is complex
    for outside in [(beta_max + 1, 0), (0, -beta_max - 1), (0,), (0, 0, 0), (0.0, 0), "ab", 3]:
        assert outside not in table
        with pytest.raises(KeyError):
            table[outside]
    assert table.get((beta_max + 1, 0)) is None
    assert not table.array.flags.writeable
    with pytest.raises(ValueError):
        table.array[0, 0] = 1.0
    with pytest.raises(TypeError):
        table[(0, 0)] = 1.0
