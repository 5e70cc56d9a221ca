"""Spectral grid: synthesis, norms, serialization."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimult.grid import (
    FrequencyBox,
    SpectralVector,
    l1_norm,
    l2_norm,
    spectral_from_json,
    spectral_to_json,
    synthesize,
    synthesize_direct,
)
from bimult.rowcol import CoeffMatrix


def random_spectral(box, seed):
    rng = np.random.default_rng(seed)
    shape = box.lattice_shape
    return SpectralVector(box, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_box_counts():
    box = FrequencyBox(2, 3, oversample=4, period=2.0)
    assert box.n_lattice == 7
    assert box.lattice_shape == (7, 7)
    assert box.phys_shape == (28, 28)
    assert box.cell_measure == pytest.approx((2.0 / 28) ** 2)


def test_box_validation():
    with pytest.raises(ValueError):
        FrequencyBox(0, 3)
    with pytest.raises(ValueError):
        FrequencyBox(1, -1)
    with pytest.raises(ValueError):
        FrequencyBox(1, 3, oversample=0)


def test_synthesize_matches_direct_sum():
    for dim in (1, 2):
        box = FrequencyBox(dim, 4, oversample=3, period=1.5)
        f = random_spectral(box, 11 + dim)
        fast = synthesize(f).samples
        slow = synthesize_direct(f).samples
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_plancherel_exact():
    box = FrequencyBox(2, 5, oversample=2, period=3.0)
    f = random_spectral(box, 7)
    phys = synthesize(f)
    # rectangle-rule L2 of the samples equals the coefficient-side L2 exactly
    quad = np.sqrt(np.sum(np.abs(phys.samples) ** 2) * box.cell_measure)
    assert quad == pytest.approx(l2_norm(f), rel=1e-12)
    assert l2_norm(f) == pytest.approx(
        np.linalg.norm(f.values) * box.period ** (box.dim / 2), rel=1e-14
    )


# a magnitude whose square is a normal float: the unscaled formula neither overflows nor
# loses bits to underflow where it matters
in_range = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 2), radius=st.integers(1, 3),
       period=st.sampled_from([0.5, 1.0, 3.0]))
def test_l2_norm_keeps_the_bits_of_the_unscaled_norm(data, dim, radius, period):
    box = FrequencyBox(dim, radius, period=period)
    n = box.n_lattice**dim
    parts = np.array(data.draw(st.lists(in_range, min_size=2 * n, max_size=2 * n)))
    values = (parts[0::2] + 1j * parts[1::2]).reshape(box.lattice_shape)
    values = data.draw(st.sampled_from([values, values.T.copy().T]))  # C or Fortran order
    unscaled = float(np.linalg.norm(values)) * period ** (dim / 2)
    assert l2_norm(SpectralVector(box, values)).hex() == unscaled.hex()


@pytest.mark.parametrize("value, expected", [(1e160, 5**0.5 * 1e160), (1e-170, 5**0.5 * 1e-170),
                                             (1e308j, np.inf), (5e-324, 1e-323)],
                         ids=["squares-overflow", "squares-underflow", "norm-overflows",
                              "subnormal"])
def test_l2_norm_where_the_squares_leave_the_float_range(value, expected):
    # unscaled, 1e160 and 1e-170 at 5 points gave inf and 0.0
    f = SpectralVector(FrequencyBox(1, 2, 2, 1.0), np.full(5, value))
    assert l2_norm(f) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_l1_le_l2_on_probability_measure():
    # with period 1 the torus has unit measure, so ||u||_1 <= ||u||_2
    box = FrequencyBox(1, 8, oversample=4, period=1.0)
    f = random_spectral(box, 3)
    assert l1_norm(synthesize(f)) <= l2_norm(f) + 1e-12


def test_single_mode_field():
    box = FrequencyBox(1, 2, oversample=4, period=1.0)
    vals = np.zeros(5, dtype=complex)
    vals[box.radius + 1] = 1.0  # frequency 1/L
    u = synthesize(SpectralVector(box, vals)).samples
    x = np.arange(box.n_phys) * box.period / box.n_phys
    assert np.allclose(u, np.exp(2j * np.pi * x / box.period), atol=1e-12)


def test_shape_mismatch_rejected():
    box = FrequencyBox(2, 2)
    with pytest.raises(ValueError):
        SpectralVector(box, np.zeros((5, 7)))


def test_json_round_trip():
    box = FrequencyBox(2, 2, oversample=5, period=2.5)
    f = random_spectral(box, 19)
    g = spectral_from_json(spectral_to_json(f))
    assert g.box == box
    assert np.array_equal(g.values, f.values)



# JSON numbers either parser accepts: finite floats with their edge cases, and ints up
# to the largest float (complex(re, im) rounds those); both parsers share one check
_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
                -sys.float_info.max]
json_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(-int(sys.float_info.max), int(sys.float_info.max)),
    st.integers(-(2**54), 2**54),
)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()  # tells -0.0 from 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 2), radius=st.integers(1, 3))
def test_spectral_json_round_trip_is_bit_exact(data, dim, radius):
    box = FrequencyBox(dim, radius, oversample=3, period=0.5)
    size = box.n_lattice**dim
    pairs = data.draw(st.lists(st.tuples(json_numbers, json_numbers), min_size=size,
                               max_size=size))
    payload = json.loads(spectral_to_json(SpectralVector(box, np.zeros(box.lattice_shape))))
    payload["values"] = [list(p) for p in pairs]
    spec = spectral_from_json(json.dumps(payload))
    expected = np.array([complex(re, im) for re, im in pairs]).reshape(box.lattice_shape)
    assert spec.box == box and spec.values.dtype == complex
    assert np.array_equal(spec.values.view(np.uint64), expected.view(np.uint64))
    back = spectral_from_json(spectral_to_json(spec))
    assert back.box == box
    assert np.array_equal(back.values.view(np.uint64), spec.values.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-(2**63), 2**63 - 1), st.integers(-3, 3)),
                       st.tuples(json_numbers, json_numbers), max_size=12))
def test_coeff_json_round_trip_is_bit_exact(rows):
    c = CoeffMatrix.from_json(json.dumps([[k, l, re, im] for (k, l), (re, im) in rows.items()]))
    assert {kl: _bits(v) for kl, v in c.entries.items()} == {
        kl: _bits(complex(re, im)) for kl, (re, im) in rows.items()
    }
    back = CoeffMatrix.from_json(c.to_json())
    assert {kl: _bits(v) for kl, v in back.entries.items()} == {
        kl: _bits(v) for kl, v in c.entries.items()
    }
    for entries in (c.entries, back.entries):
        assert all(type(k) is int and type(l) is int for k, l in entries)
        assert all(type(v) is complex for v in entries.values())
