"""Rearrangements and weak Lorentz quasinorms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimult.lorentz import MeasuredValues, weak_quasinorm

finite_vals = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40
)


def test_rearrangement_sorted_and_breakpoints():
    # rearranged to 3, 2, 1, 0 at breakpoints 0.5, 1, 1.5, 2: the sup
    # max(3 * 0.5^(1/4), 2 * 1, 1 * 1.5^(1/4), 0) is at the first breakpoint
    v = MeasuredValues.of(np.array([3.0, -1.0, 2.0, 0.0]), cell_measure=0.5)
    assert weak_quasinorm(v, 4.0) == 3 * 0.5**0.25


def test_weak_quasinorm_single_atom():
    # one value a on a cell of measure mu: quasinorm = a * mu^(1/q)
    v = MeasuredValues.of(np.array([5.0]), cell_measure=0.25)
    assert weak_quasinorm(v, 4.0) == pytest.approx(5.0 * 0.25**0.25)


def test_weak_quasinorm_flat_sequence():
    # j equal values of size 1 on unit cells: sup_j j^(1/4) * 1 at j = n
    v = MeasuredValues.of(np.ones(16))
    assert weak_quasinorm(v, 4.0) == pytest.approx(2.0)


@given(finite_vals, st.floats(min_value=0.1, max_value=10))
@settings(max_examples=80, deadline=None)
def test_weak_below_strong(vals, cell):
    v = MeasuredValues.of(np.array(vals), cell_measure=cell)
    l4 = (np.sum(np.abs(vals) ** 4.0) * cell) ** 0.25
    assert weak_quasinorm(v, 4.0) <= l4 + 1e-9


@given(finite_vals, st.floats(min_value=0.1, max_value=100))
@settings(max_examples=80, deadline=None)
def test_weak_quasinorm_homogeneous(vals, c):
    v = MeasuredValues.of(np.array(vals))
    w = MeasuredValues.of(c * np.array(vals))
    assert weak_quasinorm(w, 4.0) == pytest.approx(c * weak_quasinorm(v, 4.0), rel=1e-9, abs=1e-12)


@given(finite_vals)
@settings(max_examples=80, deadline=None)
def test_quasinorm_from_level_sets(vals):
    # sup over observed levels of lam * |{|v| > lam}|^(1/4) never exceeds the
    # breakpoint formula, and is attained on the sorted profile
    v = MeasuredValues.of(np.array(vals), cell_measure=0.7)
    q = weak_quasinorm(v, 4.0)
    for lam in np.abs(vals):
        if lam > 0:
            level = 0.7 * np.count_nonzero(np.abs(vals) > lam * 0.999999)  # strict inequality
            assert 0.999999 * lam * level**0.25 <= q + 1e-9
