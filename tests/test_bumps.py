"""Smooth bump profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimult.bumps import BumpSpec, smooth_step


def test_smooth_step_endpoints():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(2.0) == 1.0
    assert 0.0 < smooth_step(0.5) < 1.0


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=50, deadline=None)
def test_smooth_step_monotone(t):
    eps = 0.005
    assert smooth_step(t + eps) >= smooth_step(t - eps)


def test_mollifier_support_and_peak():
    psi = BumpSpec(radius=0.1)
    assert psi.profile(0.0) == pytest.approx(1.0)
    assert psi.profile(0.1) == 0.0
    assert psi.profile(0.2) == 0.0
    assert 0.0 < psi.profile(0.05) < 1.0


def test_plateau_bump_is_one_inside():
    psi = BumpSpec(radius=0.1, plateau=0.05)
    assert np.all(psi.profile(np.array([0.0, 0.02, 0.05])) == 1.0)
    assert psi.profile(0.1) == 0.0
    mid = psi.profile(0.075)
    assert 0.0 < mid < 1.0


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        BumpSpec(radius=0.0)
    with pytest.raises(ValueError):
        BumpSpec(radius=0.1, plateau=0.1)


def test_profile_even():
    psi = BumpSpec(radius=0.3)
    u = np.linspace(-0.29, 0.29, 31)
    assert np.allclose(psi.profile(u), psi.profile(-u))
