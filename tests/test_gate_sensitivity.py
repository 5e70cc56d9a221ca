"""Absolute anchors for the operator ratio, and the mis-scaled operators they catch.

The acceptance gate compares ratios with baselines the same operator computes, so a
uniform factor in the ratio's numerator or denominator cancels there.  These anchors
are ratios known in closed form:

- the identity symbol m = 1 gives T(f, g) = f g; for single exponentials |f g| = 1,
  so ||T(f, g)||_1 = L^n = ||f||_2 ||g||_2 on the torus [0, L)^n, and the ratio is 1,
  both from `operator_ratio` and from `bimult apply` on a symbol file;
- the lattice single-bump baseline: T(delta, delta) is the constant m(0, 0) = 1 on the
  unit torus, ||delta||_2 = 1, and one unit coefficient has weak-l4 norm 1;
- the fourier_compact single-bump baseline at resolution 10 is sqrt(10): the ratio is
  the same 1, and the bump's only nonzero sample is m(0, 0) = 1 (the others lie on
  the support boundary), so the weak-l4 norm of the samples, cell measure 1/100, is
  (1/100)^(1/4);
- the sign pool's ratios equal `operator_ratio` of the rebuilt signed block symbol, bit
  for bit, so each quotient is 1.

The besov baseline (1.5249...) is left unanchored: its norm sums the weak-l4 norms of
FFT-filtered dyadic pieces, which have no closed form.

Each mutant scales the operator ratio, or the pool's ratios, by a constant.  The mutants
are applied wherever the package refers to the function, as a one-line edit of its body
would be.
"""

import math

import json

import numpy as np
import pytest

import bimult
from bimult.bilinear import SymbolGrid, operator_ratio
from bimult.cli import run, write_symbol
from bimult.symbols import CounterexampleAConfig, CounterexampleBConfig
from bimult.experiments import _single_bump_baseline
from bimult.grid import FrequencyBox, SpectralVector, spectral_to_json

TOL = 1e-12
# (dim n, input radius F, period L, lattice points p and q of the two exponentials)
_EXPONENTIALS = [(1, 3, 1.0, (2,), (-3,)), (1, 4, 2.0, (0,), (1,)), (2, 2, 0.5, (1, -2), (0, 2))]


def _exponential_pairs():
    """(identity symbol, f, g) with f and g single exponentials on a box of radius F."""
    for n, F, L, p, q in _EXPONENTIALS:
        box = FrequencyBox(n, F, 2, L)
        f, g = np.zeros(box.lattice_shape, complex), np.zeros(box.lattice_shape, complex)
        f[tuple(np.add(p, F))] = 1.0
        g[tuple(np.add(q, F))] = 1.0
        m = SymbolGrid(2 * n, F, np.ones((2 * F + 1,) * (2 * n)), spacing=1.0 / L)
        yield m, SpectralVector(box, f), SpectralVector(box, g)


def _library_identity(tmp_path) -> list[float]:
    return [operator_ratio(m, f, g) for m, f, g in _exponential_pairs()]


def _cli_identity(tmp_path) -> list[float]:
    ratios = []
    for i, (m, f, g) in enumerate(_exponential_pairs()):
        paths = [str(tmp_path / f"{name}{i}") for name in ("sym.bin", "f.json", "g.json", "out")]
        write_symbol(paths[0], m, {})
        for path, vec in zip(paths[1:3], (f, g)):
            with open(path, "w") as fh:
                fh.write(spectral_to_json(vec))
        argv = ["apply", "--symbol", paths[0], "--f", paths[1], "--g", paths[2], "--out", paths[3]]
        assert run(argv) == 0
        with open(paths[3]) as fh:
            ratios.append(json.load(fh)["operatorRatio"])
    return ratios


def _lattice_single_bump(tmp_path) -> list[float]:
    return [_single_bump_baseline("lattice", resolution) for resolution in (10, 16)]


def _fourier_compact_single_bump(tmp_path) -> list[float]:
    return [_single_bump_baseline("fourier_compact", 10) / math.sqrt(10)]


_POOL_BLOCKS = [
    (CounterexampleAConfig(block_b=(4,), dstar_exponent=0.125, master_seed=3), 1),
    (CounterexampleBConfig(mode="desk", Ns=(1,), master_seed=3), 1),
]


def _pool_over_rebuild(tmp_path) -> list[float]:
    quotients = []
    for cfg, key in _POOL_BLOCKS:
        f = cfg.test_function(key)
        pool = bimult.experiments._sign_pool_ratios(cfg, key, f, 3)
        for d, ratio in enumerate(pool):
            m = cfg.block_symbol(key, cfg.block_seed(key, d))
            quotients.append(ratio / operator_ratio(m, f, f))
    return quotients


ANCHORS = {
    "identity-operator_ratio": _library_identity,
    "identity-cli-apply": _cli_identity,
    "lattice-single-bump": _lattice_single_bump,
    "fourier_compact-single-bump": _fourier_compact_single_bump,
    "pool-vs-rebuild": _pool_over_rebuild,
}


@pytest.mark.parametrize("anchor", ANCHORS)
def test_anchor_ratio_is_one(tmp_path, anchor):
    ratios = ANCHORS[anchor](tmp_path)
    assert all(abs(r - 1.0) <= TOL for r in ratios), ratios


def _scaled(factor):
    def mutate(fn):
        return lambda *args: fn(*args) * factor
    return mutate


def _scaled_each(factor):
    def mutate(fn):
        return lambda *args, **kwargs: [r * factor for r in fn(*args, **kwargs)]
    return mutate


# (module, function, mutation, the anchors that must see it); an operator mutant
# moves every anchor, a pool mutant only the pool's
MUTANTS = {
    "_input_norms-times-1.5": ("bilinear", "_input_norms", _scaled(1.5), ANCHORS),
    "_input_norms-over-1.5": ("bilinear", "_input_norms", _scaled(1 / 1.5), ANCHORS),
    "l1_norm-times-1.5": ("grid", "l1_norm", _scaled(1.5), ANCHORS),
    "l1_norm-over-1.5": ("grid", "l1_norm", _scaled(1 / 1.5), ANCHORS),
    "_sign_pool_ratios-times-1.5": ("experiments", "_sign_pool_ratios", _scaled_each(1.5),
                                    ["pool-vs-rebuild"]),
    "_sign_pool_ratios-over-1.5": ("experiments", "_sign_pool_ratios", _scaled_each(1 / 1.5),
                                   ["pool-vs-rebuild"]),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_every_anchor_fails_under_mutant(tmp_path, monkeypatch, mutant):
    home, name, mutate, anchors = MUTANTS[mutant]
    original = getattr(getattr(bimult, home), name)
    patched = mutate(original)
    modules = [getattr(bimult, m) for m in ("bilinear", "cli", "experiments", "grid")]
    for module in modules:
        if module.__dict__.get(name) is original:
            monkeypatch.setattr(module, name, patched)
    for anchor in anchors:
        (tmp_path / anchor).mkdir()  # a fresh directory each: no overwrite refusal
        ratios = ANCHORS[anchor](tmp_path / anchor)
        assert any(abs(r - 1.0) > TOL for r in ratios), f"{anchor} misses {mutant}: {ratios}"
