"""Row/column splitting: guarantee corpus, symmetry, necessity obstruction."""

import numpy as np
import pytest

from bimult.rowcol import (
    S1,
    S2,
    CoeffMatrix,
    Partition,
    decompose,
    necessity_lower_bound,
    verify_partition,
)
from bimult.symbols import power_shell_sequence

ALLOWED_CONST_SQ = 6.25  # C = 2.5; the construction provably achieves 2.0


def random_matrix(seed):
    """One corpus draw: uniform, heavy-tailed, or shell-monotone magnitudes."""
    rng = np.random.default_rng(seed)
    law = seed % 3
    size = int(rng.integers(2, 65))
    if law == 2:
        M = int(rng.integers(1, 12))
        return power_shell_sequence(M, float(rng.uniform(0.05, 0.5))).coeff_matrix()
    density = rng.uniform(0.05, 0.6)
    keep = rng.random((size, size)) < density
    if law == 0:
        mags = rng.uniform(0, 1, (size, size))
    else:
        mags = rng.pareto(1.5, (size, size)) + 0.1
    phases = np.exp(2j * np.pi * rng.random((size, size)))
    entries = {
        (k, l): mags[k, l] * phases[k, l]
        for k in range(size)
        for l in range(size)
        if keep[k, l]
    }
    entries[(0, 0)] = entries.get((0, 0), mags[0, 0] + 0j)  # never empty
    return CoeffMatrix(entries)


def test_single_entry_goes_to_s1():
    part = decompose(CoeffMatrix({(3, 5): 2.0}))
    assert part.labels == {(3, 5): S1}


def test_empty_matrix():
    assert decompose(CoeffMatrix({})).labels == {}


def test_verify_partition_requires_exact_cover():
    f = CoeffMatrix({(0, 0): 1.0, (0, 1): 1.0})
    with pytest.raises(ValueError):
        verify_partition(f, Partition({(0, 0): S1}))


def test_guarantee_corpus_500():
    worst = 0.0
    for seed in range(500):
        f = random_matrix(seed)
        part = decompose(f)
        max_row, max_col = verify_partition(f, part)
        bound = ALLOWED_CONST_SQ * f.weak4() ** 2
        assert max_row <= bound + 1e-9, f"seed {seed}: row sum {max_row} > {bound}"
        assert max_col <= bound + 1e-9, f"seed {seed}: col sum {max_col} > {bound}"
        worst = max(worst, max_row / f.weak4() ** 2, max_col / f.weak4() ** 2)
    # report the empirical constant for the record
    print(f"\nempirical worst constant^2 over corpus: {worst:.4f}")
    assert worst <= ALLOWED_CONST_SQ


def test_homogeneity_of_labels():
    # scaling the matrix leaves the partition unchanged (normalization inside)
    f = random_matrix(17)
    assert decompose(f).labels == decompose(f.scaled(37.5)).labels


def test_transpose_symmetry_of_bounds():
    # transposing swaps the roles of rows and columns; the guarantee persists
    f = random_matrix(23)
    ft = CoeffMatrix({(l, k): v for (k, l), v in f.entries.items()})
    max_row, max_col = verify_partition(ft, decompose(ft))
    bound = ALLOWED_CONST_SQ * ft.weak4() ** 2
    assert max(max_row, max_col) <= bound + 1e-9


def test_matrix_json_round_trip():
    f = random_matrix(5)
    g = CoeffMatrix.from_json(f.to_json())
    assert g.entries == f.entries
    part = decompose(f)
    assert Partition.from_json(part.to_json()).labels == part.labels


def test_necessity_monotonicity_enforced():
    bad = CoeffMatrix({(0, 0): 0.5, (1, 1): 1.0})  # inner shell smaller than outer
    with pytest.raises(ValueError):
        necessity_lower_bound(bad, 1)


def test_necessity_strictly_increasing_slow_decay():
    # magnitudes (shell rank)^(-1/8 * 2): slow enough that no split works
    vals = [
        necessity_lower_bound(power_shell_sequence(M, 0.125).coeff_matrix(), M)
        for M in (8, 16, 32, 64)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for M, v in zip((8, 16, 32, 64), vals):
        assert v > 0.3 * (2 * M + 1) ** 0.5


def test_necessity_bounded_fast_decay():
    vals = [
        necessity_lower_bound(power_shell_sequence(M, 0.25).coeff_matrix(), M)
        for M in (8, 16, 32, 64)
    ]
    assert max(vals) < 3.0
