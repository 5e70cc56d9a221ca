"""Row/column splitting: guarantee corpus, symmetry, necessity obstruction, and the
array implementation against the dict-walking one it replaced."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "text",
    [
        '[[0, 0, "S1"], [0, 0, "S2"]]',  # read as {(0, 0): "S2"} before
        '[[0.5, 0, "S1"]]',  # read as key 0
        '[[true, 0, "S1"]]',  # read as key 1
        "[1]",  # a TypeError before
        '[[0, 0, "S3"]]',
        '[[0, 0]]',
        '{"0": "S1"}',
        f'[[{2**63}, 0, "S1"]]',
    ],
    ids=["repeated-key", "float-key", "bool-key", "not-a-row", "bad-label", "short-row",
         "object", "outside-int64"],
)
def test_partition_json_refuses_bad_rows(text):
    with pytest.raises(ValueError):
        Partition.from_json(text)


def test_arrays_are_read_only():
    """`scaled` and `decompose` share f's key arrays, so none may be edited in place."""
    f = random_matrix(5)
    g, part = f.scaled(2.0), decompose(f)
    h, q = CoeffMatrix.from_json(f.to_json()), Partition(part.labels)
    for a in (f.k, f.l, f.v, g.k, g.l, g.v, part.k, part.l, part.s1, h.k, h.l, h.v, q.k, q.s1):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


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


def test_bench_input_partition_is_pinned():
    # the 16,641-cell input of the round-trip benchmark
    part = decompose(power_shell_sequence(64, 0.125).coeff_matrix())
    assert hashlib.sha256(part.to_json().encode()).hexdigest() == (
        "422ee860a6a3b90db679039de25e206252942205c5a377adf80d799e227a3841"
    )


def test_array_magnitudes_match_python_abs():
    """`decompose` takes |v / norm| as np.hypot(v.real / norm, v.imag / norm), which is
    Python's abs(complex(v) / norm) bit for bit.  np.abs(v / norm) is not: numpy's
    complex division multiplies by a reciprocal, and it differed from Python on 90,862
    of 200,000 standard normal draws with norms uniform in [0.5, 5]."""
    rng = np.random.default_rng(11)
    n = 4000
    tiny = 5e-324 * rng.integers(-(2**52), 2**52, (2, n)).astype(float)  # subnormal parts
    big = np.finfo(float).max * rng.uniform(-1, 1, (2, n))
    cases = [  # (real parts, imaginary parts, norms)
        (*rng.standard_normal((2, n)), rng.uniform(0.5, 5, n)),
        (*tiny, np.where(rng.random(n) < 0.5, 1.0, 10.0 ** rng.uniform(-310, 0, n))),
        (*big, np.finfo(float).max * rng.uniform(0.75, 1, n)),
    ]
    for re, im, norm in cases:
        triples = zip(re.tolist(), im.tolist(), norm.tolist())
        expected = [abs(complex(a, b) / c) for a, b, c in triples]
        assert np.hypot(re / norm, im / norm).tolist() == expected


# ---------------------------------------------------------------------------
# oracle: the dict implementation that walked the entries cell by cell


def _oracle_greedy_lines(entries, by_row: bool):
    lines: dict = {}
    for (k, l), v in entries.items():
        key, other = (k, l) if by_row else (l, k)
        lines.setdefault(key, []).append((other, abs(v)))
    selected = set()
    for key, cells in lines.items():
        total = sum(mag * mag for _, mag in cells)
        if total <= 2.0:
            chosen = [other for other, _ in cells]
        else:
            ranked = sorted(cells, key=lambda c: (-c[1], c[0]))
            chosen = []
            acc = 0.0
            for other, mag in ranked:
                if acc >= 2.0:
                    break
                chosen.append(other)
                acc += mag * mag
            chosen += [other for other, mag in cells if mag == 0.0 and other not in chosen]
        for other in chosen:
            selected.add((key, other) if by_row else (other, key))
    return selected


def _oracle_residual_ranks(entries, excluded, by_row: bool):
    residual_max: dict = {}
    for (k, l), v in entries.items():
        if (k, l) in excluded:
            continue
        key = k if by_row else l
        mag = abs(v)
        if mag > residual_max.get(key, 0.0):
            residual_max[key] = mag
    order = sorted(
        (key for key, mag in residual_max.items() if mag > 0.0),
        key=lambda key: (-residual_max[key], key),
    )
    return {key: i + 1 for i, key in enumerate(order)}


def _oracle_decompose(f: dict) -> dict:
    if not f:
        return {}
    norm = CoeffMatrix(f).weak4()
    if norm == 0.0:
        return {kl: S1 for kl in f}
    entries = {kl: v / norm for kl, v in f.items()}
    s1_tilde = _oracle_greedy_lines(entries, by_row=True)
    s2_tilde = _oracle_greedy_lines(entries, by_row=False)
    row_rank = _oracle_residual_ranks(entries, s1_tilde, by_row=True)
    col_rank = _oracle_residual_ranks(entries, s2_tilde, by_row=False)
    labels = {}
    for (k, l) in entries:
        if (k, l) in s1_tilde:
            labels[(k, l)] = S1
        elif (k, l) in s2_tilde:
            labels[(k, l)] = S2
        else:
            labels[(k, l)] = S1 if row_rank[k] >= col_rank[l] else S2
    return labels


def _oracle_verify_partition(f: dict, labels: dict) -> tuple[float, float]:
    row_sums: dict = {}
    col_sums: dict = {}
    for (k, l), v in f.items():
        m2 = abs(v) ** 2
        if labels[(k, l)] == S1:
            row_sums[k] = row_sums.get(k, 0.0) + m2
        else:
            col_sums[l] = col_sums.get(l, 0.0) + m2
    max_row = max(row_sums.values()) if row_sums else 0.0
    max_col = max(col_sums.values()) if col_sums else 0.0
    return float(max_row), float(max_col)


def _oracle_partition_json(labels: dict) -> str:
    return json.dumps([[k, l, lab] for (k, l), lab in sorted(labels.items())])


def _oracle_necessity_lower_bound(f: dict, M: int) -> float:
    shell_vals: dict = {}
    total = 0.0
    for (k, l), v in f.items():
        if abs(k) > M or abs(l) > M:
            continue
        s = max(abs(k), abs(l))
        mag = abs(v)
        shell_vals.setdefault(s, []).append(mag)
        total += mag * mag
    running_min = np.inf
    for s in sorted(shell_vals):
        lo, hi = min(shell_vals[s]), max(shell_vals[s])
        if hi > running_min + 1e-12:
            raise ValueError("monotonicity in max(|k|,|l|) violated")
        running_min = min(running_min, lo)
    return total / (2.0 * (2 * M + 1))


# zeros of both signs, ties, dyadic parts whose squares add exactly, and parts near
# 1e-170 whose square underflows
_PART = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.25, 0.125, 1e-170, -3e-170, 5e-324]
) | st.floats(-2.0, 2.0)
_CELL = st.tuples(st.integers(-4, 4), st.integers(-4, 4), _PART, _PART)


@st.composite
def _coefficients(draw) -> dict:
    """Short lines on [-4, 4]^2 (negative keys), and maybe one long row at k = -7."""
    cells = draw(st.lists(_CELL, max_size=40))
    long_row = draw(st.lists(st.tuples(_PART, _PART), max_size=80))
    cells += [(-7, l, re, im) for l, (re, im) in enumerate(long_row, -2)]
    return {(k, l): complex(re, im) for k, l, re, im in cells}


def _heavy_block(n: int, d: int, seed: int) -> dict:
    """An n x n block holding the magnitudes ceil(j / d)^(-1/4), j = 1..n^2, in a random
    order: rows and columns near square-sum 2, so that some cells fall to neither
    greedy pass and the residual ranks decide them, with ties when d > 1."""
    order = np.random.default_rng(seed).permutation(n * n)
    return {(i // n - 3, i % n - 6): complex(((j + d) // d) ** -0.25)
            for i, j in enumerate(order.tolist())}


_heavy_blocks = st.builds(_heavy_block, st.integers(10, 16), st.integers(1, 3),
                          st.integers(0, 2**32))


def _row(values) -> dict:
    return {(0, l): complex(v) for l, v in enumerate(values)}


# Rows (norm 1, or 5 for the last) whose square-sums land exactly on 2.0.  A cell the
# row does not choose goes to S2: its column holds nothing else.
_TWO_EXACTLY = _row([1.0, 0.5, 0.5, 0.5, 0.5])  # chosen wholesale
_PREFIX_AT_TWO = _row([1.0, 0.5, 0.5, 0.5, 0.5, 0.5])  # the prefix stops at 2.0: last cell S2
# 2.0 when added in entry order, so wholesale; added pairwise, as np.sum adds, more than
# 2.0, and then the prefix leaves 1e-9 out
_SUMS_TO_TWO = _row([1.0, 0.325, 0.274, 0.422, 0.328, 0.39, 0.385, 0.299, 0.236,
                     0.29700000000000015, 1e-9])
# |v / 5| squared sums to 2.0; |v * (1 / 5)| squared, from numpy's complex division, to
# more, and then the prefix leaves 1e-9 out
_DIVIDES_TO_TWO = _row([5.0, 1.549, 1.6, 1.148, 1.084, 1.973, 2.137, 1.923, 1.418,
                        1.8383383801683526, 1e-9])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_coefficients() | _heavy_blocks)
@example({})
@example({(0, 0): 0j, (-1, 3): -0j, (2, 2): 0j})
@example(_TWO_EXACTLY)
@example({**_TWO_EXACTLY, (3, 1): 0.5 + 0j, (1, 1): 0.25j})
@example(_PREFIX_AT_TWO)
@example(_SUMS_TO_TWO)
@example(_DIVIDES_TO_TWO)
@example(_heavy_block(12, 3, 175))  # tied residual maxima: ranked by line index
@example({(0, j): complex(1e-170 * (j % 3)) for j in range(-6, 6)})
def test_arrays_match_the_dict_oracle(f):
    c = CoeffMatrix(f)
    part = decompose(c)
    labels = _oracle_decompose(f)
    assert part.labels == labels
    assert part.to_json() == _oracle_partition_json(labels)
    assert verify_partition(c, part) == _oracle_verify_partition(f, labels)
    assert verify_partition(c, Partition.from_json(part.to_json())) == verify_partition(c, part)
    for M in (0, 2, 7):
        try:
            expected = _oracle_necessity_lower_bound(f, M)
        except ValueError:
            with pytest.raises(ValueError):
                necessity_lower_bound(c, M)
        else:
            assert necessity_lower_bound(c, M) == expected
