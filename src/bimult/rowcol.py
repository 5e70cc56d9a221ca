"""Row/column splitting of doubly-indexed coefficient families.

A finitely supported family f(k, l) with finite weak-l4 quasinorm can be
split into S1 (every row has bounded l2 mass) and S2 (every column has
bounded l2 mass).  `decompose` follows the constructive argument verbatim:
greedy per-row and per-column prefixes first, then a rank comparison of the
residual row and column maxima.  `necessity_lower_bound` gives the matching
obstruction for shell-monotone families that fail the weak-l4 condition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grid import _loads_finite, _number_columns
from .lorentz import MeasuredValues, weak_quasinorm

__all__ = [
    "CoeffMatrix",
    "Partition",
    "decompose",
    "verify_partition",
    "necessity_lower_bound",
]

S1 = "S1"
S2 = "S2"


@dataclass(frozen=True)
class CoeffMatrix:
    """Finitely supported map (k, l) -> complex; unstored entries are zero."""

    entries: dict = field(repr=False)

    def __post_init__(self):
        clean = {(int(k), int(l)): complex(v) for (k, l), v in self.entries.items()}
        object.__setattr__(self, "entries", clean)

    def weak4(self) -> float:
        """l^{4,inf} quasinorm of the coefficient family (counting measure)."""
        vals = np.array(list(self.entries.values())) if self.entries else np.array([])
        return weak_quasinorm(MeasuredValues.of(vals), 4.0)

    def scaled(self, c: complex) -> "CoeffMatrix":
        return CoeffMatrix({kl: c * v for kl, v in self.entries.items()})

    def to_json(self) -> str:
        rows = [
            [k, l, v.real, v.imag]
            for (k, l), v in sorted(self.entries.items())
        ]
        return json.dumps(rows)

    @classmethod
    def from_json(cls, text: str) -> "CoeffMatrix":
        """Inverse of `to_json`: [k, l, re, im] rows, each (k, l) at most once.  k and l
        are JSON ints; re and im are finite numbers as `grid.spectral_from_json` accepts."""
        refusal = "coefficient JSON must be a list of [int, int, finite number, finite number] rows"
        cols = _number_columns(_loads_finite(text, refusal), 4, n_int=2)
        if cols is None:
            raise ValueError(refusal)
        k, l, re, im = cols
        entries = dict(zip(zip(k, l), map(complex, re, im)))
        if len(entries) != len(k):
            raise ValueError("coefficient JSON repeats a (k, l) key")
        c = object.__new__(cls)  # entries are (int, int) -> complex already: no __post_init__
        c.__dict__["entries"] = entries
        return c


@dataclass(frozen=True)
class Partition:
    """Disjoint S1/S2 labeling of a support set."""

    labels: dict = field(repr=False)

    def __post_init__(self):
        for lab in self.labels.values():
            if lab not in (S1, S2):
                raise ValueError(f"invalid label {lab!r}")

    def to_json(self) -> str:
        rows = [[k, l, lab] for (k, l), lab in sorted(self.labels.items())]
        return json.dumps(rows)

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        return cls({(k, l): lab for k, l, lab in json.loads(text)})


def _greedy_lines(entries, by_row: bool):
    """Cells selected per line by the row (or column) greedy pass.

    A line with square-sum <= 2 joins wholesale.  Otherwise the minimal
    descending-magnitude prefix reaching square-sum 2 is taken; the prefix
    mass is then at most 1 + 2 = 3 since all magnitudes are <= 1.
    Stored zero entries join as well (they carry no mass).
    """
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


def _residual_ranks(entries, excluded, by_row: bool):
    """Rank lines by their residual maximum magnitude, descending, ties by index.

    Returns {line index -> rank i (1-based)} for lines with positive residual max.
    """
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


def decompose(f: CoeffMatrix) -> Partition:
    """Split the support of f into S1 (row-bounded) and S2 (column-bounded).

    The input is normalized to unit weak-l4 quasinorm first, so the output
    partition is scale invariant (up to index-based tie-breaking).
    """
    if not f.entries:
        return Partition({})
    norm = f.weak4()
    if norm == 0.0:
        # all-zero support: any labeling works, put everything in S1
        return Partition({kl: S1 for kl in f.entries})
    entries = {kl: v / norm for kl, v in f.entries.items()}

    s1_tilde = _greedy_lines(entries, by_row=True)
    s2_tilde = _greedy_lines(entries, by_row=False)

    row_rank = _residual_ranks(entries, s1_tilde, by_row=True)
    col_rank = _residual_ranks(entries, s2_tilde, by_row=False)

    labels = {}
    for (k, l) in entries:
        if (k, l) in s1_tilde:
            labels[(k, l)] = S1
        elif (k, l) in s2_tilde:
            labels[(k, l)] = S2
        else:
            # residual cell: both ranks exist by construction
            labels[(k, l)] = S1 if row_rank[k] >= col_rank[l] else S2
    return Partition(labels)


def verify_partition(f: CoeffMatrix, p: Partition) -> tuple[float, float]:
    """(max over rows of S1 square-sum, max over columns of S2 square-sum)."""
    if set(p.labels.keys()) != set(f.entries.keys()):
        raise ValueError("partition does not cover the support exactly")
    row_sums: dict = {}
    col_sums: dict = {}
    for (k, l), v in f.entries.items():
        m2 = abs(v) ** 2
        if p.labels[(k, l)] == S1:
            row_sums[k] = row_sums.get(k, 0.0) + m2
        else:
            col_sums[l] = col_sums.get(l, 0.0) + m2
    max_row = max(row_sums.values()) if row_sums else 0.0
    max_col = max(col_sums.values()) if col_sums else 0.0
    return float(max_row), float(max_col)


def necessity_lower_bound(f: CoeffMatrix, box_radius: int) -> float:
    """Lower bound for the constant achievable by ANY valid partition.

    Requires |f| non-increasing in max(|k|, |l|) on [-M, M]^2; summing both
    guaranteed line bounds over the box shows that no partition can do
    better than (sum of |f|^2 over the box) / (2 * (2M + 1)).
    """
    M = box_radius
    shell_vals: dict = {}
    total = 0.0
    for (k, l), v in f.entries.items():
        if abs(k) > M or abs(l) > M:
            continue
        s = max(abs(k), abs(l))
        mag = abs(v)
        shell_vals.setdefault(s, []).append(mag)
        total += mag * mag
    # monotonicity check: min of an inner shell must dominate max of any outer shell
    shells = sorted(shell_vals)
    running_min = np.inf
    for s in shells:
        lo, hi = min(shell_vals[s]), max(shell_vals[s])
        if hi > running_min + 1e-12:
            raise ValueError("monotonicity in max(|k|,|l|) violated")
        running_min = min(running_min, lo)
    return total / (2.0 * (2 * M + 1))
