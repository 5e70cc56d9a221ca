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

import numpy as np

from .grid import _loads_finite, _number_columns
from .lorentz import MeasuredValues, weak_quasinorm

__all__ = ["CoeffMatrix", "Partition", "decompose", "verify_partition", "necessity_lower_bound"]

S1 = "S1"
S2 = "S2"


def _keys(columns) -> tuple[np.ndarray, np.ndarray]:
    """The key columns k and l as int64 arrays; a ValueError outside int64 or if a (k, l)
    repeats."""
    try:
        k, l = np.array(list(columns) or [(), ()], dtype=np.int64)
    except OverflowError:
        raise ValueError("coefficient keys must lie in signed 64-bit") from None
    o = np.lexsort((l, k))
    if np.any((k[o][1:] == k[o][:-1]) & (l[o][1:] == l[o][:-1])):
        raise ValueError("a (k, l) key repeats")
    return k, l


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, set read-only: objects that share key arrays cannot edit each other."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


class CoeffMatrix:
    """Finitely supported map (k, l) -> complex; unstored entries are zero.  Held as
    arrays in entry order: int64 keys `k` and `l`, complex128 values `v`; `entries`
    builds the {(k, l): v} dict on demand."""

    __slots__ = ("k", "l", "v")

    def __init__(self, entries: dict):
        clean = {(int(k), int(l)): complex(v) for (k, l), v in entries.items()}
        k, l = _keys(zip(*clean))
        self.k, self.l, self.v = _read_only(k, l, np.array(list(clean.values()), dtype=complex))

    @classmethod
    def _of(cls, k: np.ndarray, l: np.ndarray, v: np.ndarray) -> "CoeffMatrix":
        """From int64 keys without repeats and complex128 values, taken as they are."""
        c = object.__new__(cls)
        c.k, c.l, c.v = _read_only(k, l, v)
        return c

    @property
    def entries(self) -> dict:
        return dict(zip(zip(self.k.tolist(), self.l.tolist()), self.v.tolist()))

    def weak4(self) -> float:
        """l^{4,inf} quasinorm of the coefficient family (counting measure)."""
        return weak_quasinorm(MeasuredValues.of(self.v), 4.0)

    def scaled(self, c: complex) -> "CoeffMatrix":
        return CoeffMatrix._of(self.k, self.l, c * self.v)

    def to_json(self) -> str:
        o = np.lexsort((self.l, self.k))  # (k, l) order, as sorted() gives
        rows = zip(self.k[o].tolist(), self.l[o].tolist(), self.v[o].tolist())
        return json.dumps([[k, l, v.real, v.imag] for k, l, v in rows])

    @classmethod
    def from_json(cls, text: str) -> "CoeffMatrix":
        """Inverse of `to_json`: [k, l, re, im] rows, each (k, l) at most once.  k and l
        are JSON ints in signed 64-bit; re and im are finite numbers as
        `grid.spectral_from_json` accepts."""
        refusal = "coefficient JSON must be a list of [int, int, finite number, finite number] rows"
        cols = _number_columns(_loads_finite(text, refusal), 4, n_int=2)
        if cols is None:
            raise ValueError(refusal)
        k, l = _keys(cols[:2])
        v = np.array(cols[2:], dtype=float).T.copy().view(complex).reshape(-1)
        return cls._of(k, l, v)


class Partition:
    """Disjoint S1/S2 labeling of a support set: int64 keys `k`, `l` and a bool `s1`
    per cell (False for S2).  `labels` builds the {(k, l): label} dict on demand."""

    __slots__ = ("k", "l", "s1")

    def __init__(self, labels: dict):
        for lab in labels.values():
            if lab not in (S1, S2):
                raise ValueError(f"invalid label {lab!r}")
        k, l = _keys(zip(*((int(k), int(l)) for k, l in labels)))
        s1 = np.array([lab == S1 for lab in labels.values()], dtype=bool)
        self.k, self.l, self.s1 = _read_only(k, l, s1)

    @classmethod
    def _of(cls, k: np.ndarray, l: np.ndarray, s1: np.ndarray) -> "Partition":
        p = object.__new__(cls)
        p.k, p.l, p.s1 = _read_only(k, l, s1)
        return p

    @property
    def labels(self) -> dict:
        return dict(zip(zip(self.k.tolist(), self.l.tolist()), np.where(self.s1, S1, S2).tolist()))

    def to_json(self) -> str:
        o = np.lexsort((self.l, self.k))
        rows = zip(self.k[o].tolist(), self.l[o].tolist(), self.s1[o].tolist())
        return json.dumps([[k, l, S1 if s else S2] for k, l, s in rows])

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        """Inverse of `to_json`: [k, l, label] rows, each (k, l) at most once; k and l are
        JSON ints in signed 64-bit, and label is "S1" or "S2"."""
        refusal = 'partition JSON must be a list of [int, int, "S1" or "S2"] rows'
        rows = json.loads(text)
        if not (isinstance(rows, list) and set(map(type, rows)) <= {list}
                and set(map(len, rows)) <= {3}):
            raise ValueError(refusal)
        k, l, labs = list(zip(*rows)) or [()] * 3
        if not (set(map(type, k + l)) <= {int} and all(lab in (S1, S2) for lab in labs)):
            raise ValueError(refusal)
        return cls._of(*_keys((k, l)), np.array(labs) == S1)


def _lines(line: np.ndarray):
    """(order, starts, lengths): `order` groups the positions by line index, ascending,
    each line's cells in entry order; line i is order[starts[i] : starts[i] + lengths[i]]."""
    order = np.argsort(line, kind="stable")
    _, starts, lengths = np.unique(line[order], return_index=True, return_counts=True)
    return order, starts, lengths


def _line_scan(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """(sum before each term, total) of each line x[starts[i] : starts[i] + lengths[i]],
    added left to right from 0.0 as `sum` and `acc += x` add (np.sum adds pairwise).
    Step p adds the p-th term of every line longer than p, in O(len(x)) memory."""
    by_length = np.argsort(lengths, kind="stable")
    st, ln = starts[by_length], lengths[by_length]
    acc, before = np.zeros(len(ln)), np.empty_like(x)
    p = m = 0  # lines m, m + 1, ... of `ln` are longer than p
    while m < len(ln):
        at = st[m:] + p
        before[at] = acc[m:]
        acc[m:] += x[at]
        p += 1
        m = np.searchsorted(ln, p, side="right")
    total = np.empty_like(acc)
    total[by_length] = acc
    return before, total


def _line_pass(line: np.ndarray, other: np.ndarray, mag: np.ndarray, sq: np.ndarray):
    """(chosen, rank) per cell of the greedy pass along rows (line = k) or columns.

    A line with square-sum <= 2 is chosen wholesale, else its minimal prefix by
    descending magnitude (ties by `other`) reaching square-sum 2, of mass at most
    1 + 2 = 3 as magnitudes are <= 1; stored zeros are chosen too (they carry no mass).
    `rank` is the 1-based rank of the cell's line by its largest unchosen magnitude,
    descending, ties by line index; it is read only where that maximum is positive.
    """
    order, starts, lengths = _lines(line)
    whole = _line_scan(sq[order], starts, lengths)[1] <= 2.0
    ranked = np.lexsort((other, -mag, line))
    chosen = np.empty(len(line), dtype=bool)
    chosen[ranked] = _line_scan(sq[ranked], starts, lengths)[0] < 2.0
    chosen[order[np.repeat(whole, lengths)]] = True
    chosen |= mag == 0.0
    top = np.maximum.reduceat(np.where(chosen, 0.0, mag)[order], starts)
    line_rank = np.empty(len(starts), dtype=np.int64)  # lines ascend: stable ties by index
    line_rank[np.argsort(-top, kind="stable")] = np.arange(1, len(starts) + 1)
    rank = np.empty(len(line), dtype=np.int64)
    rank[order] = np.repeat(line_rank, lengths)
    return chosen, rank


def decompose(f: CoeffMatrix) -> Partition:
    """Split the support of f into S1 (row-bounded) and S2 (column-bounded).

    The input is normalized to unit weak-l4 quasinorm first, so the output
    partition is scale invariant (up to index-based tie-breaking).
    """
    norm = f.weak4()
    if norm == 0.0:  # empty or all-zero support: any labeling works, all in S1
        return Partition._of(f.k, f.l, np.ones(len(f.v), dtype=bool))
    mag = np.hypot(f.v.real / norm, f.v.imag / norm)  # abs(v / norm), bit for bit
    sq = mag * mag
    row_chosen, row_rank = _line_pass(f.k, f.l, mag, sq)
    col_chosen, col_rank = _line_pass(f.l, f.k, mag, sq)
    # a cell neither pass chose has a ranked row and a ranked column by construction
    return Partition._of(f.k, f.l, row_chosen | (~col_chosen & (row_rank >= col_rank)))


def _max_line_sum(line: np.ndarray, x: np.ndarray) -> float:
    order, starts, lengths = _lines(line)
    return float(_line_scan(x[order], starts, lengths)[1].max(initial=0.0))


def verify_partition(f: CoeffMatrix, p: Partition) -> tuple[float, float]:
    """(max over rows of S1 square-sum, max over columns of S2 square-sum), each line
    summed in f's entry order."""
    fo, po = np.lexsort((f.l, f.k)), np.lexsort((p.l, p.k))
    if not (np.array_equal(f.k[fo], p.k[po]) and np.array_equal(f.l[fo], p.l[po])):
        raise ValueError("partition does not cover the support exactly")
    s1 = p.s1[po][np.argsort(fo)]  # p's labels in f's entry order
    # abs(v) ** 2 with Python's float pow, which need not round as mag * mag does
    m2 = np.array([mag**2 for mag in np.hypot(f.v.real, f.v.imag).tolist()])
    return _max_line_sum(f.k[s1], m2[s1]), _max_line_sum(f.l[~s1], m2[~s1])


def necessity_lower_bound(f: CoeffMatrix, box_radius: int) -> float:
    """Lower bound for the constant achievable by ANY valid partition.

    Requires |f| non-increasing in max(|k|, |l|) on [-M, M]^2; summing both
    guaranteed line bounds over the box shows that no partition can do
    better than (sum of |f|^2 over the box) / (2 * (2M + 1)).
    """
    M = box_radius
    box = (f.k >= -M) & (f.k <= M) & (f.l >= -M) & (f.l <= M)
    mag = np.hypot(f.v.real[box], f.v.imag[box])  # abs(v), bit for bit
    total = float(np.cumsum(mag * mag)[-1]) if mag.size else 0.0  # entry order, as total +=
    order, starts, _ = _lines(np.maximum(np.abs(f.k[box]), np.abs(f.l[box])))
    lo, hi = np.minimum.reduceat(mag[order], starts), np.maximum.reduceat(mag[order], starts)
    # monotonicity check: min of an inner shell must dominate max of any outer shell
    if np.any(hi > np.minimum.accumulate(np.r_[np.inf, lo[:-1]]) + 1e-12):
        raise ValueError("monotonicity in max(|k|,|l|) violated")
    return total / (2.0 * (2 * M + 1))
