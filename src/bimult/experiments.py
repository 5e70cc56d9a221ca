"""Scripted desk-scale verification experiments.

Every experiment is a pure function of (config, master seed): randomness is
drawn from per-trial substreams derived by hashing the master seed with the
trial index, and reductions run in a fixed order, so results are identical
for any worker count.  Results are packaged as ExperimentRecord and can be
serialized to JSON Lines; the serialized form deliberately excludes the wall
clock so that reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bilinear import SymbolGrid, operator_ratio
from .grid import FrequencyBox, SpectralVector, _is_finite_number, l2_norm
from .lorentz import weak_quasinorm
from .rowcol import CoeffMatrix
from .symbols import (
    CounterexampleAConfig,
    CounterexampleBConfig,
    _antidiagonal_signs,
    _bump_train,
    _hash64,
    besov_norm,
    block_B_level_measure_coeff,
    counterexample_B_block,
    count_representations,
    lattice_symbol,
)
from .bumps import BumpSpec

__all__ = [
    "ExperimentRecord",
    "canonical_json",
    "config_hash",
    "substream",
    "khintchine_exact",
    "khintchine_mc",
    "growth_experiment_A",
    "growth_experiment_B",
    "boundedness_corpus",
    "counting_table",
    "levelset_profile",
    "run_experiment",
    "EXPERIMENTS",
]


def _coerce_scalar(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def canonical_json(obj, allow_nan: bool = True) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_coerce_scalar,
                      allow_nan=allow_nan)


_INT64 = range(-(2**63), 2**63)  # the seeds and substream keys hashing accepts


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for one trial, stable across worker counts."""
    for key in (master_seed, index):
        if key not in _INT64:
            raise ValueError(f"substream key {key} is outside signed 64-bit")
    return np.random.default_rng(_hash64(master_seed, index))


def _map_ordered(fn, items, threads: int = 1) -> list:
    """Apply fn preserving input order; worker count never changes the output."""
    if threads <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


@dataclass(frozen=True)
class ExperimentRecord:
    """One experiment run: config, per-trial data, and a pass/fail summary."""

    experiment_name: str
    config: dict
    master_seed: int
    per_trial_results: list = field(repr=False)
    summary: dict
    wall_clock: float

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    def to_json_line(self) -> str:
        # wall clock excluded: serialized records are byte-stable across reruns;
        # NaN and Infinity refused: they are not JSON, and a check passed on them says nothing
        try:
            return canonical_json(
                {
                    "experimentName": self.experiment_name,
                    "configHash": self.config_hash,
                    "config": self.config,
                    "masterSeed": self.master_seed,
                    "perTrialResults": self.per_trial_results,
                    "summary": self.summary,
                },
                allow_nan=False,
            )
        except ValueError:
            raise ValueError(f"{self.experiment_name} record holds NaN or Infinity") from None

    @classmethod
    def from_json_line(cls, line: str) -> "ExperimentRecord":
        d = json.loads(line)
        shape = {"experimentName": str, "config": dict, "masterSeed": int,  # in field order
                 "perTrialResults": list, "summary": dict}
        if not (isinstance(d, dict) and all(isinstance(d.get(k), t) for k, t in shape.items())
                and all(isinstance(row, dict) for row in d["perTrialResults"])):
            raise ValueError("not an experiment record (keys and types as to_json_line writes)")
        return cls(*(d[key] for key in shape), wall_clock=0.0)


# ---------------------------------------------------------------------------
# experiment registry: each experiment declares its config fields once


EXPERIMENTS: dict = {}


def _count(key: str, value, most: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= (most or value):
        span = f" and <= {most}" if most else ""
        raise ValueError(f"{key} must be >= 1{span} (an integer), not {value!r}")
    return value


def _finite(key: str, value) -> float:
    if not _is_finite_number(value):
        raise ValueError(f"{key} must be a finite number, not {value!r}")
    return float(value)


def _nonempty(item, noun: str):
    """A check for a non-empty list whose entries each pass `item`; gives a tuple."""
    def check(key: str, value) -> tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"{key} must name at least one {noun}, not {value!r}")
        return tuple(item(f"{key} entry", v) for v in value)
    return check


def _one_of(*choices: str):
    def check(key: str, value) -> str:
        if value not in choices:
            raise ValueError(f"{key} must be one of {', '.join(map(repr, choices))}, not {value!r}")
        return value
    return check


def _experiment(name: str, **fields):
    """Register experiment `name` with its config fields, each key=(default as in JSON, check).

    The runner (config, master_seed, threads=1) refuses unknown keys, checks
    each value, calls body(master_seed, threads, **settings) -> (rows, summary)
    and records the config as given; check(key, value) gives the setting.
    """

    def register(body):
        def run(config: dict, master_seed: int, threads: int = 1) -> ExperimentRecord:
            t0 = time.perf_counter()
            for key in config:
                _one_of(*fields)(f"{name} config key", key)
            settings = {key: check(key, config[key] if key in config else default)
                        for key, (default, check) in fields.items()}
            rows, summary = body(master_seed, threads, **settings)
            wall = time.perf_counter() - t0
            return ExperimentRecord(name, config, master_seed, rows, summary, wall)

        run.__name__, run.__doc__ = body.__name__, body.__doc__
        run.fields = fields
        EXPERIMENTS[name] = run
        return run

    return register


# ---------------------------------------------------------------------------
# Khintchine averages


_ENUM_MAX, _ENUM_BLOCK = 20, 4096  # largest L; rows per block, a multiple of 4 (BLAS's row group)


def khintchine_exact(a) -> tuple[float, float]:
    """E|sum eps_l a_l| over all 2^L sign patterns (L <= 20), in O(2^L) floats plus one block."""
    a = np.asarray(a, dtype=float)
    L = a.size
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise ValueError("zero vector")
    if L > _ENUM_MAX:
        raise ValueError(f"enumeration limited to {_ENUM_MAX} entries")
    dots = np.empty(2**L)
    for start in range(0, 2**L, _ENUM_BLOCK):  # pattern i has eps_l = +1 where bit l of i is set
        bits = (np.arange(start, min(start + _ENUM_BLOCK, 2**L))[:, None] >> np.arange(L)) & 1
        dots[start : start + _ENUM_BLOCK] = (2.0 * bits - 1.0) @ a
    mean_abs = float(np.mean(np.abs(dots)))
    return mean_abs, mean_abs / norm


def khintchine_mc(a, trials: int, seed: int, threads: int = 1) -> tuple[float, float]:
    """Monte Carlo E|sum eps_l a_l| over iid Rademacher signs.

    Trials are grouped into fixed blocks of 1024 with hash-derived
    substreams; block partial sums are combined in block order, so the
    result is independent of the worker count.
    """
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise ValueError("zero vector")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    block = 1024
    n_blocks = (trials + block - 1) // block

    def one_block(bi: int) -> float:
        rng = substream(seed, bi)
        count = min(block, trials - bi * block)
        signs = rng.integers(0, 2, size=(count, a.size)) * 2.0 - 1.0
        return float(np.sum(np.abs(signs @ a)))

    partials = _map_ordered(one_block, range(n_blocks), threads)
    mean_abs = sum(partials) / trials
    return mean_abs, mean_abs / norm


@_experiment(
    "khintchine",
    sizes=([1, 2, 3, 5, 8, 12, 16], _nonempty(lambda k, v: _count(k, v, _ENUM_MAX), "size")),
    trials=(200_000, _count), equal_weight_trials=(100_000, _count),
)
def run_khintchine(master_seed, threads, *, sizes, trials, equal_weight_trials):
    """Enumeration-vs-MC agreement, the Gaussian-limit value, and the ratio band."""
    trials_rows = []
    for t, L in enumerate(sizes):
        rng = substream(master_seed, t)
        a = rng.standard_normal(L)
        exact_mean, exact_ratio = khintchine_exact(a)
        mc_mean, mc_ratio = khintchine_mc(a, trials, master_seed * 1000 + t, threads)
        trials_rows.append(
            {
                "size": L,
                "exactRatio": exact_ratio,
                "mcRatio": mc_ratio,
                "absDiff": abs(exact_ratio - mc_ratio),
            }
        )
    eq = np.full(64, 1.0)
    _, eq_ratio = khintchine_mc(eq, equal_weight_trials, master_seed + 77, threads)
    gauss = float(np.sqrt(2.0 / np.pi))
    ratios = [row[key] for key in ("exactRatio", "mcRatio") for row in trials_rows] + [eq_ratio]
    lo_band = 1.0 / np.sqrt(2.0) - 0.02
    summary = {
        "maxEnumVsMc": max(row["absDiff"] for row in trials_rows),
        "equalWeightRatio": eq_ratio,
        "equalWeightVsGaussian": abs(eq_ratio - gauss),
        "ratioMin": min(ratios),
        "ratioMax": max(ratios),
    }
    summary["passed"] = bool(
        summary["maxEnumVsMc"] < 0.01 and summary["equalWeightVsGaussian"] < 0.01
        and summary["ratioMin"] >= lo_band and summary["ratioMax"] <= 1.0 + 1e-12
    )
    return trials_rows, summary


# ---------------------------------------------------------------------------
# growth experiments


_POOL_BLOCK = 16  # sign draws synthesized per inverse FFT; fixed, so threads never change a bit


def _sign_pool_ratios(
    cfg: CounterexampleAConfig | CounterexampleBConfig,
    key: int,
    f: SpectralVector,
    pool: int,
    threads: int = 1,
    center: int | None = None,
) -> list[float]:
    """Operator ratios ||T_m(f, f)||_1 / ||f||_2^2 of the first `pool` sign draws of a block.

    Draw d puts the signs of SignAssignment(cfg.block_seed(key, d)) on the
    anti-diagonals l = j + k of cfg.interval(key), as the block builder does:
    one blake2b prefix of the packed seed per draw, copied and fed each l's 8
    bytes, which hashes the same bytes as `_hash64(seed, l)` and so gives the
    same sign bits.  The all-plus block's output spectrum U, centered at
    `center` (None: cfg.center(key)), comes once from `block_output_spectrum`,
    which sums the block's stamp as `output_spectrum` sums its grid, so no
    symbol grid is built.  A draw is the sign mask eps_{l(zeta)}
    on U plus one synthesis.  That equals rebuilding the signed symbol bit for
    bit on every nonzero value: bumps of radius <= 1/10 confine the output of
    cell (j, k) to within 0.2 of l = j + k (in lattice units before any
    dilation), so the windows of distinct l are disjoint, and IEEE negation is
    exact.

    The draws go in blocks of _POOL_BLOCK, one zero-padded inverse FFT along
    the last axis per block; row d is `l1_norm(synthesize(u_d))` operation for
    operation.
    """
    center = cfg.center(key) if center is None else center
    I = cfg.interval(key)
    r = cfg.resolution
    U = cfg.block_output_spectrum(key, f, f, center)
    box = U.box
    P = box.n_phys
    lo, n_diag = 2 * I.start, 2 * len(I) - 1
    # lattice index zeta lies within 0.2 r of r (l - 2 center) for the l feeding it;
    # zeta outside every window has U(zeta) = 0, so its clipped sign is immaterial
    diag = (box.frequencies() + r // 2) // r + 2 * center - lo
    diag = np.clip(diag, 0, n_diag - 1)
    nf = l2_norm(f)

    def ratios_for(first: int) -> list[float]:
        draws = range(first, min(first + _POOL_BLOCK, pool))
        signs = np.array([_antidiagonal_signs(I, cfg.block_seed(key, d)) for d in draws],
                         dtype=float)
        padded = np.zeros((len(draws), P), dtype=complex)
        padded[:, box.frequencies() % P] = signs[:, diag] * U.values
        with np.errstate(over="ignore", invalid="ignore"):  # _growth_rows refuses inf and NaN
            samples = np.fft.ifft(padded, axis=-1) * P
            return (np.abs(samples).sum(axis=-1) * box.cell_measure / (nf * nf)).tolist()

    blocks = _map_ordered(ratios_for, range(0, pool, _POOL_BLOCK), threads)
    return [ratio for block in blocks for ratio in block]


def _growth_rows(
    cfg: CounterexampleAConfig | CounterexampleBConfig, key_name: str, pool: int, threads: int
) -> list[dict]:
    """Per block: the best operator ratio of `pool` sign draws and the first draw attaining it.

    Each block is evaluated in its own centered coordinates: shifting the
    block and its test function by the block center multiplies the output
    field by a unimodular factor, so all measured magnitudes are unchanged
    while the grids stay small.
    """
    if pool < 1:
        raise ValueError(f"pool must be >= 1, not {pool}")
    rows = []
    for key in cfg.block_keys():
        ratios = _sign_pool_ratios(cfg, key, cfg.test_function(key), pool, threads)
        bad = next((d for d, ratio in enumerate(ratios) if not np.isfinite(ratio)), None)
        if bad is not None:
            raise ValueError(f"block {key_name}={key}, sign draw {bad}: "
                             f"operator ratio {ratios[bad]} is not finite")
        best = max(range(pool), key=lambda d: (ratios[d], -d))
        rows.append({key_name: key, "measured": ratios[best], "bestDraw": best})
    return rows


def _growth_summary(rows: list[dict], pool: int) -> dict:
    measured = [row["measured"] for row in rows]
    return {"strictlyIncreasing": all(b > a for a, b in zip(measured, measured[1:])), "pool": pool}


def growth_experiment_A(
    cfg: CounterexampleAConfig, seeds_per_block: int = 32, threads: int = 1
) -> list[dict]:
    """Operator ratios per block vs the rho^(1/4) d*(rho) trend, fitted at the first block."""
    rows = _growth_rows(cfg, "K", seeds_per_block, threads)
    for row in rows:
        rho = cfg.rho(row["K"])
        row["trend"] = rho**0.25 * rho ** (-cfg.dstar_exponent)
    c = rows[0]["measured"] / rows[0]["trend"]
    for row in rows:
        row["predicted"] = c * row["trend"]
    return rows


@_experiment(
    "growth-A", block_b=([4, 16, 64], _nonempty(_count, "block")),
    dstar_exponent=(0.125, _finite), resolution=(20, _count), pool=(32, _count),
)
def run_growth_A(master_seed, threads, *, block_b, dstar_exponent, resolution, pool):
    cfg = CounterexampleAConfig(block_b, dstar_exponent, master_seed, resolution)
    rows = growth_experiment_A(cfg, pool, threads)
    summary = _growth_summary(rows, pool)
    measured = [row["measured"] for row in rows]
    summary["spread"] = max(measured) / min(measured)
    summary["passed"] = (
        summary["strictlyIncreasing"] if cfg.dstar_exponent < 0.25 else summary["spread"] <= 1.5
    )
    return rows, summary


def growth_experiment_B(
    cfg: CounterexampleBConfig, seeds_per_block: int = 32, threads: int = 1
) -> list[dict]:
    """Operator ratios per scale vs the exact sign-average prediction.

    The prediction is the Khintchine average computed in closed finite form:
    amplitude * sqrt(sum_l r(l)^2) / side_count, with r the anti-diagonal
    representation counts of the block's index interval.  No asymptotics.
    """
    rows = _growth_rows(cfg, "N", seeds_per_block, threads)
    for row in rows:
        s = cfg.side_count(row["N"])
        sum_sq = count_representations(range(s)).sum_squares()
        row["predicted"] = cfg.amplitude(row["N"]) * float(sum_sq) ** 0.5 / s
        row["measuredOverPredicted"] = row["measured"] / row["predicted"]
    return rows


@_experiment(
    "growth-B", mode=("desk", _one_of("paper", "desk")),
    N=([1, 2, 3], _nonempty(_count, "block")), resolution=(20, _count), pool=(32, _count),
    band_lo=(0.5, _finite), band_hi=(2.0, _finite),
)
def run_growth_B(master_seed, threads, *, mode, N, resolution, pool, band_lo, band_hi):
    if band_lo >= band_hi:
        raise ValueError(f"band_lo {band_lo} must be below band_hi {band_hi}")
    cfg = CounterexampleBConfig(mode, N, master_seed, resolution)
    rows = growth_experiment_B(cfg, pool, threads)
    in_band = all(band_lo <= row["measuredOverPredicted"] <= band_hi for row in rows)
    summary = _growth_summary(rows, pool)
    summary.update(bandLo=band_lo, bandHi=band_hi, inBand=in_band)
    summary["passed"] = summary["strictlyIncreasing"] and in_band
    return rows, summary


# ---------------------------------------------------------------------------
# boundedness corpora


_CORPUS_PSI = BumpSpec(radius=0.1, plateau=0.05)
_CORPUS_PHI = BumpSpec(radius=0.2, plateau=0.1)
_CORPUS_LATTICE_RADIUS = 4  # coefficient indices drawn from [-4, 4]^2
_CORPUS_INPUT_RADIUS = 16  # input lattice radius, capped at the symbol's
_CORPUS_BASELINE_FACTOR = 3.0  # pass: max normalized ratio <= 3 x the single-bump baseline


def _random_inputs(box: FrequencyBox, rng: np.random.Generator) -> SpectralVector:
    shape = box.lattice_shape
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralVector(box, vals)


def _aligned_inputs(box: FrequencyBox, resolution: int) -> SpectralVector:
    """All-ones bumps at the integer lattice frequencies inside the band."""
    F = box.radius
    centers = range(-F // resolution, F // resolution + 1)
    return SpectralVector(box, _bump_train(_CORPUS_PHI, F, resolution, centers))


def _corpus_symbol(f_mode: str, rng, resolution: int):
    """(symbol, normalizer) pair for one corpus draw of the given mode."""
    M = _CORPUS_LATTICE_RADIUS
    if f_mode in ("lattice", "besov"):
        keep = rng.random((2 * M + 1, 2 * M + 1)) < 0.3
        vals = rng.standard_normal(keep.shape) + 1j * rng.standard_normal(keep.shape)
        if not keep.any():  # never empty: then the unit coefficient at the origin
            keep[M, M], vals[M, M] = True, 1.0
        k, l = np.nonzero(keep)  # row-major
        c = CoeffMatrix._of(k - M, l - M, vals[keep])
        m = lattice_symbol(c, _CORPUS_PSI, resolution)
        norm = c.weak4() if f_mode == "lattice" else besov_norm(m)
        return m, norm
    if f_mode == "fourier_compact":
        # random symbol with spectrum in the ball of radius 2^k
        k = int(rng.integers(0, 3))
        F = resolution * (M + 1)
        P = 2 * F + 1
        h = 1.0 / resolution
        freqs = np.fft.fftfreq(P, d=h)
        w1, w2 = np.meshgrid(freqs, freqs, indexing="ij")
        mask = np.hypot(w1, w2) <= 2.0**k
        spec = np.zeros((P, P), dtype=complex)
        cnt = int(np.count_nonzero(mask))
        spec[mask] = rng.standard_normal(cnt) + 1j * rng.standard_normal(cnt)
        vals = np.fft.ifft2(spec)
        m = SymbolGrid(2, F, vals, spacing=h)
        norm = 2.0 ** (m.n * k / 2.0) * weak_quasinorm(m.measured(), 4.0)
        return m, norm
    raise ValueError(f"unknown fMode {f_mode!r}")


def _single_bump_baseline(f_mode: str, resolution: int) -> float:
    """Normalized ratio of the one-coefficient symbol against the delta inputs."""
    c = CoeffMatrix({(0, 0): 1.0 + 0.0j})
    m = lattice_symbol(c, _CORPUS_PSI, resolution)
    if f_mode == "lattice":
        norm = c.weak4()
    elif f_mode == "besov":
        norm = besov_norm(m)
    else:
        norm = weak_quasinorm(m.measured(), 4.0)  # k = 0 ball
    box = FrequencyBox(1, m.radius, 2, float(resolution))
    delta = np.zeros(2 * m.radius + 1, dtype=complex)
    delta[m.radius] = 1.0
    f = SpectralVector(box, delta)
    return operator_ratio(m, f, f) / norm


def boundedness_corpus(
    f_mode: str,
    trials: int,
    master_seed: int,
    resolution: int = 10,
    threads: int = 1,
) -> dict:
    """Max normalized operator ratio over seeded symbols and stress inputs.

    Each trial pits the drawn symbol against a random band-limited pair and
    against the adversarial lattice-aligned pair, and the ratio is divided
    by the mode's norm.  Returns the per-trial table, the max, and the
    single-bump baseline anchor.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, not {trials}")

    def one_trial(t: int) -> dict:
        rng = substream(master_seed, t)
        m, norm = _corpus_symbol(f_mode, rng, resolution)
        box = FrequencyBox(1, min(_CORPUS_INPUT_RADIUS, m.radius), 2, 1.0 / m.spacing)
        aligned = _aligned_inputs(box, resolution)
        candidates = [(_random_inputs(box, rng), _random_inputs(box, rng)), (aligned, aligned)]
        best = max(operator_ratio(m, f, g) / norm for f, g in candidates)
        return {"trial": t, "normalizedRatio": best}

    rows = _map_ordered(one_trial, range(trials), threads)
    baseline = _single_bump_baseline(f_mode, resolution)
    return {
        "fMode": f_mode,
        "baseline": baseline,
        "maxNormalizedRatio": max(row["normalizedRatio"] for row in rows),
        "trials": rows,
    }


@_experiment(
    "boundedness", f_mode=("lattice", _one_of("lattice", "besov", "fourier_compact")),
    trials=(100, _count), resolution=(10, _count),
)
def run_boundedness(master_seed, threads, *, f_mode, trials, resolution):
    res = boundedness_corpus(f_mode, trials, master_seed, resolution=resolution, threads=threads)
    factor = _CORPUS_BASELINE_FACTOR
    summary = {
        "fMode": f_mode,
        "baseline": res["baseline"],
        "maxNormalizedRatio": res["maxNormalizedRatio"],
        "bound": factor * res["baseline"],
        "passed": bool(res["maxNormalizedRatio"] <= factor * res["baseline"]),
    }
    return res["trials"], summary


# ---------------------------------------------------------------------------
# counting and level sets


def counting_table(m_list, brute_limit: int = 256) -> list[dict]:
    """Sum of squared anti-diagonal counts (n = 1) vs the closed form M(2M^2+1)/3.

    For M <= brute_limit the counts are recomputed by the O(M^2) double loop
    as an independent path.
    """
    rows = []
    for M in m_list:
        table = count_representations(range(M))
        total = int(table.sum_squares())
        closed = M * (2 * M * M + 1) // 3
        row = {"M": M, "sumSquares": total, "closedForm": closed, "match": total == closed}
        if M <= brute_limit:
            counts: dict = {}
            for j in range(M):
                for k in range(M):
                    counts[j + k] = counts.get(j + k, 0) + 1
            brute = sum(v * v for v in counts.values())
            row["bruteForce"] = brute
            row["bruteMatch"] = brute == total
        rows.append(row)
    return rows


@_experiment("counting", M=([2, 3, 32, 256, 1024, 4096], _nonempty(_count, "size")))
def run_counting(master_seed, threads, *, M):
    rows = counting_table(M)
    all_match = all(row["match"] for row in rows)
    all_brute = all(row.get("bruteMatch", True) for row in rows)
    summary = {"allMatch": all_match, "allBruteMatch": all_brute, "passed": all_match and all_brute}
    return rows, summary


_LEVELSET_GRID_BLOCKS = (2,)  # blocks whose coefficient count is checked on a grid


def levelset_profile(
    cfg: CounterexampleBConfig,
    alphas=(1.0, 2.0),
    lambda_fractions=(0.9, 0.5, 0.1),
) -> list[dict]:
    """Level-set measures of the multi-block symbol vs lambda^-4 log^-alpha(e/lambda).

    Measures are additive over the disjoint blocks; the coefficient path sums
    the per-block counts, and for the blocks in _LEVELSET_GRID_BLOCKS a count
    on the block's centered grid (same disjoint bumps) cross-checks it.
    Implied constants measure * lambda^4 log^alpha are reported per lambda and alpha.
    """
    amps = {N: cfg.amplitude(N) for N in cfg.Ns}
    lambdas = sorted(
        {frac * amp for amp in amps.values() for frac in lambda_fractions},
        reverse=True,
    )
    grids = {}
    for N in _LEVELSET_GRID_BLOCKS:
        if N in cfg.Ns:
            m = counterexample_B_block(cfg, N)
            grids[N] = (np.abs(m.values), m.cell_measure)
    rows = []
    for lam in lambdas:
        per_block = {N: block_B_level_measure_coeff(cfg, N, lam) for N in cfg.Ns}
        coeff = sum(per_block.values())
        row = {"lambda": lam, "coeffMeasure": coeff}
        grid_part = sum(
            float(np.count_nonzero(mag > lam) * h) for mag, h in grids.values()
        )
        coeff_part = sum(per_block[N] for N in grids)
        if coeff_part > 0:
            row["gridMeasure"] = grid_part
            row["dualPathRelErr"] = abs(grid_part - coeff_part) / coeff_part
        for alpha in alphas:
            bound = lam**-4.0 * np.log(np.e / lam) ** -alpha
            row[f"impliedConstAlpha{alpha:g}"] = coeff / bound
        rows.append(row)
    return rows


@_experiment(
    "levelset", mode=("paper", _one_of("paper", "desk")), N=([2, 4], _nonempty(_count, "block")),
    resolution=(20, _count), alphas=([1.0, 2.0], _nonempty(_finite, "exponent")),
)
def run_levelset(master_seed, threads, *, mode, N, resolution, alphas):
    cfg = CounterexampleBConfig(mode, N, master_seed, resolution)
    rows = levelset_profile(cfg, alphas=alphas)
    dual_errs = [row["dualPathRelErr"] for row in rows if "dualPathRelErr" in row]
    consts = [row[f"impliedConstAlpha{a:g}"] for row in rows for a in alphas]
    finite = bool(np.all(np.isfinite(consts)))
    summary = {
        "maxDualPathRelErr": max(dual_errs) if dual_errs else None,
        "maxImpliedConst": max(consts),
        "allFinite": finite,
        "passed": (not dual_errs or max(dual_errs) <= 0.02) and finite,
    }
    return rows, summary


def run_experiment(
    name: str, config: dict, master_seed: int, threads: int = 1
) -> ExperimentRecord:
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}")
    return EXPERIMENTS[name](config, master_seed, threads)
