"""The benchmark's four workloads: inputs from a seed, one pass, output checks.

Each workload has `setup(seed, scale, inputs_dir) -> state`, which builds
every config and input file, `run_pass(state, pass_dir) -> outputs`, the
timed work, and `check(state, outputs) -> (checks, digests)`, which runs
after the timer stops.  A check is a (name, passed) pair; a digest is the
sha256 of an output that must be identical in every pass of a run.

`scale="full"` is the measured size; `scale="smoke"` is the tiny size the
self-test uses.  Library calls go through module attributes
(`bimult.symbols.lattice_symbol`, not a name imported from it) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import bimult.bilinear
import bimult.cli
import bimult.experiments
import bimult.rowcol
import bimult.symbols
import bimult.wavelets
from bimult.bumps import BumpSpec
from bimult.grid import FrequencyBox, SpectralVector, spectral_from_json, spectral_to_json

WAVELET_RATIO_BOUND = 2.0  # criterion 9 regression constant
APPLY_REL_TOL = 1e-12
PARTITION_CONST = 6.25  # the row/column guarantee C^2
PARTITION_ABS_TOL = 1e-9


def pool_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _run_experiments(state) -> dict:
    return {
        label: bimult.experiments.run_experiment(name, cfg, state["seed"], threads)
        for label, name, cfg, threads in state["experiments"]
    }


def _check_records(records: dict) -> tuple[list, dict]:
    checks = [(f"{label}.passed", bool(rec.summary.get("passed"))) for label, rec in records.items()]
    digests = {label: _sha(rec.to_json_line()) for label, rec in records.items()}
    return checks, digests


class Growth:
    """growth-A and growth-B at their acceptance configs, on a thread pool."""

    def setup(self, seed: int, scale: str, inputs_dir: str) -> dict:
        full = scale == "full"
        a = {"block_b": [4, 16, 64] if full else [4, 16], "dstar_exponent": 0.125,
             "pool": 32 if full else 2}
        b = {"mode": "desk", "N": [1, 2, 3] if full else [1], "pool": 32 if full else 2}
        t = pool_threads()
        return {"seed": seed, "experiments": [("growth-A", "growth-A", a, t),
                                              ("growth-B", "growth-B", b, t)]}

    def run_pass(self, state, pass_dir):
        return _run_experiments(state)

    def check(self, state, outputs):
        return _check_records(outputs)


class Corpus:
    """Many small independent items at threads=1: three boundedness corpora,
    khintchine, counting, and the criterion-9 wavelet-ratio corpus."""

    def setup(self, seed: int, scale: str, inputs_dir: str) -> dict:
        full = scale == "full"
        trials = 100 if full else 4
        exps = [(f"boundedness-{m}", "boundedness", {"f_mode": m, "trials": trials}, 1)
                for m in ("lattice", "besov", "fourier_compact")]
        khin = {} if full else {"sizes": [1, 2, 3], "trials": 50_000, "equal_weight_trials": 50_000}
        exps.append(("khintchine", "khintchine", khin, 1))
        exps.append(("counting", "counting", {} if full else {"M": [2, 3, 32]}, 1))
        symbols = [self._wavelet_coeffs(seed, t) for t in range(10 if full else 2)]
        return {"seed": seed, "experiments": exps, "wavelet_coeffs": symbols,
                "wavelet_j_max": 4 if full else 2}

    @staticmethod
    def _wavelet_coeffs(seed: int, t: int) -> "bimult.rowcol.CoeffMatrix":
        """The criterion-9 corpus draw t (identical to the acceptance test at its seed)."""
        rng = bimult.experiments.substream(seed, t)
        M = int(rng.integers(1, 4))
        keep = rng.random((2 * M + 1, 2 * M + 1)) < 0.5
        vals = rng.standard_normal(keep.shape) + 1j * rng.standard_normal(keep.shape)
        entries = {(k - M, l - M): vals[k, l] for k, l in zip(*np.nonzero(keep))}
        entries[(0, 0)] = entries.get((0, 0), 1.0 + 0.0j)
        return bimult.rowcol.CoeffMatrix(entries)

    def run_pass(self, state, pass_dir):
        records = _run_experiments(state)
        psi = BumpSpec(radius=0.1, plateau=0.05)
        ratios = []
        for c in state["wavelet_coeffs"]:
            sym = bimult.symbols.lattice_symbol(c, psi, 16)
            coeffs = bimult.wavelets.wavelet_coefficients(sym, state["wavelet_j_max"])
            ratios.append([bimult.wavelets.lemma_discrete_ratio(sym, j, G, coeffs) for j, G in coeffs])
        return records, ratios

    def check(self, state, outputs):
        records, ratios = outputs
        checks, digests = _check_records(records)
        corpus_max = max(max(r) for r in ratios)
        checks.append(("wavelet-corpus.max_ratio", corpus_max <= WAVELET_RATIO_BOUND))
        digests["wavelet-corpus"] = _sha(json.dumps(ratios))
        return checks, digests


class Levelset:
    """One levelset run: a single large counterexample_B_block grid scanned per lambda."""

    def setup(self, seed: int, scale: str, inputs_dir: str) -> dict:
        if scale == "full":
            cfg = {"mode": "paper", "N": [2, 4]}
        else:
            cfg = {"mode": "desk", "N": [2], "resolution": 10}
        return {"seed": seed, "experiments": [("levelset", "levelset", cfg, 1)]}

    def run_pass(self, state, pass_dir):
        return _run_experiments(state)

    def check(self, state, outputs):
        return _check_records(outputs)


class Roundtrip:
    """The CLI in process: gen-symbol, decompose and apply through files."""

    def setup(self, seed: int, scale: str, inputs_dir: str) -> dict:
        full = scale == "full"
        box_radius, resolution, pairs = (64, 16, 8) if full else (4, 16, 1)
        coeffs_path = os.path.join(inputs_dir, "coeffs.json")
        coeffs = bimult.symbols.power_shell_sequence(box_radius, 0.125).coeff_matrix()
        with open(coeffs_path, "w") as fh:
            fh.write(coeffs.to_json())
        F = resolution * (box_radius + 1)  # the symbol's own band limit
        box = FrequencyBox(1, F, 2, float(resolution))
        rng = np.random.default_rng(seed)
        pair_paths = []
        for i in range(pairs):
            paths = []
            for side in ("f", "g"):
                vals = rng.standard_normal(box.lattice_shape) + 1j * rng.standard_normal(box.lattice_shape)
                path = os.path.join(inputs_dir, f"{side}{i}.json")
                with open(path, "w") as fh:
                    fh.write(spectral_to_json(SpectralVector(box, vals)))
                paths.append(path)
            pair_paths.append(tuple(paths))
        return {"seed": seed, "coeffs_path": coeffs_path, "resolution": resolution,
                "pairs": pair_paths}

    def run_pass(self, state, pass_dir):
        sym = os.path.join(pass_dir, "symbol.bin")
        part = os.path.join(pass_dir, "partition.json")
        calls = [
            ["gen-symbol", "--kind", "lattice", "--coeffs", state["coeffs_path"],
             "--resolution", str(state["resolution"]), "--seed", str(state["seed"]), "--out", sym],
            ["decompose", "--in", state["coeffs_path"], "--out", part],
        ]
        results = []
        for i, (f, g) in enumerate(state["pairs"]):
            out = os.path.join(pass_dir, f"apply{i}.json")
            calls.append(["apply", "--symbol", sym, "--f", f, "--g", g, "--out", out])
            results.append(out)
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in calls:
                codes.append((argv[0], bimult.cli.run(argv)))
        return {"codes": codes, "symbol": sym, "partition": part, "results": results}

    def check(self, state, outputs):
        checks = [(f"cli.{cmd}.exit0", code == 0) for cmd, code in outputs["codes"]]
        digests = {}
        if not all(ok for _, ok in checks):
            return checks, digests  # the outputs the other checks read may be missing
        m = bimult.cli.read_symbol(outputs["symbol"])
        for (f_path, g_path), out in zip(state["pairs"], outputs["results"]):
            with open(f_path) as fh:
                f = spectral_from_json(fh.read())
            with open(g_path) as fh:
                g = spectral_from_json(fh.read())
            with open(out) as fh:
                reported = json.load(fh)["operatorRatio"]
            expected = bimult.bilinear.operator_ratio(m, f, g)
            checks.append(("apply.operatorRatio", abs(reported - expected) <= APPLY_REL_TOL * abs(expected)))
        with open(state["coeffs_path"]) as fh:
            c = bimult.rowcol.CoeffMatrix.from_json(fh.read())
        with open(outputs["partition"]) as fh:
            p = bimult.rowcol.Partition.from_json(fh.read())
        bound = PARTITION_CONST * c.weak4() ** 2 + PARTITION_ABS_TOL
        checks.append(("decompose.partition_bound", max(bimult.rowcol.verify_partition(c, p)) <= bound))
        for path in [outputs["symbol"], outputs["symbol"] + ".json", outputs["partition"], *outputs["results"]]:
            with open(path, "rb") as fh:
                digests[os.path.basename(path)] = _sha(fh.read())
        return checks, digests


WORKLOADS = {"growth": Growth(), "corpus": Corpus(), "levelset": Levelset(), "roundtrip": Roundtrip()}
