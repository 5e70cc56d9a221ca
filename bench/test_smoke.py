"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Runs every workload at `--scale smoke` (pool 2, N=[1], 4 trials, one apply
pair), traced and untraced, and checks the printed result against
BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# calls made at smoke scale through names that experiments and cli import
SMOKE_COUNTS = {
    "growth": {"symbols.block_A_symbol.calls": 4, "symbols.counterexample_B_block.calls": 2,
               "experiments.pool_draws": 6},
    "roundtrip": {"cli.read_symbol.calls": 1, "cli.write_symbol.calls": 1,
                  "rowcol.decompose.calls": 1, "bilinear.apply_bilinear.calls": 2},
}


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    units = {name: m["unit"] for name, m in out["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert "fail_ratio 0 ratio" in proc.stdout
    if trace:
        for name, expected in SMOKE_COUNTS.get(workload, {}).items():
            assert out["metrics"][name]["value"] == expected, name


def test_broken_check_makes_fail_ratio_positive(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import worker
    import workloads

    monkeypatch.setattr(workloads, "WAVELET_RATIO_BOUND", 0.0)
    result = worker.measure("corpus", 7, 0, False, "smoke", str(tmp_path / "work"))
    failed = len(result["failures"])
    assert failed / result["attempted"] > 0
    assert set(result["failures"]) == {"wavelet-corpus.max_ratio"}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "growth", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
