"""Experiment harness: determinism, Khintchine oracles, tables, records."""

import itertools
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bimult.cli
import bimult.experiments
import bimult.symbols
from bimult.experiments import (
    EXPERIMENTS,
    ExperimentRecord,
    boundedness_corpus,
    canonical_json,
    config_hash,
    counting_table,
    khintchine_exact,
    khintchine_mc,
    run_experiment,
    substream,
)
from bimult.bilinear import operator_ratio
from bimult.experiments import (
    _POOL_BLOCK,
    _sign_pool_ratios,
    growth_experiment_B,
    levelset_profile,
)
from bimult.symbols import CounterexampleAConfig, CounterexampleBConfig

MASTER_SEED = 20260824  # the acceptance gate's seed
README = Path(__file__).resolve().parents[1] / "README.md"


def test_khintchine_singleton_ratio_one():
    mean_abs, ratio = khintchine_exact([1.0])
    assert mean_abs == 1.0 and ratio == 1.0


def test_khintchine_two_point_exact():
    # (1, 1)/sqrt(2): the four patterns give |sum| in {0, 2}/sqrt(2)
    _, ratio = khintchine_exact(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)


def test_khintchine_mc_matches_exact():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(10)
    _, exact = khintchine_exact(a)
    _, mc = khintchine_mc(a, 200_000, seed=42)
    assert abs(mc - exact) < 0.01


def test_khintchine_mc_thread_invariant():
    a = np.arange(1.0, 9.0)
    r1 = khintchine_mc(a, 10_000, seed=3, threads=1)
    r4 = khintchine_mc(a, 10_000, seed=3, threads=4)
    r8 = khintchine_mc(a, 10_000, seed=3, threads=8)
    assert r1 == r4 == r8


def _khintchine_one_shot(a):
    """The whole 2^L x L sign table in one matrix product: the oracle for the blocked
    enumeration of `khintchine_exact`."""
    a = np.asarray(a, dtype=float)
    bits = (np.arange(2**a.size)[:, None] >> np.arange(a.size)) & 1
    mean_abs = float(np.mean(np.abs((2.0 * bits - 1.0) @ a)))
    return mean_abs, mean_abs / float(np.linalg.norm(a))


def test_khintchine_exact_equals_the_one_shot_enumeration():
    # from L = 13 on, 2^L patterns span more than one block of 4096
    rng = np.random.default_rng(20)
    vectors = [[1.0], np.full(16, 0.25), np.full(17, 3.0)]
    for L in range(1, 18):
        vectors += [rng.standard_normal(L) * 10.0 ** rng.uniform(-3.0, 3.0, L) for _ in range(2)]
    for a in vectors:
        assert khintchine_exact(a) == _khintchine_one_shot(a)


def test_khintchine_exact_memory_is_one_array_plus_a_block():
    # the one-shot table of 2^18 x 18 int64 bits and its float copies peak at 76 MiB
    a = np.random.default_rng(18).standard_normal(18)
    tracemalloc.start()
    try:
        khintchine_exact(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_khintchine_refuses_sizes_above_20_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("signs drawn before the config was refused")

    monkeypatch.setattr(bimult.experiments, "khintchine_mc", no_draw)
    with pytest.raises(ValueError, match="sizes entry must be >= 1 and <= 20"):
        run_experiment("khintchine", {"sizes": [1, 2, 21]}, 0)
    with pytest.raises(ValueError, match="limited to 20"):
        khintchine_exact(np.ones(21))


def test_khintchine_rejects_zero_vector():
    with pytest.raises(ValueError):
        khintchine_exact([0.0, 0.0])
    with pytest.raises(ValueError):
        khintchine_mc([0.0], 10, seed=0)


def test_substream_independence():
    a = substream(5, 0).standard_normal(4)
    b = substream(5, 1).standard_normal(4)
    a2 = substream(5, 0).standard_normal(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("key", [(2**63, 0), (-(2**63) - 1, 0), (5, 2**63)])
def test_substream_rejects_keys_outside_int64(key):
    with pytest.raises(ValueError, match="outside signed 64-bit"):
        substream(*key)
    substream(2**63 - 1, -(2**63))  # the ends of the range are accepted


def test_counting_table_brute_force_agrees():
    rows = counting_table([2, 3, 17, 64])
    for row in rows:
        assert row["match"] and row["bruteMatch"]
    assert rows[0]["sumSquares"] == 6
    assert rows[1]["sumSquares"] == 19


def test_growth_B_prediction_band_small():
    cfg = CounterexampleBConfig(mode="desk", Ns=(1, 2), master_seed=7)
    rows = growth_experiment_B(cfg, seeds_per_block=8)
    for row in rows:
        assert 0.5 <= row["measuredOverPredicted"] <= 2.0


_POOL_FAMILIES = {
    "A": CounterexampleAConfig(block_b=(4, 16), dstar_exponent=0.125, master_seed=MASTER_SEED),
    "B": CounterexampleBConfig(mode="desk", Ns=(1, 2), master_seed=MASTER_SEED),
}


@pytest.mark.parametrize(
    "family, key, centered, pool",
    [
        pytest.param("A", 1, True, 4, id="A-block-center-1"),
        pytest.param("A", 2, True, 4, id="A-block-center-2"),
        pytest.param("A", 1, False, 4, id="A-origin-1"),
        pytest.param("A", 2, False, 4, id="A-origin-2"),
        pytest.param("B", 1, True, 4, id="B-block-center-1"),
        pytest.param("B", 2, True, 4, id="B-block-center-2"),
        pytest.param("A", 1, True, _POOL_BLOCK + 3, id="A-block-center-1-two-draw-blocks"),
        pytest.param("B", 1, False, _POOL_BLOCK + 3, id="B-origin-1-two-draw-blocks"),
    ],
)
def test_sign_pool_equals_symbol_rebuild(family, key, centered, pool):
    # oracle: the per-draw symbol rebuild the sign pool replaces, bit for bit
    cfg = _POOL_FAMILIES[family]
    center = cfg.center(key) if centered else 0
    f = cfg.test_function(key, center)
    ratios = _sign_pool_ratios(cfg, key, f, pool, center=center)
    assert len(ratios) == pool and len(set(ratios)) > 1
    for d, ratio in enumerate(ratios):
        m = cfg.block_symbol(key, cfg.block_seed(key, d), center)
        assert ratio == operator_ratio(m, f, f)


@pytest.mark.parametrize("family", ["A", "B"])
def test_sign_pool_is_thread_invariant(family):
    cfg = _POOL_FAMILIES[family]
    f = cfg.test_function(2)
    pools = [_sign_pool_ratios(cfg, 2, f, 2 * _POOL_BLOCK + 5, t) for t in (1, 2, 3)]
    assert pools[0] == pools[1] == pools[2]


def test_sign_pool_builds_no_symbol_grid(monkeypatch):
    # the pool sums each block's spectrum from its stamp: no (2F+1)^2 grid is allocated
    calls = []

    def record(owner, name):
        real = getattr(owner, name)

        def recording(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)

    record(bimult.symbols, "_stamped_grid")
    record(bimult.symbols._BlockFamily, "block_symbol")
    for family, key in (("A", 2), ("B", 2)):
        cfg = _POOL_FAMILIES[family]
        assert len(_sign_pool_ratios(cfg, key, cfg.test_function(key), 3)) == 3
    assert calls == []
    _POOL_FAMILIES["A"].block_symbol(1, None)  # the recording is live
    assert calls == ["block_symbol", "_stamped_grid"]


def test_levelset_grid_is_block_centered(monkeypatch):
    # the cross-check grid of paper N=2 sits in the block's own coordinates:
    # radius 20 * (16 + 1), not the 20 * (159 + 1) a grid at the origin needs
    built = []
    real = bimult.experiments.counterexample_B_block

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(bimult.experiments, "counterexample_B_block", recording)
    cfg = CounterexampleBConfig(mode="paper", Ns=(2,), master_seed=MASTER_SEED)
    rows = levelset_profile(cfg)
    assert [m.radius for m in built] == [340]
    assert max(row["dualPathRelErr"] for row in rows if "dualPathRelErr" in row) < 1e-12


def test_levelset_zero_above_sup():
    cfg = CounterexampleBConfig(mode="paper", Ns=(2,), master_seed=1)
    rows = levelset_profile(cfg, lambda_fractions=(1.5,))
    assert rows[0]["coeffMeasure"] == 0.0


def test_boundedness_corpus_normalization_invariant():
    # the normalized ratio is scale-free, so two corpora over scaled symbols
    # coincide; here we just pin the single-bump anchor against the bound
    res = boundedness_corpus("lattice", trials=5, master_seed=11)
    assert res["maxNormalizedRatio"] <= 3.0 * res["baseline"]
    assert res["baseline"] == pytest.approx(1.0, rel=1e-9)


def test_record_serialization_round_trip(tmp_path):
    rec = run_experiment("counting", {"M": [2, 3]}, master_seed=1)
    line = rec.to_json_line()
    back = ExperimentRecord.from_json_line(line)
    assert back.to_json_line() == line
    assert back.config_hash == rec.config_hash
    path = str(tmp_path / "out.jsonl")  # written as the CLI's `experiment` writes it
    bimult.cli._write_outputs({path: line + "\n"}, force=False)
    with pytest.raises(FileExistsError):
        bimult.cli._write_outputs({path: line + "\n"}, force=False)
    bimult.cli._write_outputs({path: line + "\n"}, force=True)
    assert ExperimentRecord.from_json_line(Path(path).read_text()).to_json_line() == line


def test_config_hash_canonical():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    assert canonical_json({"x": np.float64(1.5), "n": np.int64(3)}) == '{"n":3,"x":1.5}'


def test_experiment_rerun_byte_identical():
    cfg = {"mode": "desk", "N": [1, 2], "pool": 4}
    lines = set()
    for threads in (1, 4, 8):
        rec = run_experiment("growth-B", cfg, master_seed=7, threads=threads)
        lines.add(rec.to_json_line())
    assert len(lines) == 1


@pytest.mark.parametrize(
    "name, cfg",
    [
        pytest.param("growth-A", {"block_b": [4, 16], "pool": 37}, id="growth-A"),
        pytest.param("growth-B", {"N": [1, 2], "pool": 37}, id="growth-B"),
    ],
)
def test_growth_records_repeat_in_one_process(name, cfg):
    # nothing a pass leaves behind, and nothing the two pool threads share,
    # may change a byte: two passes at 2 threads, then one at 1 thread
    lines = [run_experiment(name, cfg, MASTER_SEED, t).to_json_line() for t in (2, 2, 1)]
    assert lines[0] == lines[1] == lines[2]
    assert json.loads(lines[0])["summary"]["passed"]


def test_growth_refuses_a_non_finite_ratio():
    cfg = {"dstar_exponent": -85, "block_b": [4, 16], "pool": 2}
    with pytest.raises(ValueError, match=r"block K=2, sign draw 0: .* not finite"):
        run_experiment("growth-A", cfg, master_seed=1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_record_with_nan_or_infinity_is_refused(tmp_path, monkeypatch, capsys, value):
    bad = ExperimentRecord("growth-A", {}, 1, [{"measured": value}], {"passed": True}, 0.0)
    with pytest.raises(ValueError, match="growth-A record holds NaN or Infinity"):
        bad.to_json_line()
    monkeypatch.setattr(bimult.cli, "run_experiment", lambda *args, **kwargs: bad)
    out = tmp_path / "out"
    assert bimult.cli.run(["experiment", "growth-A", "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: growth-A record holds NaN or Infinity\n"
    assert not out.exists()  # the record is serialized before the directory is made


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("bogus", {}, 0)


def test_readme_lists_the_declared_config_fields():
    lines = README.read_text().splitlines()
    table = lines[lines.index("| experiment | key | type | default |") + 2 :]
    listed = {}
    for line in itertools.takewhile(lambda text: text.startswith("|"), table):
        name, key, _, default = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        listed[name, key] = default
    declared = {}
    for name, runner in EXPERIMENTS.items():
        for key, (default, check) in runner.fields.items():
            check(key, default)  # every default passes its own check
            declared[name, key] = json.dumps(default)
    assert listed == declared
