"""Command-line interface: artifacts, exit codes, byte-level determinism."""

import hashlib
import json
import os
import struct
import sys

import numpy as np
import pytest

import bimult.bilinear
import bimult.cli
import bimult.symbols
from bimult.bilinear import SymbolGrid, apply_bilinear, operator_ratio, output_spectrum
from bimult.cli import read_symbol, run, write_symbol
from bimult.experiments import config_hash
from bimult.grid import FrequencyBox, SpectralVector, l1_norm, spectral_from_json, spectral_to_json
from bimult.rowcol import CoeffMatrix


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(CoeffMatrix({(0, 0): 1.0}).to_json())
    return str(path)


def test_decompose_single_entry(tmp_path, matrix_file):
    out = str(tmp_path / "part.json")
    assert run(["decompose", "--in", matrix_file, "--out", out]) == 0
    assert json.loads(open(out).read()) == [[0, 0, "S1"]]


def test_decompose_refuses_overwrite(tmp_path, matrix_file):
    out = str(tmp_path / "part.json")
    assert run(["decompose", "--in", matrix_file, "--out", out]) == 0
    assert run(["decompose", "--in", matrix_file, "--out", out]) == 1
    assert run(["decompose", "--in", matrix_file, "--out", out, "--force"]) == 0


def test_missing_seed_is_validation_error(tmp_path, matrix_file, monkeypatch):
    monkeypatch.delenv("BIMULT_SEED", raising=False)
    out = str(tmp_path / "sym.bin")
    rc = run(["gen-symbol", "--kind", "lattice", "--coeffs", matrix_file, "--out", out])
    assert rc == 1


def test_env_seed_fallback(tmp_path, matrix_file, monkeypatch):
    monkeypatch.setenv("BIMULT_SEED", "9")
    out = str(tmp_path / "sym.bin")
    rc = run(["gen-symbol", "--kind", "lattice", "--coeffs", matrix_file, "--out", out])
    assert rc == 0
    sidecar = json.loads(open(out + ".json").read())
    assert "configHash" in sidecar and "toolVersion" in sidecar


def test_symbol_binary_round_trip(tmp_path, matrix_file):
    out = str(tmp_path / "sym.bin")
    assert run([
        "gen-symbol", "--kind", "lattice", "--coeffs", matrix_file,
        "--resolution", "10", "--seed", "3", "--out", out,
    ]) == 0
    m = read_symbol(out)
    assert m.dim == 2 and m.spacing == pytest.approx(0.1)
    assert np.max(np.abs(m.values)) == pytest.approx(1.0, rel=1e-6)
    assert json.loads(open(out + ".json").read())["valueType"] == "complex64"


def test_apply_identity_bump(tmp_path, matrix_file, capsys):
    sym = str(tmp_path / "sym.bin")
    run(["gen-symbol", "--kind", "lattice", "--coeffs", matrix_file,
         "--resolution", "10", "--seed", "3", "--out", sym])
    box = FrequencyBox(1, 5, 2, 10.0)
    vals = np.zeros(11, dtype=complex)
    vals[5] = 1.0
    fpath = str(tmp_path / "f.json")
    open(fpath, "w").write(spectral_to_json(SpectralVector(box, vals)))
    rc = run(["apply", "--symbol", sym, "--f", fpath, "--g", fpath])
    assert rc == 0
    assert "operatorRatio=1" in capsys.readouterr().out


def test_experiment_counting_exit_codes(tmp_path):
    rc = run(["experiment", "counting", "--M", "2,3,32", "--seed", "1",
              "--out", str(tmp_path)])
    assert rc == 0
    files = [f for f in os.listdir(tmp_path) if f.endswith(".jsonl")]
    assert len(files) == 1 and files[0].startswith("counting-")


def test_experiment_threshold_failure_exit_2(tmp_path):
    # an impossible prediction band forces summary.passed = False
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"mode": "desk", "N": [1], "pool": 2,
                                "band_lo": 100.0, "band_hi": 200.0}))
    rc = run(["experiment", "growth-B", "--config", str(cfgp), "--seed", "1",
              "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "name, config, naming",
    [
        ("growth-B", {"mode": "desk", "N": []}, "N must name at least one block"),
        ("growth-A", {"block_b": []}, "block_b must name at least one block"),
        ("growth-A", {"block_b": [4], "pool": 0}, "pool must be >= 1"),
        ("growth-B", {"mode": "desk", "N": [1], "pool": 0}, "pool must be >= 1"),
    ],
)
def test_growth_rejects_empty_blocks_and_pool(tmp_path, capsys, name, config, naming):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = run(["experiment", name, "--config", str(cfgp), "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert _one_line_error(capsys, naming)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, naming",
    [
        ("boundedness", {"trials": 0}, "trials must be >= 1"),
        ("khintchine", {"sizes": []}, "sizes must name at least one size"),
        ("counting", {"M": []}, "M must name at least one size"),
        ("growth-B", {"pol": 5}, "not 'pol'"),
        ("growth-B", {"band_lo": 5}, "band_lo 5.0 must be below band_hi 2.0"),
        ("khintchine", {"sizes": "x"}, "sizes must name at least one size"),
        ("khintchine", {"sizes": [1.5]}, "sizes entry must be >= 1"),
        ("growth-B", {"pool": True}, "pool must be >= 1"),
        ("growth-A", {"dstar_exponent": float("nan")}, "dstar_exponent must be a finite number"),
        ("growth-B", {"band_hi": 10**400}, "band_hi must be a finite number"),
        ("levelset", {"alphas": [float("inf")]}, "alphas entry must be a finite number"),
        ("khintchine --resolution 7", {}, "not 'resolution'"),
        ("khintchine", {"sizes": [1, 2, 21]}, "sizes entry must be >= 1 and <= 20"),
    ],
)
def test_experiment_rejects_configs_that_check_nothing(tmp_path, capsys, command, config, naming):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["experiment", *command.split(), "--config", str(cfgp), "--seed", "1", "--out", str(out)]
    assert run(argv) == 1
    assert _one_line_error(capsys, naming)
    assert not out.exists()


def test_experiment_with_infinite_ratio_is_one_line_error(tmp_path, capsys):
    # d*(t) = t^85 overflows the operator ratio of block 2: no record, no PASS
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"dstar_exponent": -85, "block_b": [4, 16], "pool": 2}))
    out = tmp_path / "out"
    argv = ["experiment", "growth-A", "--config", str(cfgp), "--seed", "1", "--out", str(out)]
    assert run(argv) == 1
    assert _one_line_error(capsys, "not finite")
    assert not out.exists()


def test_experiment_byte_identical_across_workers(tmp_path):
    blobs = []
    for i, threads in enumerate((1, 4, 8)):
        out = tmp_path / f"w{i}"
        rc = run(["experiment", "growth-B", "--mode", "desk", "--N", "1,2",
                  "--pool", "4", "--seed", "7", "--threads", str(threads),
                  "--out", str(out)])
        assert rc == 0
        files = os.listdir(out)
        assert len(files) == 1
        blobs.append(open(out / files[0], "rb").read())
    assert blobs[0] == blobs[1] == blobs[2]


def test_report_merges_records(tmp_path):
    run(["experiment", "counting", "--M", "2,3", "--seed", "1", "--out", str(tmp_path)])
    run(["experiment", "growth-B", "--mode", "desk", "--N", "1", "--pool", "2",
         "--seed", "2", "--out", str(tmp_path)])
    rep = tmp_path / "rep"
    rc = run(["report", str(tmp_path / "*.jsonl"), "--out", str(rep)])
    assert rc == 0
    summary = open(rep / "summary.csv").read().splitlines()
    assert len(summary) == 3  # header + 2 records
    dats = [f for f in os.listdir(rep) if f.endswith(".dat")]
    assert len(dats) == 2
    # two-column plain text plot data
    for dat in dats:
        for line in open(rep / dat):
            assert len(line.split()) == 2


def test_report_refuses_before_writing_anything(tmp_path, capsys):
    run(["experiment", "counting", "--M", "2,3", "--seed", "1", "--out", str(tmp_path)])
    rep = tmp_path / "rep"
    rep.mkdir()
    dat = rep / f"counting-{config_hash({'M': [2, 3]})}-1.dat"
    dat.write_text("kept\n")
    assert run(["report", str(tmp_path / "*.jsonl"), "--out", str(rep)]) == 1
    assert _one_line_error(capsys, "refusing to overwrite")
    assert os.listdir(rep) == [dat.name] and dat.read_text() == "kept\n"
    assert run(["report", str(tmp_path / "*.jsonl"), "--out", str(rep), "--force"]) == 0
    assert sorted(os.listdir(rep)) == [dat.name, "summary.csv"]
    assert dat.read_text() == "2 6\n3 19\n"


@pytest.mark.parametrize(
    "line",
    ["[1]", "{}", "not json",
     '{"experimentName": "counting", "config": {}, "masterSeed": 1, "perTrialResults": [],'
     ' "summary": [1]}',
     '{"experimentName": "counting", "config": {}, "masterSeed": 1, "perTrialResults": [1],'
     ' "summary": {}}',
     '{"experimentName": "counting", "config": {}, "masterSeed": 1, "perTrialResults": [],'
     ' "summary": {"low": NaN, "high": Infinity}}',
     '{"experimentName": "counting", "config": {}, "masterSeed": 1,'
     ' "perTrialResults": [{"M": -Infinity}], "summary": {}}',
     '{"experimentName": "counting", "config": {"M": [1e400]}, "masterSeed": 1,'
     ' "perTrialResults": [], "summary": {}}'],
    ids=["list", "empty", "not-json", "summary-list", "row-int", "summary-nan", "row-infinity",
         "config-overflows"],
)
def test_report_malformed_record_is_one_line_error(tmp_path, capsys, line):
    run(["experiment", "counting", "--M", "2,3", "--seed", "1", "--out", str(tmp_path)])
    (path,) = tmp_path.glob("*.jsonl")
    path.write_text(path.read_text() + line + "\n")
    rep = tmp_path / "rep"
    assert run(["report", str(path), "--out", str(rep)]) == 1
    assert _one_line_error(capsys, f"{path}, line 2: ")
    assert not rep.exists()


def test_report_empty_glob(tmp_path):
    rep = tmp_path / "rep"
    rc = run(["report", str(tmp_path / "none-*.jsonl"), "--out", str(rep)])
    assert rc == 0
    assert open(rep / "summary.csv").read().startswith("experimentName")


def test_unknown_subcommand_is_error():
    assert run(["frobnicate"]) == 1


def test_write_symbol_refuses_overwrite(tmp_path):
    m = SymbolGrid(2, 1, np.ones((3, 3)), 0.5)
    path = str(tmp_path / "s.bin")
    write_symbol(path, m, {})
    with pytest.raises(FileExistsError):
        write_symbol(path, m, {})
    write_symbol(path, m, {}, force=True)


def test_write_symbol_refusal_leaves_no_half_pair(tmp_path):
    # only the sidecar exists: the refusal must come before the .bin is written
    m = SymbolGrid(2, 1, np.ones((3, 3)), 0.5)
    path = str(tmp_path / "s.bin")
    open(path + ".json", "w").write("{}\n")
    with pytest.raises(FileExistsError, match="refusing to overwrite"):
        write_symbol(path, m, {})
    assert not os.path.exists(path)
    assert open(path + ".json").read() == "{}\n"


def _fail_on_second_chunk(monkeypatch):
    # the disk fills while the second chunk of samples is written
    real = bimult.cli._chunks

    def chunks(*args):
        for i, part in enumerate(real(*args)):
            if i == 1:
                raise OSError(28, "No space left on device")
            yield part

    monkeypatch.setattr(bimult.cli, "_chunks", chunks)


def test_write_symbol_failing_partway_leaves_nothing(tmp_path, monkeypatch):
    m = SymbolGrid(2, 400, np.ones((801, 801)), 0.5)  # three chunks of samples
    path = str(tmp_path / "s.bin")
    with monkeypatch.context() as patched:
        _fail_on_second_chunk(patched)
        with pytest.raises(OSError, match="No space left on device"):
            write_symbol(path, m, {})
    assert os.listdir(tmp_path) == []  # no symbol file, no sidecar, no temporary file
    write_symbol(path, m, {})  # nothing left behind to refuse
    assert sorted(os.listdir(tmp_path)) == ["s.bin", "s.bin.json"]


def test_failed_forced_rewrite_keeps_the_old_pair(tmp_path, monkeypatch):
    path = str(tmp_path / "s.bin")
    write_symbol(path, SymbolGrid(2, 400, np.ones((801, 801)), 0.5), {"run": 1})
    pair = (tmp_path / "s.bin", tmp_path / "s.bin.json")
    old = [p.read_bytes() for p in pair]
    _fail_on_second_chunk(monkeypatch)
    with pytest.raises(OSError, match="No space left on device"):
        write_symbol(path, SymbolGrid(2, 400, np.full((801, 801), 2.0), 0.5), {"run": 2},
                     force=True)
    assert [p.read_bytes() for p in pair] == old
    assert sorted(os.listdir(tmp_path)) == ["s.bin", "s.bin.json"]


def test_report_failing_on_its_second_output_writes_none(tmp_path, capsys, monkeypatch):
    run(["experiment", "counting", "--M", "2,3", "--seed", "1", "--out", str(tmp_path)])
    rep = tmp_path / "rep"
    opened = []

    def failing_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append(file)
            if len(opened) == 2:  # summary.csv is complete, the .dat file cannot be made
                raise OSError(28, "No space left on device")
        return open(file, mode, *args, **kwargs)

    capsys.readouterr()
    monkeypatch.setattr(bimult.cli, "open", failing_open, raising=False)
    assert run(["report", str(tmp_path / "*.jsonl"), "--out", str(rep)]) == 1
    assert _one_line_error(capsys, "No space left on device")
    assert os.path.basename(opened[0]).startswith("summary.csv")
    assert not rep.exists()


def test_experiment_failing_on_its_write_leaves_no_directory(tmp_path, capsys, monkeypatch):
    def failing_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            raise OSError(28, "No space left on device")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(bimult.cli, "open", failing_open, raising=False)
    out = tmp_path / "runs" / "today"
    assert run(["experiment", "counting", "--M", "2,3", "--seed", "1", "--out", str(out)]) == 1
    assert _one_line_error(capsys, "No space left on device")
    assert os.listdir(tmp_path) == []


def test_outputs_go_into_missing_directories(tmp_path, matrix_file):
    # every command makes a missing output directory; the writer is shared, so one stands for all
    part = tmp_path / "new" / "part.json"
    assert run(["decompose", "--in", matrix_file, "--out", str(part)]) == 0
    assert json.loads(part.read_text()) == [[0, 0, "S1"]]


def test_json_outputs_refuse_nan(tmp_path):
    m = SymbolGrid(2, 1, np.ones((3, 3)), 0.5)
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_symbol(str(tmp_path / "s.bin"), m, {"note": float("nan")})
    assert os.listdir(tmp_path) == []


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_gen_symbol_non_finite_exponent_is_one_line_error(tmp_path, capsys, value):
    out = tmp_path / "sym.bin"
    argv = ["gen-symbol", "--kind", "block-A", f"--exponent={value}", "--seed", "1"]
    assert run(argv + ["--out", str(out)]) == 1
    assert _one_line_error(capsys, f"--exponent must be a finite number, not {value}")
    assert os.listdir(tmp_path) == []


def test_symbol_file_bytes_are_pinned(tmp_path):
    # format v1: b"BMLT", <IIId (version, dim, radius, spacing), <c8 row-major
    m = SymbolGrid(2, 3, np.arange(49).reshape(7, 7) * (0.5 - 0.25j) + 1j / 3, 0.125)
    path = tmp_path / "s.bin"
    write_symbol(str(path), m, {})
    data = path.read_bytes()
    assert len(data) == 24 + 8 * 49
    assert hashlib.sha256(data).hexdigest() == (
        "0894e45c2be22357a2d8a0a4a37344911bb6c7eed6154666fb7b7c49695faddf"
    )


@pytest.mark.parametrize(
    "kind, index, bin_sha, json_sha",
    [
        ("block-A", ["--K", "1"],
         "7c78e5e258fcddf7d5d4dffbf98c1eb8da69c36d46bee7fbd599775add87d2ff",
         "0851ac52d9414d09ad58fbd8732998052096dbcfc61efb4492053afc15ae22da"),
        ("block-B", ["--N", "1"],
         "24966e0b6954c1bb179804f9ca4becc1205b3d2a416a47201ee88658d4d20555",
         "aae65298b84748f3e630bbf19981e84156cd0bf2d9c8101d2d790f3aa2998bc0"),
    ],
    ids=["block-A", "block-B"],
)
def test_block_symbol_files_are_pinned(tmp_path, kind, index, bin_sha, json_sha):
    # the counterexample block builders, byte for byte: samples, spacing and sidecar
    out = tmp_path / "sym.bin"
    assert run(["gen-symbol", "--kind", kind, *index, "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == bin_sha
    assert hashlib.sha256((tmp_path / "sym.bin.json").read_bytes()).hexdigest() == json_sha


@pytest.mark.parametrize("radius", [400, 3])
def test_symbol_file_round_trip_across_chunks(tmp_path, radius):
    side = 2 * radius + 1
    chunk = bimult.cli._CHUNK
    # radius 400: more than two chunks, the last one partial; radius 3: under one
    assert side**2 < chunk or (side**2 > 2 * chunk and side**2 % chunk != 0)
    rng = np.random.default_rng(radius)
    values = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    m = SymbolGrid(2, radius, values, 0.5)
    path = str(tmp_path / "s.bin")
    write_symbol(path, m, {})
    back = read_symbol(path)
    assert back.values.dtype == complex
    assert np.array_equal(back.values, m.values.astype(np.complex64).astype(complex))
    assert (back.dim, back.radius, back.spacing) == (m.dim, m.radius, m.spacing)


def test_experiment_refuses_before_running(tmp_path, monkeypatch):
    target = tmp_path / f"counting-{config_hash({'M': [2, 3]})}-1.jsonl"
    target.write_text("kept\n")
    calls = []
    real = bimult.cli.run_experiment

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bimult.cli, "run_experiment", recording)
    rc = run(["experiment", "counting", "--M", "2,3", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 1
    assert calls == []
    assert target.read_text() == "kept\n"


def _apply_inputs(tmp_path, f_vals):
    sym = str(tmp_path / "sym.bin")
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(CoeffMatrix({(0, 0): 1.0, (1, -1): 0.5 - 0.25j}).to_json())
    assert run(["gen-symbol", "--kind", "lattice", "--coeffs", str(coeffs),
                "--resolution", "10", "--seed", "3", "--out", sym]) == 0
    box = FrequencyBox(1, 12, 2, 10.0)
    rng = np.random.default_rng(5)
    g = SpectralVector(box, rng.standard_normal(25) + 1j * rng.standard_normal(25))
    f = SpectralVector(box, f_vals(rng, 25))
    paths = []
    for name, vec in (("f", f), ("g", g)):
        paths.append(str(tmp_path / f"{name}.json"))
        open(paths[-1], "w").write(spectral_to_json(vec))
    return sym, paths


def test_apply_payload_matches_library_exactly(tmp_path):
    sym, (fpath, gpath) = _apply_inputs(
        tmp_path, lambda rng, n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    out = str(tmp_path / "apply.json")
    assert run(["apply", "--symbol", sym, "--f", fpath, "--g", gpath, "--out", out]) == 0
    payload = json.loads(open(out).read())
    m = read_symbol(sym)
    f = spectral_from_json(open(fpath).read())
    g = spectral_from_json(open(gpath).read())
    assert payload["operatorRatio"] == operator_ratio(m, f, g)
    assert payload["l1Norm"] == l1_norm(apply_bilinear(m, f, g))


def _symbol_and_inputs(tmp_path, dim, radius, input_radius, zero_f=False):
    """A random symbol file of radius `radius` and random inputs of radius `input_radius`."""
    side, n = 2 * radius + 1, dim // 2
    rng = np.random.default_rng([dim, radius, input_radius])
    m = SymbolGrid(dim, radius, rng.standard_normal((side,) * dim)
                   + 1j * rng.standard_normal((side,) * dim), 0.5)
    sym = str(tmp_path / "s.bin")
    write_symbol(sym, m, {})
    box = FrequencyBox(n, input_radius, 2, 2.0)
    shape = box.lattice_shape
    vecs = [SpectralVector(box, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in "fg"]
    if zero_f:
        vecs[0].values[..., ::2] = 0
    paths = []
    for name, vec in zip("fg", vecs):
        paths.append(str(tmp_path / f"{name}.json"))
        open(paths[-1], "w").write(spectral_to_json(vec))
    return sym, paths


@pytest.mark.parametrize(
    "dim, radius, input_radius, zero_f",
    [(2, 20, 7, False), (2, 400, 400, False), (4, 11, 8, False), (2, 20, 20, True)],
    ids=["inner-band", "over-two-chunks", "dim4", "zero-f-entries"],
)
def test_streamed_apply_equals_in_memory_operator(tmp_path, dim, radius, input_radius, zero_f):
    sym, (fpath, gpath) = _symbol_and_inputs(tmp_path, dim, radius, input_radius, zero_f)
    side = 2 * radius + 1
    if radius == 400:  # three chunks of whole rows, the last one partial
        rows_per_chunk = bimult.cli._CHUNK // side
        assert 2 * rows_per_chunk < side and side % rows_per_chunk != 0
    if dim == 4:  # two chunks: the rows of one xi do not tile 2^18 samples
        assert side**4 > bimult.cli._CHUNK
    out = str(tmp_path / "apply.json")
    assert run(["apply", "--symbol", sym, "--f", fpath, "--g", gpath, "--out", out]) == 0
    payload = json.loads(open(out).read())
    m = read_symbol(sym)
    f = spectral_from_json(open(fpath).read())
    g = spectral_from_json(open(gpath).read())
    assert bool(np.any(f.values == 0)) == zero_f
    assert payload["operatorRatio"] == operator_ratio(m, f, g)
    assert payload["l1Norm"] == l1_norm(apply_bilinear(m, f, g))


@pytest.mark.parametrize(
    "xi, eta", [((0,), (20,)), ((20,), (0,))], ids=["unused-row", "outside-band-in-row"]
)
def test_apply_refuses_non_finite_sample_outside_input_box(tmp_path, capsys, xi, eta):
    # inputs of radius 7 use only the rows xi in 13..27 and, in them, eta in 13..27
    sym, (fpath, gpath) = _symbol_and_inputs(tmp_path, 2, 20, 7)
    offset = 24 + 8 * np.ravel_multi_index(xi + eta, (41, 41))
    with open(sym, "r+b") as fh:
        fh.seek(offset)
        fh.write(struct.pack("<ff", float("nan"), 0.0))
    capsys.readouterr()
    assert run(["apply", "--symbol", sym, "--f", fpath, "--g", gpath]) == 1
    assert _one_line_error(capsys, naming=sym)


@pytest.mark.parametrize("xi", [25, 2], ids=["row-in-band", "row-outside-band"])
def test_apply_refuses_nan_alone_in_zero_row(tmp_path, capsys, xi):
    # inputs of radius 12 use the rows 8..32 of the radius-20 lattice symbol;
    # row xi is all zero, so the NaN is the only nonzero sample of its row
    sym, (fpath, gpath) = _apply_inputs(
        tmp_path, lambda rng, n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    assert not any(read_symbol(sym).values[xi].tobytes())
    with open(sym, "r+b") as fh:
        fh.seek(24 + 8 * (41 * xi + 20))
        fh.write(struct.pack("<ff", float("nan"), 0.0))
    capsys.readouterr()
    assert run(["apply", "--symbol", sym, "--f", fpath, "--g", gpath]) == 1
    assert _one_line_error(capsys, naming=sym)


def test_all_zero_rows_never_reach_the_term_buffer(tmp_path, monkeypatch):
    # the lattice symbol is zero but for its two bumps' rows; f has no zero entry
    sym, (fpath, gpath) = _apply_inputs(tmp_path, lambda rng, n: rng.standard_normal(n) + 1j)
    m = read_symbol(sym)
    f = spectral_from_json(open(fpath).read())
    g = spectral_from_json(open(gpath).read())
    band = m.values[8:33, 8:33]
    nonzero = [(i,) for i in range(25) if np.any(band[i])]
    assert len(nonzero) == 2 and np.count_nonzero(m.values) == np.count_nonzero(band)
    real = bimult.bilinear._accumulate
    drawn = []

    def spy(rows, f, g):
        def recorded():
            for xi, row in rows:
                drawn.append((xi, any(row.tobytes())))
                yield xi, row
        return real(recorded(), f, g)

    monkeypatch.setattr(bimult.bilinear, "_accumulate", spy)
    expected = [(xi, True) for xi in nonzero]
    output_spectrum(m, f, g)
    assert drawn == expected
    drawn.clear()
    assert run(["apply", "--symbol", sym, "--f", fpath, "--g", gpath]) == 0
    assert drawn == expected


@pytest.mark.parametrize("index", [0, 801**2 - 1], ids=["first-chunk", "last-chunk"])
@pytest.mark.parametrize("sample", [(float("nan"), 0.0), (0.0, float("-inf"))], ids=["nan", "inf"])
def test_read_symbol_refuses_non_finite_sample(tmp_path, index, sample):
    # read_symbol relies on the per-chunk check alone: a bad sample in any chunk is refused
    m = SymbolGrid(2, 400, np.ones((801, 801)), 0.5)
    path = str(tmp_path / "s.bin")
    write_symbol(path, m, {})
    with open(path, "r+b") as fh:
        fh.seek(24 + 8 * index)
        fh.write(struct.pack("<ff", *sample))
    with pytest.raises(ValueError, match="non-finite symbol sample"):
        read_symbol(path)


def test_apply_zero_norm_input_is_one_line_error(tmp_path, capsys):
    sym, (fpath, gpath) = _apply_inputs(tmp_path, lambda rng, n: np.zeros(n, dtype=complex))
    out = str(tmp_path / "apply.json")
    rc = run(["apply", "--symbol", sym, "--f", fpath, "--g", gpath, "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
@pytest.mark.parametrize(
    "value, naming",
    [(1e134, "operator ratio inf is not finite"), (1e135, "spectral values must be finite")],
    ids=["l1-overflows", "spectrum-overflows"],
)
def test_apply_overflow_is_one_line_error(tmp_path, capsys, value, naming):
    # m = 3e38 (complex64 holds it), f = g = value: T_m(f, g) or its L1 norm overflows
    sym, fpath, out = (tmp_path / name for name in ("sym.bin", "f.json", "apply.json"))
    write_symbol(str(sym), SymbolGrid(2, 2, np.full((5, 5), 3e38), 1.0), {})
    fpath.write_text(spectral_to_json(SpectralVector(FrequencyBox(1, 2, 2, 1.0), np.full(5, value))))
    capsys.readouterr()
    argv = ["apply", "--symbol", str(sym), "--f", str(fpath), "--g", str(fpath), "--out", str(out)]
    assert run(argv) == 1
    assert _one_line_error(capsys, naming)
    assert not out.exists()


def test_apply_refuses_before_computing(tmp_path, monkeypatch):
    sym, (fpath, gpath) = _apply_inputs(
        tmp_path, lambda rng, n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    out = tmp_path / "apply.json"
    out.write_text("kept\n")
    calls = []
    for name in ("_open_symbol", "stream_output_spectrum"):  # reading, computing
        real = getattr(bimult.cli, name)

        def recording(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(bimult.cli, name, recording)
    rc = run(["apply", "--symbol", sym, "--f", fpath, "--g", gpath, "--out", str(out)])
    assert rc == 1
    assert calls == []
    assert out.read_text() == "kept\n"
    assert run(["apply", "--symbol", sym, "--f", fpath, "--g", gpath, "--out", str(out),
                "--force"]) == 0
    assert calls == ["_open_symbol", "stream_output_spectrum"]


def test_decompose_refuses_before_computing(tmp_path, monkeypatch, matrix_file):
    out = tmp_path / "part.json"
    out.write_text("kept\n")
    calls = []
    for name in ("decompose", "verify_partition"):
        real = getattr(bimult.cli, name)

        def recording(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(bimult.cli, name, recording)
    assert run(["decompose", "--in", matrix_file, "--out", str(out)]) == 1
    assert calls == []
    assert out.read_text() == "kept\n"
    assert run(["decompose", "--in", matrix_file, "--out", str(out), "--force"]) == 0
    assert calls == ["decompose", "verify_partition"]


def _one_line_error(capsys, naming: str = "") -> bool:
    err = capsys.readouterr().err
    return (
        err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        and naming in err
    )


def test_apply_nan_input_is_one_line_error(tmp_path, capsys):
    sym, (fpath, gpath) = _apply_inputs(
        tmp_path, lambda rng, n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    payload = json.loads(open(fpath).read())
    payload["values"][3][0] = float("nan")
    open(fpath, "w").write(json.dumps(payload))
    assert run(["apply", "--symbol", sym, "--f", fpath, "--g", gpath]) == 1
    assert _one_line_error(capsys)


def test_decompose_repeated_key_is_one_line_error(tmp_path, capsys):
    infile = tmp_path / "matrix.json"
    infile.write_text("[[0, 1, 1.0, 0.0], [2, 2, 0.5, 0.0], [0, 1, 0.25, 0.0]]")
    out = tmp_path / "part.json"
    assert run(["decompose", "--in", str(infile), "--out", str(out)]) == 1
    assert _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda data: data[:14],  # shorter than the 24-byte header
        lambda data: data[:-8],  # the data block lacks its last sample
        lambda data: data[:4] + struct.pack("<IIId", 1, 2, 2**31, 0.1) + data[24:],  # radius
        lambda data: data[:4] + struct.pack("<IIId", 1, 2**20, 1, 0.1) + data[24:],  # dim
        lambda data: data[:4] + struct.pack("<IIId", 1, 1, 840, 0.1) + data[24:],  # 41^2 = 1681
        lambda data: data[:4] + struct.pack("<IIId", 1, 2, 20, float("nan")) + data[24:],
    ],
    ids=["short-header", "short-data", "huge-radius", "huge-dim", "odd-dim", "nan-spacing"],
)
def test_apply_bad_symbol_file_is_one_line_error(tmp_path, capsys, corrupt):
    sym, (fpath, gpath) = _apply_inputs(
        tmp_path, lambda rng, n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    with open(sym, "rb") as fh:
        data = fh.read()
    with open(sym, "wb") as fh:
        fh.write(corrupt(data))
    capsys.readouterr()
    assert run(["apply", "--symbol", sym, "--f", fpath, "--g", gpath]) == 1
    assert _one_line_error(capsys, naming=sym)


_HUGE = "1" + "0" * 400  # a JSON integer too large for a float
_MAX_PLUS_ONE = int(sys.float_info.max) + 1  # rounds to a finite float; refused exactly


@pytest.mark.parametrize(
    "rows",
    ["[1, 2]", '[[0, 0, "x", 0]]', "[[0, 0, true, 0]]", "{}",
     pytest.param(f"[[0, 0, {_HUGE}, 0]]", id="huge-re"),
     pytest.param(f"[[0, 0, 1.0, -{_HUGE}]]", id="huge-im"),
     pytest.param("[[0, 0, NaN, 0]]", id="nan"),
     pytest.param("[[0, 0, 1.0, Infinity]]", id="inf"),
     pytest.param("[[0, 0, -Infinity, 0]]", id="minus-inf"),
     pytest.param("[[0, 0, 1e400, 0]]", id="float-literal-1e400"),
     pytest.param("[[0, 0, 1.0, -1e400]]", id="float-literal-minus-1e400"),
     pytest.param("[[1.0, 0, 1.0, 0]]", id="k-float"),
     pytest.param("[[0, 1.0, 1.0, 0]]", id="l-float"),
     pytest.param("[[true, 0, 1.0, 0]]", id="k-true"),
     pytest.param("[[0, true, 1.0, 0]]", id="l-true"),
     pytest.param("[[null, 0, 1.0, 0]]", id="k-null"),
     pytest.param("[[0, null, 1.0, 0]]", id="l-null"),
     pytest.param("[[0, 0, 1.0, 0.0, 0.0]]", id="row-of-5"),
     pytest.param("[[0, 0, [1.0], 0.0]]", id="nested-re"),
     pytest.param(f"[[0, 0, {_MAX_PLUS_ONE}, 0]]", id="max-plus-one")],
)
@pytest.mark.parametrize("command", ["decompose", "gen-symbol"])
def test_malformed_coeff_rows_are_one_line_errors(tmp_path, capsys, command, rows):
    infile = tmp_path / "matrix.json"
    infile.write_text(rows)
    out = tmp_path / "out"
    argv = {
        "decompose": ["decompose", "--in", str(infile), "--out", str(out)],
        "gen-symbol": ["gen-symbol", "--kind", "lattice", "--coeffs", str(infile),
                       "--seed", "1", "--out", str(out)],
    }[command]
    assert run(argv) == 1
    assert _one_line_error(capsys, naming="coefficient JSON")
    assert not out.exists()


def test_khintchine_seed_overflow_is_one_line_error(tmp_path, capsys):
    # in range itself, but the per-size Monte Carlo seed master_seed * 1000 + t is not
    rc = run(["experiment", "khintchine", "--seed", "9300000000000000", "--out", str(tmp_path)])
    assert rc == 1
    assert _one_line_error(capsys)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("seed", [str(2**63), str(-(2**63) - 1)])
def test_seed_outside_int64_is_rejected(tmp_path, capsys, monkeypatch, matrix_file, seed):
    out = str(tmp_path / "sym.bin")
    argv = ["gen-symbol", "--kind", "lattice", "--coeffs", matrix_file, "--out", out]
    assert run(argv + ["--seed", seed]) == 1
    assert _one_line_error(capsys)
    monkeypatch.setenv("BIMULT_SEED", seed)
    assert run(argv) == 1
    assert _one_line_error(capsys)
    assert not os.path.exists(out)
    monkeypatch.setenv("BIMULT_SEED", str(2**63 - 1))
    assert run(argv) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "block-A", "--K", "0"],
        ["--kind", "block-A", "--K", "-2"],
        ["--kind", "block-A", "--resolution", "0"],
        ["--kind", "block-B", "--resolution", "0"],
        ["--kind", "lattice", "--resolution", "0", "--coeffs", "COEFFS"],
        ["--kind", "lattice"],
    ],
    ids=["A-K0", "A-K-2", "A-res0", "B-res0", "lattice-res0", "lattice-no-coeffs"],
)
def test_gen_symbol_bad_block_config_is_one_line_error(tmp_path, capsys, matrix_file, argv):
    out = tmp_path / "sym.bin"
    argv = [matrix_file if a == "COEFFS" else a for a in argv]
    assert run(["gen-symbol", *argv, "--seed", "1", "--out", str(out)]) == 1
    assert _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["--kind", "block-B", "--N", "25"], ["--kind", "block-A", "--K", "15"]],
    ids=["B-N25", "A-K15"],
)
def test_gen_symbol_oversized_block_is_refused_before_any_sign(tmp_path, capsys, monkeypatch,
                                                               argv):
    # 2.25e15 and 2.1e9 anti-diagonal signs: the grid must be refused before they are drawn
    def no_signs(self, ls):
        raise AssertionError(f"{len(ls)} signs drawn before the grid was allocated")

    monkeypatch.setattr(bimult.symbols.SignAssignment, "signs", no_signs)
    out = tmp_path / "sym.bin"
    assert run(["gen-symbol", *argv, "--seed", "1", "--out", str(out)]) == 1
    assert _one_line_error(capsys, naming="array is too big")
    assert not out.exists()


@pytest.mark.parametrize(
    "key", [1_000_000, 2**62], ids=["grid-too-large", "grid-side-overflows"]
)
def test_gen_symbol_key_far_from_origin_is_one_line_error(tmp_path, capsys, key):
    # both grids are refused before any sample is allocated: 22.7 PiB, and a side
    # length past the C long
    coeffs = tmp_path / "far.json"
    coeffs.write_text(f"[[{key}, 0, 1.0, 0.0]]")
    out = tmp_path / "sym.bin"
    argv = ["gen-symbol", "--kind", "lattice", "--coeffs", str(coeffs), "--seed", "1",
            "--out", str(out)]
    assert run(argv) == 1
    assert _one_line_error(capsys)
    assert not out.exists() and not (tmp_path / "sym.bin.json").exists()


@pytest.mark.parametrize("row", [[2**63, 0], [0, -(2**63) - 1]], ids=["k", "l"])
@pytest.mark.parametrize("command", ["decompose", "gen-symbol"])
def test_coeff_key_outside_int64_is_one_line_error(tmp_path, capsys, command, row):
    infile = tmp_path / "matrix.json"
    infile.write_text(json.dumps([[0, 0, 1.0, 0.0], row + [0.5, 0.0]]))
    out = tmp_path / "out"
    argv = {
        "decompose": ["decompose", "--in", str(infile), "--out", str(out)],
        "gen-symbol": ["gen-symbol", "--kind", "lattice", "--coeffs", str(infile),
                       "--seed", "1", "--out", str(out)],
    }[command]
    assert run(argv) == 1
    assert _one_line_error(capsys, naming="signed 64-bit")
    assert not out.exists() and not (tmp_path / "out.json").exists()


def test_runs_in_one_process_share_no_parser_state(tmp_path, capsys, matrix_file):
    # the parser is built once per process; each run parses its own flags
    sym, part = str(tmp_path / "sym.bin"), tmp_path / "part.json"
    part.write_text("kept\n")
    assert run(["gen-symbol", "--kind", "lattice", "--coeffs", matrix_file, "--seed", "1",
                "--out", sym, "--force"]) == 0
    assert run(["decompose", "--in", matrix_file, "--out", str(part)]) == 1
    assert part.read_text() == "kept\n"
    assert run(["gen-symbol", "--kind", "lattice", "--coeffs", matrix_file, "--seed", "1",
                "--out", sym]) == 1
    assert run(["decompose", "--in", matrix_file, "--out", str(part), "--force"]) == 0
    assert json.loads(part.read_text()) == [[0, 0, "S1"]]
    parser = bimult.cli._build_parser()
    assert parser is bimult.cli._build_parser()
    first = parser.parse_args(["gen-symbol", "--kind", "block-B", "--N", "2", "--out", "x"])
    second = parser.parse_args(["gen-symbol", "--kind", "lattice", "--out", "y"])
    assert (first.N, first.force, second.N, second.force) == (2, False, 1, False)


def test_experiment_non_object_config_is_one_line_error(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text("[1]")
    out = tmp_path / "out"
    argv = ["experiment", "khintchine", "--config", str(config), "--seed", "1", "--out", str(out)]
    assert run(argv) == 1
    assert _one_line_error(capsys, naming="JSON object")
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-symbol", "decompose", "apply", "experiment",
                                     "report"])
def test_deeply_nested_json_is_one_line_error(tmp_path, capsys, command):
    # deeper than the interpreter's recursion limit: json raises RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    out = tmp_path / "out"
    sym, (_, gpath) = _apply_inputs(tmp_path, lambda rng, n: rng.standard_normal(n) + 0j)
    argv = {
        "gen-symbol": ["gen-symbol", "--kind", "lattice", "--coeffs", str(deep), "--seed", "1",
                       "--out", str(out)],
        "decompose": ["decompose", "--in", str(deep), "--out", str(out)],
        "apply": ["apply", "--symbol", sym, "--f", str(deep), "--g", gpath, "--out", str(out)],
        "experiment": ["experiment", "khintchine", "--config", str(deep), "--seed", "1",
                       "--out", str(out)],
        "report": ["report", str(deep), "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert run(argv) == 1
    assert _one_line_error(capsys, naming="recursion")
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        {"box": [1], "values": []},
        {"box": {"dim": 1, "radius": 1, "oversample": 2}, "values": []},
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0}},
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0}, "values": [[1, 0]]},
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0},
         "values": [[1, 0], [0, "x"], [0, 0]]},
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0},
         "values": [[1, 0], 2, [0, 0]]},
        {"box": {"dim": 10**9, "radius": 1, "oversample": 2, "period": 10.0}, "values": []},
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10**400},
         "values": [[1, 0], [0, 0], [0, 0]]},
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0},
         "values": [[1, 0], [0, -(10**400)], [0, 0]]},
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0},
         "values": [[1, 0], [float("nan"), 0], [0, 0]]},
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0},
         "values": [[1, 0], [0, _MAX_PLUS_ONE], [0, 0]]},
        '{"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0},'
        ' "values": [[1, 0], [1e400, 0], [0, 0]]}',
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0},
         "values": [[1, 0], [True, 0], [0, 0]]},
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0},
         "values": [[1, 0], [0, None], [0, 0]]},
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0},
         "values": [[1, 0], [0, 0, 0], [0, 0]]},
        {"box": {"dim": 1, "radius": 1, "oversample": 2, "period": 10.0},
         "index_order": float("nan"), "values": [[1, 0], [0, 0], [0, 0]]},
    ],
    ids=["list", "box-list", "no-period", "no-values", "short-values", "string-value",
         "bare-value", "huge-dim", "huge-period", "huge-value", "nan-value",
         "max-plus-one-value", "float-literal-1e400", "true-value", "null-value", "triple",
         "nan-outside-values"],
)
def test_apply_malformed_spectral_json_is_one_line_error(tmp_path, capsys, payload):
    sym, (fpath, gpath) = _apply_inputs(
        tmp_path, lambda rng, n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    # a string is written as it stands: json.dumps cannot spell a float literal like 1e400
    open(fpath, "w").write(payload if isinstance(payload, str) else json.dumps(payload))
    capsys.readouterr()
    assert run(["apply", "--symbol", sym, "--f", fpath, "--g", gpath]) == 1
    assert _one_line_error(capsys, naming="spectral JSON")


_PINNED_COEFFS = (  # a heavy row, so both labels occur; ints, -0.0 and 5e-324 among the numbers
    "[[0, -6, 1, 0], [0, -5, 1.0, -0.0], [0, -4, 0.75, 0.5], [0, -3, -1, 0], [0, -2, 1, 5e-324],"
    " [0, -1, 0.9, 0.1], [0, 0, 0.5, 0.5], [0, 1, 1, 0], [0, 2, -0.8, 0.3], [0, 3, 0.7, -0.7],"
    " [0, 4, 1, 2], [0, 5, 0.6, 0], [3, -3, 0.25, -0.125], [-3, 1, 0.3, 0.6], [2, 2, -0.0, 1]]"
)


def test_cli_round_trip_bytes_are_pinned(tmp_path):
    # parsers and accumulator, byte for byte: decompose's partition, apply's payload and
    # the output spectrum
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(_PINNED_COEFFS)
    part, sym, out = (str(tmp_path / name) for name in ("part.json", "s.bin", "apply.json"))
    assert run(["decompose", "--in", str(coeffs), "--out", part]) == 0
    assert run(["gen-symbol", "--kind", "lattice", "--coeffs", str(coeffs), "--resolution", "16",
                "--seed", "1", "--out", sym]) == 0
    box = FrequencyBox(1, 40, 2, 16.0)  # lattice points -2..2 of the symbol's band of radius 112
    k = np.arange(-40, 41)
    paths = []
    for name, vals in (("f", k / 7 + 1j / (k**2 + 3)), ("g", (-0.5) ** np.abs(k % 9) - 1j / 3)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(spectral_to_json(SpectralVector(box, vals)))
    assert run(["apply", "--symbol", sym, "--f", str(paths[0]), "--g", str(paths[1]),
                "--out", out]) == 0
    assert hashlib.sha256(open(part, "rb").read()).hexdigest() == (
        "28dfde650984edf088b52b96c38241c90599c22c8a9d2f217365a725efae2e08"
    )
    assert hashlib.sha256(open(out, "rb").read()).hexdigest() == (
        "c71cd0722dbd6b49e9397b87b81fad82a784af468d0d2d7ecba3bbbfc5ee707d"
    )
    # the payload's two sums can absorb a last-bit change of the spectrum: pin it too
    f, g = (spectral_from_json(path.read_text()) for path in paths)
    u = output_spectrum(read_symbol(sym), f, g).values
    assert hashlib.sha256(u.tobytes()).hexdigest() == (
        "512a1b3d4b9df43cdda9238aeeef6fce428f2c534b43069172a0e25105332098"
    )
