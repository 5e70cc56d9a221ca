"""Command-line front end: symbol generation, decomposition, operator runs,
named experiments, and report merging.

Exit codes: 0 success, 1 validation error (bad arguments, malformed input,
overwrite refusal), 2 experiment ran but its pass/fail threshold failed —
so CI can gate on acceptance experiments.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import glob as globmod
import io
import json
import os
import struct
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bilinear import (
    SymbolGrid, _all_finite, _input_norms, _nonzero_rows, _ratio, stream_output_spectrum,
)
from .bumps import BumpSpec
from .experiments import (
    EXPERIMENTS,
    ExperimentRecord,
    _INT64,
    _finite,
    config_hash,
    run_experiment,
)
from .grid import l1_norm, spectral_from_json, synthesize
from .rowcol import CoeffMatrix, decompose, verify_partition
from .symbols import (
    CounterexampleAConfig,
    CounterexampleBConfig,
    block_A_symbol,
    counterexample_B_block,
    lattice_symbol,
)

_MAGIC = b"BMLT"
_FMT_VERSION = 1
_HEADER = struct.Struct("<IIId")  # version, dim, radius, spacing
_HEADER_BYTES = len(_MAGIC) + _HEADER.size
_VALUE_TYPE = np.dtype("<c8")
_CHUNK = 1 << 18  # samples streamed at a time: 2 MiB of complex64


def _chunks(count: int, step: int = _CHUNK):
    """Consecutive slices of at most `step` samples covering range(count)."""
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _guard_overwrite(path: str, force: bool) -> None:
    """Refuse to replace an existing output unless forced."""
    if os.path.exists(path) and not force:
        raise FileExistsError(f"refusing to overwrite {path} (use --force)")


def _json_text(obj) -> str:
    """A sidecar or `apply` payload: indented JSON, refusing NaN and Infinity (not JSON)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_outputs(outputs: dict, force: bool) -> None:
    """Write each output of a command whole, or none of them: the package's one file writer.

    outputs maps each path to its text, or to a function that writes its bytes to an
    open binary file.  Every path is refused if it exists (unless forced) before any file
    or directory is made.  Each output goes to `<path>.<pid>.tmp` beside its path, and only
    once all are complete is each moved onto its path by `os.replace`; on any error the
    temporary files and the directories made for them go, so old outputs stay as they were.
    """
    for path in outputs:
        _guard_overwrite(path, force)
    made, written = [], []  # directories made, innermost first; (temporary, target) pairs
    try:
        for path, content in outputs.items():
            folder = Path(path).absolute().parent
            made = [d for d in (folder, *folder.parents) if not d.exists()] + made
            folder.mkdir(parents=True, exist_ok=True)
            with open(f"{path}.{os.getpid()}.tmp", "wb") as fh:
                written.append((fh.name, path))
                if callable(content):
                    content(fh)
                else:
                    fh.write(content.encode())
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        for folder in made:  # each is empty once the temporary files are gone
            with contextlib.suppress(OSError):
                folder.rmdir()
        raise


def write_symbol(path: str, m: SymbolGrid, meta: dict, force: bool = False) -> None:
    """Binary dump (little-endian complex64, row-major) plus a JSON sidecar."""
    flat = m.values.reshape(-1)

    def dump(fh):
        buf = np.empty(min(flat.size, _CHUNK), dtype=_VALUE_TYPE)
        fh.write(_MAGIC + _HEADER.pack(_FMT_VERSION, m.dim, m.radius, m.spacing))
        for part in _chunks(flat.size):
            chunk = buf[: part.stop - part.start]
            chunk[...] = flat[part]
            fh.write(chunk)

    sidecar = {**meta, "toolVersion": __version__, "dim": m.dim, "radius": m.radius,
               "spacing": m.spacing, "valueType": "complex64", "provenance": m.provenance}
    _write_outputs({path: dump, path + ".json": _json_text(sidecar)}, force)


@contextlib.contextmanager
def _open_symbol(path: str):
    """Open a symbol file and check its header and size before any sample is read.

    Yields (dim, radius, spacing, chunks).  `chunks` streams the samples as
    complex64 arrays of whole xi-rows, shaped (rows,) + (2 radius + 1,) * n
    for dim = 2n, through one reused buffer of about _CHUNK samples, each with
    its `_nonzero_rows`; a row whose bits are all zero is finite, so only the
    other rows of a chunk are checked finite before it is handed on.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_BYTES)
        if head[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"{path}: not a symbol file")
        if len(head) < _HEADER_BYTES:
            raise ValueError(f"{path}: truncated header ({len(head)} of {_HEADER_BYTES} bytes)")
        version, dim, radius, spacing = _HEADER.unpack_from(head, len(_MAGIC))
        if version != _FMT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        if dim % 2 != 0 or dim < 2:
            raise ValueError(f"{path}: dim {dim} is not a positive even integer")
        if not spacing > 0:
            raise ValueError(f"{path}: spacing {spacing} is not positive")
        side = 2 * radius + 1
        size = os.fstat(fh.fileno()).st_size
        # side**dim >= 2**(dim * (bits - 1)): a header no file could hold is
        # refused before the power is taken, and no array is allocated for it
        fits = dim * (side.bit_length() - 1) < size.bit_length()
        count = side**dim if fits else None
        if count is None or _HEADER_BYTES + _VALUE_TYPE.itemsize * count > size:
            raise ValueError(
                f"{path}: header promises {side}^{dim} complex64 samples,"
                f" more than the file's {size} bytes hold"
            )
        row_shape = (side,) * (dim // 2)
        row_size = side ** (dim // 2)

        def chunks():
            buf = np.empty(min(count, max(1, _CHUNK // row_size) * row_size), dtype=_VALUE_TYPE)
            for part in _chunks(count, buf.size):
                chunk = buf[: part.stop - part.start].reshape((-1,) + row_shape)
                if fh.readinto(chunk) != chunk.nbytes:
                    raise ValueError(f"{path}: data block ends early")
                nonzero = _nonzero_rows(chunk, dim // 2)
                if not _all_finite(chunk[nonzero]):
                    raise ValueError(f"{path}: non-finite symbol sample")
                yield chunk, nonzero

        yield dim, radius, spacing, chunks()


def read_symbol(path: str) -> SymbolGrid:
    """Read a symbol file; the complex64 samples are widened to complex128."""
    with _open_symbol(path) as (dim, radius, spacing, chunks):
        values = np.empty((2 * radius + 1,) * dim, dtype=complex)
        rows = values.reshape((-1,) + values.shape[dim // 2:])
        start = 0
        for chunk, _ in chunks:
            rows[start : start + len(chunk)] = chunk
            start += len(chunk)
    # header and every chunk are checked: skip SymbolGrid's second scan of all samples
    m = object.__new__(SymbolGrid)
    m.__dict__.update(dim=dim, radius=radius, values=values, spacing=spacing, provenance=None)
    return m


def _require_seed(args) -> int:
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get("BIMULT_SEED")
        if env is None:
            raise ValueError("a master seed is required (--seed or BIMULT_SEED)")
        seed, source = int(env), "BIMULT_SEED"
    if seed not in _INT64:
        raise ValueError(f"{source} {seed} is outside signed 64-bit")
    return seed


def _cmd_gen_symbol(args) -> int:
    seed = _require_seed(args)
    cfg = {"kind": args.kind, "resolution": args.resolution}  # the sidecar's config
    if args.kind == "lattice":
        if args.coeffs is None:
            raise ValueError("--kind lattice requires --coeffs")
        with open(args.coeffs) as fh:
            c = CoeffMatrix.from_json(fh.read())
        m = lattice_symbol(c, BumpSpec(radius=0.1, plateau=0.05), args.resolution)
        cfg["coeffs"] = args.coeffs
    elif args.kind == "block-A":
        cfg.update(K=args.K, exponent=_finite("--exponent", args.exponent), seed=seed)
        acfg = CounterexampleAConfig(
            block_b=tuple(4**k for k in range(1, args.K + 1)), dstar_exponent=cfg["exponent"],
            master_seed=seed, resolution=args.resolution,
        )
        m = block_A_symbol(acfg, args.K, acfg.block_seed(args.K), center=acfg.center(args.K))
    elif args.kind == "block-B":
        cfg.update(mode=args.mode, N=args.N, seed=seed)
        bcfg = CounterexampleBConfig(
            mode=args.mode, Ns=(args.N,), master_seed=seed, resolution=args.resolution
        )
        m = counterexample_B_block(bcfg, args.N)
    else:
        raise ValueError(f"unknown symbol kind {args.kind!r}")
    write_symbol(args.out, m, {"configHash": config_hash(cfg), "config": cfg}, args.force)
    print(f"wrote {args.out} ({(2 * m.radius + 1)}^{m.dim} samples)")
    return 0


def _cmd_decompose(args) -> int:
    _guard_overwrite(args.out, args.force)
    with open(args.infile) as fh:
        f = CoeffMatrix.from_json(fh.read())
    part = decompose(f)
    max_row, max_col = verify_partition(f, part)
    _write_outputs({args.out: part.to_json() + "\n"}, args.force)
    print(f"wrote {args.out}: maxRowSum={max_row:.6g} maxColSum={max_col:.6g}")
    return 0


def _cmd_apply(args) -> int:
    if args.out:
        _guard_overwrite(args.out, args.force)
    # an overflow is refused as a non-finite spectrum or ratio, not warned about first
    with np.errstate(all="ignore"), _open_symbol(args.symbol) as (dim, radius, spacing, chunks):
        with open(args.f) as fh:
            f = spectral_from_json(fh.read())
        with open(args.g) as fh:
            g = spectral_from_json(fh.read())
        norms = _input_norms(f, g)
        u = stream_output_spectrum(chunks, dim // 2, radius, spacing, f, g)
        l1 = l1_norm(synthesize(u))
    ratio = _ratio(l1, norms)  # operator_ratio(read_symbol(path), f, g), streamed
    if args.out:
        payload = {"toolVersion": __version__, "l1Norm": l1, "operatorRatio": ratio}
        _write_outputs({args.out: _json_text(payload)}, args.force)
    print(f"operatorRatio={ratio:.12g}")
    return 0


def _experiment_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: an experiment config must be a JSON object")
        cfg.update(loaded)
    if args.M:
        cfg["M"] = [int(x) for x in args.M.split(",")]
    if args.N:
        cfg["N"] = [int(x) for x in args.N.split(",")]
    if args.mode:
        cfg["mode"] = args.mode
    if args.pool is not None:
        cfg["pool"] = args.pool
    if args.f_mode:
        cfg["f_mode"] = args.f_mode
    if args.resolution is not None:
        cfg["resolution"] = args.resolution
    return cfg


def _cmd_experiment(args) -> int:
    seed = _require_seed(args)
    cfg = _experiment_config(args)
    # every record carries its config unchanged, so the output path is known up front
    path = os.path.join(args.out or ".", f"{args.name}-{config_hash(cfg)}-{seed}.jsonl")
    _guard_overwrite(path, args.force)
    rec = run_experiment(args.name, cfg, seed, threads=args.threads)
    line = rec.to_json_line() + "\n"
    _write_outputs({path: line}, args.force)
    status = "PASS" if rec.summary.get("passed", True) else "FAIL"
    print(f"{args.name}: {status} ({path}, {rec.wall_clock:.2f}s)")
    return 0 if rec.summary.get("passed", True) else 2


def _cmd_report(args) -> int:
    paths = sorted({p for pattern in args.inputs for p in globmod.glob(pattern)})
    records = []
    for path in paths:
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        records.append(ExperimentRecord.from_json_line(line))
                    except ValueError as exc:
                        raise ValueError(f"{path}, line {number}: {exc}") from None
    # two-column plot data per record, using the record's natural x axis
    axes = {"growth-A": ("K", "measured"), "growth-B": ("N", "measured"),
            "counting": ("M", "sumSquares"), "levelset": ("lambda", "coeffMeasure"),
            "khintchine": ("size", "mcRatio"), "boundedness": ("trial", "normalizedRatio")}
    plots = {}
    for rec in records:
        xk, yk = axes.get(rec.experiment_name, (None, None))
        rows = [r for r in rec.per_trial_results if xk in r and yk in r]
        if rows:
            name = f"{rec.experiment_name}-{rec.config_hash}-{rec.master_seed}.dat"
            plots[os.path.join(args.out, name)] = "".join(f"{r[xk]} {r[yk]}\n" for r in rows)
    csv_path = os.path.join(args.out, "summary.csv")
    keys = sorted({k for rec in records for k in rec.summary})
    table = io.StringIO()
    csv.writer(table).writerows(
        [["experimentName", "configHash", "masterSeed"] + keys]
        + [[rec.experiment_name, rec.config_hash, rec.master_seed]
           + [rec.summary.get(k, "") for k in keys] for rec in records]
    )
    _write_outputs({csv_path: table.getvalue(), **plots}, args.force)
    print(f"wrote {csv_path} ({len(records)} records)")
    return 0


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bimult",
        description="Bilinear multiplier laboratory: symbols, decompositions, experiments.",
    )
    p.add_argument("--version", action="version", version=f"bimult {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-symbol", help="generate a symbol grid (binary + JSON sidecar)")
    g.add_argument("--kind", choices=["lattice", "block-A", "block-B"], required=True)
    g.add_argument("--coeffs", help="coefficient matrix JSON (kind=lattice)")
    g.add_argument("--K", type=int, default=1, help="block index (kind=block-A)")
    g.add_argument("--N", type=int, default=1, help="scale index (kind=block-B)")
    g.add_argument("--exponent", type=float, default=0.125)
    g.add_argument("--mode", choices=["paper", "desk"], default="desk")
    g.add_argument("--resolution", type=int, default=20)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.add_argument("--force", action="store_true")
    g.set_defaults(fn=_cmd_gen_symbol)

    d = sub.add_parser("decompose", help="row/column split of a coefficient matrix")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--force", action="store_true")
    d.set_defaults(fn=_cmd_decompose)

    a = sub.add_parser("apply", help="evaluate the operator on spectral inputs")
    a.add_argument("--symbol", required=True)
    a.add_argument("--f", required=True)
    a.add_argument("--g", required=True)
    a.add_argument("--out")
    a.add_argument("--force", action="store_true")
    a.set_defaults(fn=_cmd_apply)

    e = sub.add_parser("experiment", help="run a named experiment, write JSONL")
    e.add_argument("name", choices=sorted(EXPERIMENTS))
    e.add_argument("--config", help="JSON config file")
    e.add_argument("--M", help="comma-separated list (counting)")
    e.add_argument("--N", help="comma-separated list (growth-B, levelset)")
    e.add_argument("--mode", choices=["paper", "desk"])
    e.add_argument("--pool", type=int)
    e.add_argument("--f-mode", choices=["lattice", "besov", "fourier_compact"])
    e.add_argument("--resolution", type=int)
    e.add_argument("--seed", type=int)
    e.add_argument("--threads", type=int, default=1)
    e.add_argument("--out", help="output directory (default .)")
    e.add_argument("--force", action="store_true")
    e.set_defaults(fn=_cmd_experiment)

    r = sub.add_parser("report", help="merge JSONL records into CSV + plot data")
    r.add_argument("inputs", nargs="+", help="JSONL files or globs")
    r.add_argument("--out", default="report")
    r.add_argument("--force", action="store_true")
    r.set_defaults(fn=_cmd_report)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
