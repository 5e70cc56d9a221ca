"""Span tracing of bimult's public functions, from outside the package.

`Tracer.installed()` replaces each traced function by a wrapper in every
bimult module that holds a reference to it, so calls made through
`from .symbols import block_A_symbol` in `experiments` or `cli` are seen as
well as calls through `bimult.symbols`.  Spans are kept in memory; per-layer
metrics are derived from them after each pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from dataclasses import dataclass, field

MODULES = (
    "bimult",
    "bimult.grid",
    "bimult.lorentz",
    "bimult.rowcol",
    "bimult.bilinear",
    "bimult.symbols",
    "bimult.wavelets",
    "bimult.experiments",
    "bimult.cli",
)

COMPLEX128_BYTES = 16


def _cells(args, result):
    return {"symbols.cells": result.values.size}


def _input_points(args, result):
    return {"bilinear.input_points": args[1].values.size}


def _fft_points(args, result):
    box = args[0].box
    return {"grid.fft_points": box.n_phys**box.dim}


def _sorted_values(args, result):
    return {"lorentz.sorted_values": args[0].magnitudes.size}


def _entries(args, result):
    return {"rowcol.entries": len(args[0].entries)}


def _read_bytes(args, result):
    return {"cli.read_symbol.bytes": os.path.getsize(args[0])}


def _write_bytes(args, result):
    path = args[0]
    return {"cli.write_symbol.bytes": os.path.getsize(path) + os.path.getsize(path + ".json")}


def _pool_draws(args, result):
    if result.experiment_name in ("growth-A", "growth-B"):
        return {"experiments.pool_draws": result.summary["pool"] * len(result.per_trial_results)}
    return {}


def _levelset_rows(args, result):
    return {"levelset.lambdas": len(result)}


# (module, function, span name, label from the call, counts from the call)
TARGETS = (
    ("bimult.symbols", "block_A_symbol", "symbols.block_A_symbol", None, None),
    ("bimult.symbols", "counterexample_B_block", "symbols.counterexample_B_block", None, _cells),
    ("bimult.symbols", "lattice_symbol", "symbols.lattice_symbol", None, _cells),
    ("bimult.symbols", "besov_norm", "symbols.besov_norm", None, None),
    ("bimult.bilinear", "operator_ratio", "bilinear.operator_ratio", None, None),
    ("bimult.bilinear", "apply_bilinear", "bilinear.apply_bilinear", None, _input_points),
    ("bimult.grid", "synthesize", "grid.synthesize", None, _fft_points),
    ("bimult.grid", "l1_norm", "grid.l1_norm", None, None),
    ("bimult.lorentz", "weak_quasinorm", "lorentz.weak_quasinorm", None, _sorted_values),
    ("bimult.rowcol", "decompose", "rowcol.decompose", None, _entries),
    ("bimult.rowcol", "verify_partition", "rowcol.verify_partition", None, None),
    ("bimult.wavelets", "wavelet_coefficients", "wavelets.wavelet_coefficients", None, None),
    ("bimult.wavelets", "lemma_discrete_ratio", "wavelets.lemma_discrete_ratio", None, None),
    ("bimult.experiments", "run_experiment", "experiments.run", lambda args: args[0], _pool_draws),
    ("bimult.experiments", "khintchine_mc", "experiments.khintchine_mc", None, None),
    ("bimult.experiments", "levelset_profile", "experiments.levelset_profile", None, _levelset_rows),
    ("bimult.cli", "run", "cli.run", lambda args: args[0][0], None),
    ("bimult.cli", "read_symbol", "cli.read_symbol", None, _read_bytes),
    ("bimult.cli", "write_symbol", "cli.write_symbol", None, _write_bytes),
)

CALL_COUNTED = (
    "symbols.block_A_symbol",
    "symbols.counterexample_B_block",
    "symbols.lattice_symbol",
    "symbols.besov_norm",
    "bilinear.operator_ratio",
    "bilinear.apply_bilinear",
    "grid.synthesize",
    "lorentz.weak_quasinorm",
    "rowcol.decompose",
    "wavelets.wavelet_coefficients",
    "cli.read_symbol",
    "cli.write_symbol",
)
# busy time = CPU time of the calling thread inside the call, summed over calls
CPU_TIMED = CALL_COUNTED + (
    "grid.l1_norm",
    "rowcol.verify_partition",
    "wavelets.lemma_discrete_ratio",
    "experiments.khintchine_mc",
)
CLI_COMMANDS = ("gen-symbol", "decompose", "apply")
SUMMED_COUNTS = (
    ("symbols.cells", "count"),
    ("bilinear.input_points", "count"),
    ("grid.fft_points", "count"),
    ("lorentz.sorted_values", "count"),
    ("rowcol.entries", "count"),
    ("cli.read_symbol.bytes", "bytes"),
    ("cli.write_symbol.bytes", "bytes"),
    ("experiments.pool_draws", "count"),
)


@dataclass
class Span:
    sid: int
    name: str
    label: str | None
    parent: int | None
    pass_id: int
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0  # CPU time of the calling thread between start and end
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """In-memory span recorder.

    A span opened on a thread with no open span of its own (a worker of an
    experiment's thread pool) takes the innermost open span of the thread
    that created the tracer as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, label: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            sp = Span(len(self.spans), name, label, parent.sid if parent else None, self.pass_id)
            self.spans.append(sp)
        stack.append(sp)
        cpu0 = time.thread_time()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.cpu = time.thread_time() - cpu0
            stack.pop()

    def _wrap(self, fn, name, label_of, count_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, label_of(args) if label_of else None) as sp:
                result = fn(*args, **kwargs)
            if count_of:
                sp.counts = count_of(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in each module namespace that refers to it."""
        modules = [importlib.import_module(m) for m in MODULES]
        saved = []
        for mod_name, fname, name, label_of, count_of in TARGETS:
            orig = getattr(importlib.import_module(mod_name), fname)
            wrapper = self._wrap(orig, name, label_of, count_of)
            for mod in modules:
                if mod.__dict__.get(fname) is orig:
                    saved.append((mod, fname, orig))
                    setattr(mod, fname, wrapper)
        try:
            yield
        finally:
            for mod, fname, orig in reversed(saved):
                setattr(mod, fname, orig)

    def write(self, path: str) -> None:
        """One JSON object per span: sid, name, label, parent, pass, start, end, cpu, counts."""
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"sid": sp.sid, "name": sp.name, "label": sp.label,
                                     "parent": sp.parent, "pass": sp.pass_id, "start": sp.start,
                                     "end": sp.end, "cpu": sp.cpu, "counts": sp.counts}) + "\n")

    def pass_spans(self, pass_id: int) -> list[Span]:
        return [sp for sp in self.spans if sp.pass_id == pass_id]


def _self_time(spans, parents) -> float:
    """Summed wall duration of `parents` minus the part covered by their children."""
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return float(sum(p.duration - _union_length(children.get(p.sid, [])) for p in parents))


def layer_metrics(spans: list[Span], pass_wall: float, pass_cpu: float) -> dict:
    """Per-layer figures of one traced pass: {name: (value, unit)}.

    A library function's `.s` is its busy time: the CPU time of the calling
    thread inside its calls, summed, so time a pool thread spends waiting for
    the interpreter lock is not counted.  `experiments.run.s` and
    `cli.<command>.s` are wall time of the top-level calls; `self_s` is wall
    time of a span not covered by its child spans.
    """
    by_name: dict = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    out = {}
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (len(by_name.get(name, [])), "count")
    for name in CPU_TIMED:
        out[f"{name}.s"] = (float(sum(sp.cpu for sp in by_name.get(name, []))), "s")
    totals: dict = {}
    for sp in spans:
        for key, n in sp.counts.items():
            totals[key] = totals.get(key, 0) + n
    for key, unit in SUMMED_COUNTS:
        out[key] = (totals.get(key, 0), unit)
    out["symbols.bytes"] = (totals.get("symbols.cells", 0) * COMPLEX128_BYTES, "bytes-computed")
    builders = out["symbols.block_A_symbol.s"][0] + out["symbols.counterexample_B_block.s"][0]
    out["symbols.block_builders_cpu_share"] = (builders / pass_cpu, "ratio")

    levelset = by_name.get("experiments.levelset_profile", [])
    scanned = 0
    for lp in levelset:
        grid_cells = sum(
            sp.counts.get("symbols.cells", 0)
            for sp in spans
            if sp.parent == lp.sid and sp.name == "symbols.counterexample_B_block"
        )
        scanned += grid_cells * COMPLEX128_BYTES * lp.counts["levelset.lambdas"]
    out["experiments.levelset_scan.self_s"] = (_self_time(spans, levelset), "s")
    out["experiments.levelset_bytes_scanned"] = (scanned, "bytes-computed")
    runs = by_name.get("experiments.run", [])
    out["experiments.run.s"] = (float(sum(sp.duration for sp in runs)), "s")
    out["experiments.self_s"] = (_self_time(spans, runs), "s")

    cli_spans = by_name.get("cli.run", [])
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.s"] = (float(sum(sp.duration for sp in cli_spans if sp.label == cmd)), "s")
    out["cli.self_s"] = (_self_time(spans, cli_spans), "s")

    top = [sp for sp in spans if sp.parent is None]
    out["trace.coverage"] = (sum(sp.duration for sp in top) / pass_wall, "ratio")
    return out


def span_breakdown(spans: list[Span]) -> dict:
    """Summed [wall, CPU] seconds per (span name, label), for the human-readable report."""
    totals: dict = {}
    for sp in spans:
        key = sp.name if sp.label is None else f"{sp.name}[{sp.label}]"
        wall, cpu = totals.get(key, (0.0, 0.0))
        totals[key] = (wall + sp.duration, cpu + sp.cpu)
    return totals
