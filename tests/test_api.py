"""API surface: every exported name resolves and is used, and every traced target
resolves.

The benchmark's span tracer (`bench/spans.py`) wraps functions by module and
name; a rename or deletion there would otherwise surface only in a traced
benchmark run.
"""

import ast
import dataclasses
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import bimult
import bimult.wavelets
from bimult.bilinear import SymbolGrid
from bimult.symbols import CounterexampleAConfig, CounterexampleBConfig

MODULES = (
    "bimult.bumps",
    "bimult.grid",
    "bimult.lorentz",
    "bimult.rowcol",
    "bimult.bilinear",
    "bimult.symbols",
    "bimult.wavelets",
    "bimult.experiments",
)
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "bimult"
# what runs: the package modules, the benchmark and the acceptance gate
CALLERS = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
CALLERS += sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_resolve():
    tree = ast.parse(Path(bimult.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"bimult.{node.module}")
        for alias in node.names:
            assert getattr(bimult, alias.name) is getattr(mod, alias.name)
            assert alias.name in mod.__all__, (node.module, alias.name)


@pytest.fixture()
def spans(monkeypatch):
    """`bench/spans.py`, imported from its file."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_spans", spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    return spans


def test_traced_targets_exist(spans):
    assert spans.TARGETS
    for module, fname, *_ in spans.TARGETS:
        assert module in spans.MODULES, module  # else calls through it go untraced
        assert callable(getattr(importlib.import_module(module), fname, None)), (module, fname)


def test_traced_wavelet_step_records_every_span(spans):
    # the benchmark's wavelet corpus loop: its spans and their counts must not read 0
    untraced = (bimult.wavelets.wavelet_coefficients, bimult.wavelets.lemma_discrete_ratio)
    values = np.outer(np.hanning(33), np.hanning(33)).astype(complex)
    sym = SymbolGrid(2, 16, values, 1.0 / 4)
    tracer = spans.Tracer()
    with tracer.installed():
        coeffs = bimult.wavelets.wavelet_coefficients(sym, 2)
        for j, G in coeffs:
            bimult.wavelets.lemma_discrete_ratio(sym, j, G, coeffs)
    assert (bimult.wavelets.wavelet_coefficients, bimult.wavelets.lemma_discrete_ratio) == untraced
    names = [sp.name for sp in tracer.spans]
    assert names.count("wavelets.wavelet_coefficients") == 1
    assert names.count("wavelets.lemma_discrete_ratio") == len(coeffs)
    sorted_values = [sp.counts["lorentz.sorted_values"] for sp in tracer.spans
                     if sp.name == "lorentz.weak_quasinorm"]
    assert sorted_values == [n for table in coeffs.values() for n in (values.size, len(table))]


def _opens_for_writing(node) -> bool:
    """An `open(...)` call whose mode is not a constant of read flags only."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def _write_sites(node, where: str):
    """Name of the innermost function around each write-mode `open` under `node`."""
    for child in ast.iter_child_nodes(node):
        if _opens_for_writing(child):
            yield where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _write_sites(child, inner)


def test_one_writer_and_one_overwrite_guard():
    # every output file goes through `cli._write_outputs`, which alone checks, writes
    # whole and replaces; a second write path would bypass that
    sites, guards = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        sites += [f"{path.stem}.{name}" for name in _write_sites(tree, "<module>")]
        guards += [path.stem for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_guard_overwrite"]
    assert sites == ["cli._write_outputs"]
    assert guards == ["cli"]


def _cache_name(node) -> str | None:
    """"cache" or "lru_cache" when `node` names that `functools` memoizer, with or without
    its module; else None."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    return name if name in ("cache", "lru_cache") else None


def _bounded(decorator) -> bool:
    """`lru_cache(n)` or `lru_cache(maxsize=n)`, n a positive integer literal."""
    if not (isinstance(decorator, ast.Call) and _cache_name(decorator.func) == "lru_cache"):
        return False
    sizes = decorator.args[:1] + [kw.value for kw in decorator.keywords if kw.arg == "maxsize"]
    return (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
            and type(sizes[0].value) is int and sizes[0].value > 0)


def _cache_faults(source: str) -> list[int]:
    """The line of each cache in `source` that is not a bounded decorator of a private
    function."""
    tree = ast.parse(source)
    allowed = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name.startswith("_"):
            allowed.update(id(d.func) for d in fn.decorator_list if _bounded(d))
    return [node.lineno for node in ast.walk(tree) if _cache_name(node) and id(node) not in allowed]


@pytest.mark.parametrize(
    "source, faults",
    [
        ("@functools.lru_cache(maxsize=4)\ndef _f(): pass", []),
        ("@lru_cache(2)\ndef _f(): pass", []),
        ("@functools.cache\ndef _f(): pass", [1]),
        ("@cache(4)\ndef _f(): pass", [1]),
        ("@functools.lru_cache\ndef _f(): pass", [1]),
        ("@functools.lru_cache(maxsize=None)\ndef _f(): pass", [1]),
        ("@functools.lru_cache(typed=True)\ndef _f(): pass", [1]),
        ("@functools.lru_cache(maxsize=4)\ndef f(): pass", [1]),
        ("x = 1\ng = functools.lru_cache(maxsize=4)(h)", [2]),
    ],
)
def test_cache_guard_finds_each_unbounded_or_public_cache(source, faults):
    assert _cache_faults(source) == faults


def test_every_cache_is_bounded_and_private():
    # a shape table is built once per process: unbounded, its cache would grow with every
    # shape a run meets; on a public name, callers would share one mutable result
    faults = {path.name: _cache_faults(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in faults.items() if lines} == {}


@pytest.mark.parametrize(
    "config, settings",
    [
        (CounterexampleAConfig, ("block_b", "dstar_exponent", "master_seed", "resolution")),
        (CounterexampleBConfig, ("mode", "Ns", "master_seed", "resolution")),
    ],
    ids=["A", "B"],
)
def test_block_configs_hold_only_settings_callers_set(config, settings):
    # the bumps and the oversampling are fixed by the constructions: class constants
    assert tuple(f.name for f in dataclasses.fields(config)) == settings


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_used(module):
    # a public name that only its own tests reach is dead weight: delete it instead
    lines = [line for path in CALLERS for line in path.read_text().splitlines()]
    unused = []
    for name in importlib.import_module(module).__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf'\s*((def|class)\s+{re.escape(name)}\b|"{re.escape(name)}",?\s*$)')
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
