"""API surface: every exported name resolves and is used, and every traced target
resolves.

The benchmark's span tracer (`bench/spans.py`) wraps functions by module and
name; a rename or deletion there would otherwise surface only in a traced
benchmark run.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import bimult

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


def test_traced_targets_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_spans", spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, fname, *_ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), fname, None)), (module, fname)


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
