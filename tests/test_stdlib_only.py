"""The package imports only the standard library and itself, starts its CLI
without the dataclass machinery, writes JSON in one place, and makes no float."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "minexp"


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))


def _imported_modules(path: Path):
    """The top-level name of every module that ``path`` imports; "minexp" for a relative import."""
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "minexp" if node.level else node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = {
        (path.name, name)
        for path in modules
        for name in _imported_modules(path)
        if name != "minexp" and name not in sys.stdlib_module_names
    }
    assert not foreign


def test_cold_start_loads_no_dataclass_machinery():
    # a fresh interpreter importing the CLI, as every minexp run does, loads
    # neither dataclasses nor the inspect, ast and dis modules it would pull in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    heavy = ["dataclasses", "inspect", "ast", "dis"]
    code = f"import sys, minexp.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def _json_writers(path: Path):
    """The line of every use of json.dump or json.dumps in ``path``, and of
    every import of either name from json."""
    for node in _nodes(path):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "json" and node.attr in ("dump", "dumps"):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name in ("dump", "dumps") for alias in node.names):
                yield node.lineno


def test_cli_writer_is_the_one_json_emitter():
    # reports are written by cli._json_text alone; json.load and json.loads,
    # which read manifests and --support, stay allowed
    uses = {(path.name, line) for path in sorted(PACKAGE.glob("*.py")) for line in _json_writers(path)}
    assert not uses


def _floats(path: Path):
    """The line of every float literal and every ``float(...)`` call in ``path``."""
    for node in _nodes(path):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno


def test_package_makes_no_float():
    # arithmetic is exact: the integer kernels of the scans, like everything
    # else, hold no float literal and convert nothing to float
    uses = {(path.name, line) for path in sorted(PACKAGE.glob("*.py")) for line in _floats(path)}
    assert not uses
