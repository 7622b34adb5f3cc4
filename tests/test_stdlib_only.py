"""The package imports only the standard library and itself, starts its CLI
without the dataclass machinery, writes JSON in one place, makes no float,
and calls every public function and loads every private helper of its
library modules."""

from __future__ import annotations

import ast
import dis
import os
import subprocess
import sys
import types
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


def _json_writers(path: Path, names: tuple[str, ...]):
    """The line of every use of a name of ``names`` off json or json.encoder
    in ``path``, and of every import of one from either module."""
    for node in _nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in names:
            if ast.unparse(node.value) in ("json", "json.encoder"):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module in ("json", "json.encoder"):
            if any(alias.name in names for alias in node.names):
                yield node.lineno


def test_cli_writer_is_the_one_json_emitter():
    # reports are written by cli._json_text alone, through the one encoder
    # cli builds behind its type check, so no module calls json.dump or
    # json.dumps and none but cli builds a JSONEncoder; json.load and
    # json.loads, which read manifests and --support, stay allowed
    modules = sorted(PACKAGE.glob("*.py"))
    uses = {(path.name, line) for path in modules for line in _json_writers(path, ("dump", "dumps"))}
    assert not uses
    encoders = [(path.name, line) for path in modules for line in _json_writers(path, ("JSONEncoder",))]
    assert [name for name, _ in encoders] == ["cli.py"]


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


def _code_tree(code: types.CodeType):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_tree(const)


def test_every_public_library_function_has_a_caller():
    # each public module-level function of the library modules is named in
    # some other function or class body of the package, a name passed to
    # cli._guard included; module top-level code (so __init__'s re-export)
    # and the function's own code do not count
    bodies = []  # (module, name, names read) of each top-level function and class body
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for code in module.co_consts:
            if isinstance(code, types.CodeType):
                bodies.append((path.stem, code.co_name, {name for c in _code_tree(code) for name in c.co_names}))
    public = [
        (stem, node.name)
        for stem in ("exponent", "newton", "poly", "resolution")
        for node in ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert public
    uncalled = [
        f"{stem}.{name}"
        for stem, name in public
        if not any(name in names for owner, body, names in bodies if (owner, body) != (stem, name))
    ]
    assert not uncalled


# a helper is loaded by its name, by an import, or off its module (cli reads
# two of resolution's budget checks as ``rs._check_scan_bound`` and the like)
_LOADS = ("LOAD_GLOBAL", "LOAD_NAME", "IMPORT_FROM", "LOAD_ATTR", "LOAD_METHOD")


def test_every_private_library_helper_is_loaded():
    # each private module-level function of the library modules is loaded by
    # name in some other code object of the package, module top-level code
    # (so an import) included; the helper's own code does not count, so a
    # helper kept only for a test to import fails here
    codes = []  # (module, top-level function or None, names loaded) of each code object
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for top in module.co_consts:
            if isinstance(top, types.CodeType):
                for code in _code_tree(top):
                    loads = {ins.argval for ins in dis.get_instructions(code) if ins.opname in _LOADS}
                    codes.append((path.stem, top.co_name, loads))
        codes.append((path.stem, None, {ins.argval for ins in dis.get_instructions(module) if ins.opname in _LOADS}))
    private = [
        (stem, node.name)
        for stem in ("exponent", "newton", "poly", "resolution")
        for node in ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    ]
    assert private
    unloaded = [
        f"{stem}.{name}"
        for stem, name in private
        if not any(name in loads for owner, top, loads in codes if (owner, top) != (stem, name))
    ]
    assert not unloaded
