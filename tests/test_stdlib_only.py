"""The package imports only the standard library and itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "minexp"


def _imported_modules(path: Path):
    """The top-level name of every module that ``path`` imports; "minexp" for a relative import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
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
