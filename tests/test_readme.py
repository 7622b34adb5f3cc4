"""The library example in README.md runs, and its commented values hold."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    """The first fenced python block of the "## Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README.md has no python block under '## Library'"
    return match.group(1)


def test_readme_library_example():
    # Each statement runs in order, so a removed or renamed export fails here.
    # Each expression statement ends in a comment that is its value.
    source = _library_block()
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        expression = ast.get_source_segment(source, node)
        assert node.end_lineno in comments, f"{expression!r} has no commented value"
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert value == eval(comments[node.end_lineno], namespace), expression
        checked += 1
    assert checked
