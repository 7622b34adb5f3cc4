"""The examples in README.md run: the library example's commented values
hold, and every command of the CLI block exits 0."""

from __future__ import annotations

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from minexp import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str = "") -> str:
    """The first fenced block in ``language`` of the section under ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    section = section.split("\n" + heading.split(" ", 1)[0] + " ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert match, f"README.md has no {language or 'plain'} block under {heading!r}"
    return match.group(1)


def test_readme_library_example():
    # Each statement runs in order, so a removed or renamed export fails here.
    # Each expression statement ends in a comment that is its value.
    source = _block("## Library", "python")
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


def test_readme_cli_commands_exit_zero(capsys, tmp_path, monkeypatch):
    # "manifest.json" is the example manifest of the "### Batch manifests" section
    (tmp_path / "manifest.json").write_text(_block("### Batch manifests", "json"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in _block("## CLI").splitlines() if line.startswith("minexp ")]
    assert len(commands) >= 9
    for argv in commands:
        assert cli.main(argv[1:]) == cli.EXIT_OK, " ".join(argv)
        capsys.readouterr()
