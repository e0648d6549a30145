"""Checks on the source text itself, made with ``ast``."""
import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "tools", "benchmarks")
                 for path in (ROOT / folder).rglob("*.py"))

#: A "# noqa" comment, bare or naming the codes it silences.
NOQA = re.compile(r"#\s*noqa(?::\s*([\w, ]+))?", re.IGNORECASE)


def _silenced(line: str) -> bool:
    """Whether the line's noqa comment covers an unused import (F401)."""
    match = NOQA.search(line)
    return bool(match) and (match.group(1) is None
                            or "F401" in match.group(1).upper())


def unused_imports(text: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds and nothing reads,
    unless its line or its statement's first line carries a noqa for it."""
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name == "*" or name in read:
                continue
            if not any(_silenced(lines[n - 1])
                       for n in (alias.lineno, node.lineno)):
                found.append((alias.lineno, name))
    return found


@pytest.mark.parametrize("text, names", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nimport json  # noqa\n", ["np"]),
    ("import json  # noqa: F401 - side effect\n", []),
    ("import json  # noqa: E402\n", ["json"]),
    ("from a import (\n    b,\n    c,  # noqa: F401\n)\nb()\n", []),
    ("from a import b as c\nb\n", ["c"]),
    ("from __future__ import annotations\n", []),
    ("from a import T\ndef f(x: T) -> None: pass\n", []),
])
def test_unused_imports_finds_names_nothing_reads(text, names):
    assert [name for _, name in unused_imports(text)] == names


def test_no_unused_imports():
    assert SOURCES
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SOURCES
             for line, name in unused_imports(path.read_text())]
    assert found == []
