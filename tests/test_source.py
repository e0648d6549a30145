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


def private_definitions(text: str) -> list[tuple[int, str]]:
    """(line, name) of each private name the module's top level defines:
    a function, class or assigned name with a leading underscore that is
    not a dunder."""
    found = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_")
                  and not (name.startswith("__") and name.endswith("__"))]
    return found


def names_read(text: str) -> set[str]:
    """Every name the module loads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def orphaned_helpers(texts: list[str]) -> list[tuple[int, int, str]]:
    """(text index, line, name) of each private top-level name that no
    text reads."""
    read = set().union(*map(names_read, texts))
    return [(index, line, name) for index, text in enumerate(texts)
            for line, name in private_definitions(text) if name not in read]


@pytest.mark.parametrize("texts, names", [
    (["def _f(): pass\n"], ["_f"]),
    (["def _f(): pass\n_f()\n"], []),
    (["_X = 1\nclass _C: pass\ndef f(): pass\n"], ["_X", "_C"]),
    (["_X: int = 1\n", "import m\nm._X\n"], []),
    (["from m import _f\n", "def _f(): pass\n"], ["_f"]),
    (["from m import _f\n_f()\n", "def _f(): pass\n"], []),
    (["_a, _b = 1, 2\nprint(_a)\n"], ["_b"]),
    (["__all__ = []\ndef __getattr__(name): pass\n"], []),
    (["def f():\n    _local = 1\n"], []),
    (["class C:\n    _field = 1\n"], []),
])
def test_orphaned_helpers_finds_private_names_nothing_reads(texts, names):
    assert [name for _, _, name in orphaned_helpers(texts)] == names


def test_every_private_helper_is_read():
    paths = sorted((ROOT / "src" / "hurstlab").glob("*.py"))
    assert paths
    texts = [path.read_text() for path in paths]
    found = [f"{paths[index].relative_to(ROOT)}:{line}: {name}"
             for index, line, name in orphaned_helpers(texts)]
    assert found == []
