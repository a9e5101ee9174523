"""Every module-level import in the package is used.

A name counts as used when the module reads it anywhere, annotations
included (quoted ones too), or lists it in ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reslat"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        else:
            continue
        if ann is not None:
            yield ann


def _used(tree: ast.Module) -> set[str]:
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    used = {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def _unused(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree).items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused(path.read_text()) == []


def test_guard_sees_unused_imports_and_honours_all_and_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from collections.abc import Iterable, Sequence\n"
        "from .record import Record, setfield\n"
        "from .errors import PreconditionError\n"
        "__all__ = ['PreconditionError']\n"
        "def f(xs: Iterable[int]) -> 'Sequence[int]':\n"
        "    return os.path.join(*xs)\n"
    )
    assert _unused(source) == ["Record (line 4)", "setfield (line 4)"]
