"""Every name a package module imports is read somewhere in that module.

A name counts as used when the module loads it (including inside string
annotations) or lists it in ``__all__``.  A deliberate re-export that the
module itself never reads carries ``# noqa: F401`` on its import line.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "selfconformal"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module, lines: list):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            pairs = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        for alias, name in pairs:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                yield name, alias.lineno


def _string_annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            notes = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            for sub in ast.walk(note) if note is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield ast.parse(sub.value, mode="eval")


def _read_names(tree: ast.Module) -> set:
    trees = [tree, *_string_annotations(tree)]
    names = {n.id for t in trees for n in ast.walk(t)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {e.value for e in node.value.elts}
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_read(path):
    source = path.read_text()
    tree = ast.parse(source)
    read = _read_names(tree)
    unused = [f"{name} (line {line})" for name, line in
              _imported(tree, source.splitlines()) if name not in read]
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"
