"""Every name a package module imports is read somewhere in that module,
every private module-level name is read somewhere in the package, only
``ifs`` reads the format of a map, and only ``measure`` names the
radial-mass oracle's internals.

A name counts as used when the module loads it (including inside string
annotations) or lists it in ``__all__``.  A deliberate re-export that the
module itself never reads carries ``# noqa: F401`` on its import line.  A
private function, class or constant counts as read when any package module
loads it, imports it or reads it as an attribute.
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


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _package_reads() -> set:
    read = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        read |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return read


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_definition_is_read(path):
    read = _package_reads()
    unread = [f"{name} (line {line})" for name, line in
              _private_definitions(ast.parse(path.read_text())) if name not in read]
    assert not unread, f"{path.name} defines private names nothing reads: {', '.join(unread)}"


# The map format: a map's coefficient matrix and reflect bit, the system's
# coefficient columns, and the Moebius helpers and map classes that know them.
_FORMAT_ATTRIBUTES = {"matrix", "reflect", "_coeffs", "_flips"}
_MAP_CLASSES = {"Affine1D", "Moebius1D", "Similarity2D"}


def _is_format_name(name: str) -> bool:
    return name.startswith(("_moebius_", "_MOEBIUS_")) or name in _MAP_CLASSES


def _format_reads(tree: ast.Module, reexports: bool):
    """(scope, line, what) for every read of the map format: an attribute
    above, or an import or load of a format name.  ``reexports`` allows the
    imports (the package's re-exports of the map classes)."""
    scopes = [(n.lineno, n.end_lineno, n.name) for n in ast.walk(tree)
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]

    def scope(line):
        inner = sorted(s for s in scopes if s[0] <= line <= s[1])
        return ".".join(s[2] for s in inner) or "<module>"

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _FORMAT_ATTRIBUTES:
            yield scope(node.lineno), node.lineno, f".{node.attr}"
        elif isinstance(node, ast.Name) and _is_format_name(node.id):
            yield scope(node.lineno), node.lineno, node.id
        elif isinstance(node, ast.ImportFrom) and not reexports:
            for alias in node.names:
                if _is_format_name(alias.name):
                    yield scope(node.lineno), node.lineno, f"import {alias.name}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "ifs.py"],
                         ids=[p.name for p in MODULES if p.name != "ifs.py"])
def test_only_ifs_reads_the_map_format(path):
    tree = ast.parse(path.read_text())
    reads = [f"{where} (line {line}): {what}"
             for where, line, what in _format_reads(tree, path.name == "__init__.py")]
    assert not reads, f"{path.name} reads the map format outside ifs: {'; '.join(reads)}"


# The radial-mass oracle's internals: measure alone decides what the oracle
# serves, so no other module names them (ifs defines the Cantor test and
# does not load it).
_ORACLE_INTERNALS = {"_radial_table", "_radial_mass", "_closed_form", "_is_middle_third_cantor"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "measure.py"],
                         ids=[p.name for p in MODULES if p.name != "measure.py"])
def test_only_measure_names_the_radial_table(path):
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and node.id in _ORACLE_INTERNALS:
            names.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in _ORACLE_INTERNALS:
            names.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            names += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name in _ORACLE_INTERNALS]
    reads = [f"line {line}: {what}" for line, what in sorted(names)]
    assert not reads, f"{path.name} names the oracle's internals: {'; '.join(reads)}"
