"""Every name the package and its modules list in ``__all__`` exists, once.

A deletion that leaves its name in an ``__all__`` list breaks
``from selfconformal import *`` only when someone runs it; this catches the
stale entry at test time.
"""

import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "selfconformal"
MODULES = [
    "selfconformal" if p.stem == "__init__" else f"selfconformal.{p.stem}"
    for p in sorted(PACKAGE.glob("*.py")) if "__all__" in p.read_text()
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [e for e in exported if not hasattr(module, e)]
    assert not missing, f"{name}.__all__ lists undefined names: {', '.join(missing)}"
    repeated = sorted({e for e in exported if exported.count(e) > 1})
    assert not repeated, f"{name}.__all__ lists names more than once: {', '.join(repeated)}"
