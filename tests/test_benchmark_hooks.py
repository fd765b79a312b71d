"""The traced benchmark pass wraps package functions by module and attribute
name (``perfbench/spans.py``); each of those names must exist, or the pass
fails before it measures anything."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_hook_resolves_on_the_package(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    for module, attribute, _, _ in spans.HOOKS:
        target = importlib.import_module(f"selfconformal.{module}")
        assert callable(getattr(target, attribute, None)), f"{module}.{attribute}"
