"""The traced benchmark pass wraps package functions by module and attribute
name (``perfbench/spans.py``); each of those names must exist, or the pass
fails before it measures anything, and each hook's counts function must read
what the function returns, or the pass fails once the call is made."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from selfconformal.experiments import recurrence_pure_run
from selfconformal.gibbs import BernoulliBackend, ConformalPowerPotential
from selfconformal.ifs import builtin_system
from selfconformal.measure import ConstantRadius, StripRegion

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look it up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_span_hook_resolves_on_the_package(spans):
    for module, attribute, _, _ in spans.HOOKS:
        target = importlib.import_module(f"selfconformal.{module}")
        assert callable(getattr(target, attribute, None)), f"{module}.{attribute}"


def _small_calls(tmp_path):
    """One small real call, as (args, kwargs), per hooked attribute that counts work."""
    cantor = builtin_system("middle_third_cantor")
    weighted = BernoulliBackend(cantor, (0.3, 0.7))
    psi = ConstantRadius(1.0 / 27.0)
    records = recurrence_pure_run(cantor, weighted, psi, 20, 2, 1)
    return {
        "shrinking_target_run": ((cantor, weighted, 0.25, psi, 20, 2, 1), {}),
        "recurrence_pure_run": ((cantor, weighted, psi, 20, 0, 1), {"sample_ids": [4, 5]}),
        "recurrence_modified_run": ((cantor, weighted, psi, 20, 2, 1), {}),
        "eigen_solve": ((builtin_system("moebius_interval_quartet"),
                         ConformalPowerPotential(1.0), 3), {}),
        "write_results_csv": ((tmp_path / "results.csv", records), {}),
        "sample_symbol_block": ((weighted, 1, [0, 1], 16), {}),
        "cantor_cdf_bracket": (((0.3, 0.7), np.linspace(0.0, 1.0, 5)), {}),
        "region_measure": ((weighted, StripRegion((1.0,), 0.5, 0.1), 12), {}),
    }


def test_every_counts_function_reads_a_real_result(spans, tmp_path):
    calls = _small_calls(tmp_path)
    for module, attribute, name, counts in spans.HOOKS:
        if counts is None:
            continue
        fn = getattr(importlib.import_module(f"selfconformal.{module}"), attribute)
        args, kwargs = calls[attribute]
        got = counts(spans._binder(fn)(args, kwargs), fn(*args, **kwargs))
        assert got and all(isinstance(v, (int, np.integer)) and v >= 0 for v in got.values()), \
            (name, got)
