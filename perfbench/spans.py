"""Spans around the package's public functions, and the per-layer metrics.

A traced pass installs wrappers on the attributes through which the package
calls its own public functions (``selfconformal.experiments.sample_symbol_block``
is the sampler as the counting engine sees it, ``selfconformal.measure.
region_measure`` is the pruner as ``ball_measure`` sees it, and so on). Each
wrapped call records a span -- name, start, end, parent -- and a few work
counts read from its arguments and result. Spans stay in memory; the layer
metrics are derived from them when the pass ends. The package source is not
changed, and the wrappers are removed when the ``Tracer`` context exits.

``ifs`` and ``symbolic`` have no public entry point on the benchmarked paths;
their work (window projection, hit tests, checkpoint reduction) is the self
time of the counting-run span, ``experiments.engine_self_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

CHAINS = ("bernoulli", "density", "spectral")
_CHAIN_OF_BACKEND = {"BernoulliBackend": "bernoulli", "DensityBackend": "density",
                     "SpectralBackend": "spectral"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index into Tracer.spans
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(span.duration - covered)
    return out


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bind


# counts(bound arguments, result) -> work counts recorded on the span

def _run_counts(a, result):
    n_ids = a["samples"] if a["sample_ids"] is None else len(a["sample_ids"])
    return {"steps": int(a["N"]) * int(n_ids)}


def _sample_counts(a, result):
    return {"rows": result.shape[0], "symbols": result.size}


def _cdf_counts(a, result):
    return {"points": result[0].size}


def _region_counts(a, result):
    return {"wide": int(result.width > 0.1 * max(result.midpoint, 1e-300))}


def _eigen_counts(a, result):
    return {"cells": result.mu_table.size, "iterations": result.iterations}


def _emit_counts(a, result):
    return {"rows": sum(len(r.checkpoints) for r in a["records"])}


# (module, attribute, span name, counts): every call site the benchmarked
# configs reach, named by the module it is called through. "{chain}" in a
# name is filled from the call's backend argument.
HOOKS = (
    ("cli", "run", "cli.run", None),
    ("cli", "validate_config", "cli.validate_config", None),
    ("cli", "run_named_example", "experiments.named", None),
    ("cli", "shrinking_target_run", "experiments.run", _run_counts),
    ("cli", "recurrence_pure_run", "experiments.run", _run_counts),
    ("cli", "recurrence_modified_run", "experiments.run", _run_counts),
    ("cli", "eigen_solve", "gibbs.eigen_solve", _eigen_counts),
    ("cli", "write_results_csv", "experiments.emit", _emit_counts),
    ("cli", "summarize_records", "experiments.emit", None),
    ("experiments", "recurrence_pure_run", "experiments.run", _run_counts),
    ("experiments", "summarize_records", "experiments.emit", None),
    ("experiments", "sample_symbol_block", "dynamics.sample.{chain}", _sample_counts),
    ("experiments", "cantor_cdf_bracket", "measure.cdf", _cdf_counts),
    ("experiments", "ball_measure", "measure.ball", None),
    ("experiments", "eigen_solve", "gibbs.eigen_solve", _eigen_counts),
    ("experiments", "mixing_coeff_cylinders", "gibbs.mixing", None),
    ("measure", "cantor_cdf_bracket", "measure.cdf", _cdf_counts),
    ("measure", "ball_measure", "measure.ball", None),
    ("measure", "region_measure", "measure.region", _region_counts),
)


class Tracer:
    """Context manager: wraps the hooked functions and records spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._saved = []

    def _wrap(self, fn: Callable, name: str, counts: Optional[Callable]) -> Callable:
        tracer = self
        bind = _binder(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if "{chain}" in name:
                backend = type(bind(args, kwargs)["backend"]).__name__
                label = name.format(chain=_CHAIN_OF_BACKEND[backend])
            span = Span(label, time.perf_counter(),
                        parent=tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.counts["errors"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                span.counts.update(counts(bind(args, kwargs), result))
            return result
        return wrapper

    def __enter__(self):
        for mod_name, attr, name, counts in HOOKS:
            mod = importlib.import_module(f"selfconformal.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, counts))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False


# name -> (unit, better); the per-layer metrics of BENCHMARK.json
LAYER_METRICS = {}
for _chain in CHAINS:
    _p = f"dynamics.sample.{_chain}."
    LAYER_METRICS.update({_p + "calls": ("count", "lower"), _p + "rows": ("count", "lower"),
                          _p + "symbols": ("count", "lower"), _p + "s": ("s", "lower"),
                          _p + "symbols_per_s": ("1/s", "higher")})
LAYER_METRICS.update({
    "experiments.run.calls": ("count", "lower"),
    "experiments.run.s": ("s", "lower"),
    "experiments.steps": ("count", "lower"),
    "experiments.engine_self_s": ("s", "lower"),
    "experiments.engine_steps_per_s": ("1/s", "higher"),
    "experiments.named_self_s": ("s", "lower"),
    "experiments.emit.rows": ("count", "lower"),
    "experiments.emit.s": ("s", "lower"),
    "experiments.flagged_frac": ("ratio", "lower"),
    "experiments.pool2_speedup": ("x", "higher"),
    "measure.cdf.calls": ("count", "lower"),
    "measure.cdf.points": ("count", "lower"),
    "measure.cdf.s": ("s", "lower"),
    "measure.cdf.points_per_s": ("1/s", "higher"),
    "measure.ball.calls": ("count", "lower"),
    "measure.ball.s": ("s", "lower"),
    "measure.region.calls": ("count", "lower"),
    "measure.region.s": ("s", "lower"),
    "measure.region.wide": ("count", "lower"),
    "measure.region.errors": ("count", "lower"),
    "gibbs.eigen_solve.calls": ("count", "lower"),
    "gibbs.eigen_solve.cells": ("count", "lower"),
    "gibbs.eigen_solve.iterations": ("count", "lower"),
    "gibbs.eigen_solve.s": ("s", "lower"),
    "gibbs.mixing.calls": ("count", "lower"),
    "gibbs.mixing.s": ("s", "lower"),
    "cli.validate_config.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_values(spans: List[Span]) -> Dict[str, float]:
    """Per-layer values from one traced pass: every name in LAYER_METRICS
    but the three that need more than the spans (``experiments.flagged_frac``,
    ``experiments.pool2_speedup`` and ``trace.overhead_s``)."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    secs = defaultdict(float)
    self_s = defaultdict(float)
    work = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        secs[span.name] += span.duration
        self_s[span.name] += own
        for k, v in span.counts.items():
            work[f"{span.name}.{k}"] += v
    out = {}
    for chain in CHAINS:
        p = f"dynamics.sample.{chain}"
        out.update({p + ".calls": calls[p], p + ".rows": work[p + ".rows"],
                    p + ".symbols": work[p + ".symbols"], p + ".s": secs[p],
                    p + ".symbols_per_s": _rate(work[p + ".symbols"], secs[p])})
    steps = work["experiments.run.steps"]
    out.update({
        "experiments.run.calls": calls["experiments.run"],
        "experiments.run.s": secs["experiments.run"],
        "experiments.steps": steps,
        "experiments.engine_self_s": self_s["experiments.run"],
        "experiments.engine_steps_per_s": _rate(steps, self_s["experiments.run"]),
        "experiments.named_self_s": self_s["experiments.named"],
        "experiments.emit.rows": work["experiments.emit.rows"],
        "experiments.emit.s": secs["experiments.emit"],
        "measure.cdf.calls": calls["measure.cdf"],
        "measure.cdf.points": work["measure.cdf.points"],
        "measure.cdf.s": secs["measure.cdf"],
        "measure.cdf.points_per_s": _rate(work["measure.cdf.points"], secs["measure.cdf"]),
        "measure.ball.calls": calls["measure.ball"],
        "measure.ball.s": secs["measure.ball"],
        "measure.region.calls": calls["measure.region"],
        "measure.region.s": secs["measure.region"],
        "measure.region.wide": work["measure.region.wide"],
        "measure.region.errors": work["measure.region.errors"],
        "gibbs.eigen_solve.calls": calls["gibbs.eigen_solve"],
        "gibbs.eigen_solve.cells": work["gibbs.eigen_solve.cells"],
        "gibbs.eigen_solve.iterations": work["gibbs.eigen_solve.iterations"],
        "gibbs.eigen_solve.s": secs["gibbs.eigen_solve"],
        "gibbs.mixing.calls": calls["gibbs.mixing"],
        "gibbs.mixing.s": secs["gibbs.mixing"],
        "cli.validate_config.s": secs["cli.validate_config"],
    })
    return out
