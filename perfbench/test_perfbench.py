"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_union_of_direct_children():
    tree = [
        Span("experiments.run", 0.0, 10.0, counts={"steps": 100}),
        Span("dynamics.sample.bernoulli", 1.0, 3.0, parent=0, counts={"symbols": 40}),
        Span("measure.ball", 2.0, 5.0, parent=0),  # overlaps the span before
        Span("measure.region", 2.0, 2.5, parent=2),
        Span("measure.cdf", 7.0, 8.0, parent=0, counts={"points": 6}),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.5, 0.5, 1.0])
    values = spans.layer_values(tree)
    assert values["experiments.engine_self_s"] == pytest.approx(5.0)
    assert values["experiments.engine_steps_per_s"] == pytest.approx(20.0)
    assert values["experiments.run.s"] == pytest.approx(10.0)
    assert values["dynamics.sample.bernoulli.symbols_per_s"] == pytest.approx(20.0)
    assert values["measure.cdf.points_per_s"] == pytest.approx(6.0)
    assert values["measure.ball.s"] == pytest.approx(3.0)
    assert values["dynamics.sample.density.symbols_per_s"] == 0.0


def _write(directory: Path, name: str, config: dict) -> None:
    (directory / f"{name}.json").write_text(json.dumps(config))


@pytest.fixture
def bench_dirs(tmp_path, monkeypatch):
    configs = tmp_path / "configs"
    configs.mkdir()
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(run, "CONFIGS", configs)
    monkeypatch.setattr(run, "OUT", out)
    return configs


def test_invalid_and_exit3_configs_each_count_as_one_failed_op(bench_dirs):
    _write(bench_dirs, "invalid", {"experiment": {"kind": "recurrence_pure", "seed": 1}})
    _write(bench_dirs, "uncertified", {
        "system": {"builtin": "moebius_interval_quartet"},
        "potential": {"type": "spectral", "base": {"type": "conformal_power", "s": 1.0},
                      "depth": 3},
        "experiment": {"kind": "recurrence_modified", "psi": {"type": "constant", "c": 0.1},
                       "N": 50, "samples": 2, "seed": 1},
    })
    deadline = time.perf_counter() + 60.0
    outcomes = [run.run_cli(n, 1, 1, deadline) for n in ("invalid", "uncertified")]
    assert [o.code for o in outcomes] == [2, 3]
    attempted, failed, problems = run.tally(outcomes, run.identity_problems(outcomes))
    assert (attempted, failed, problems) == (2, 2, [])


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for key, produced in (("end_to_end", run.E2E_METRICS), ("per_layer", spans.LAYER_METRICS)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == produced
        for name, (unit, _) in declared.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_traced_counts_repeat_exactly(bench_dirs, monkeypatch):
    _write(bench_dirs, "tiny_equalized", {
        "system": {"builtin": "middle_third_cantor"},
        "potential": {"type": "bernoulli", "p": [0.3, 0.7]},
        "experiment": {"kind": "recurrence_modified",
                       "psi": {"type": "power", "c": 1.0, "beta": 0.5},
                       "N": 400, "samples": 4, "seed": 1},
    })
    _write(bench_dirs, "tiny_spectral", {
        "system": {"builtin": "moebius_interval_quartet"},
        "potential": {"type": "spectral", "base": {"type": "conformal_power", "s": 1.0},
                      "depth": 6},
        "experiment": {"kind": "recurrence_pure", "psi": {"type": "constant", "c": 0.05},
                       "N": 200, "samples": 3, "seed": 1, "depth_budgets": {"ball": 6}},
    })
    monkeypatch.setattr(run, "WORKLOADS", {
        "tiny": {"runs": ("tiny_equalized", "tiny_spectral"), "pool": "tiny_equalized"}})
    keys = ("experiments.steps", "measure.cdf.points", "gibbs.eigen_solve.iterations")
    first, second = ({k: run.traced("tiny", 5)[2][k]["value"] for k in keys} for _ in range(2))
    assert first == second
    assert all(v > 0 for v in first.values())
