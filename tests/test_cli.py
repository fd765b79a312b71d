"""Tests for the config-driven command line: artifacts, exit codes, closure."""

import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from selfconformal import experiments
from selfconformal.cli import (
    ARTIFACTS,
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    EXIT_OK,
    list_examples,
    load_schema,
    main,
    read_config,
    resolve_config,
    run,
    shipped_example_path,
    validate_config,
)
from selfconformal.experiments import NAMED_EXAMPLES, recurrence_pure_run
from selfconformal.gibbs import BernoulliBackend
from selfconformal.ifs import builtin_system
from selfconformal.measure import ConstantRadius, ball_measure


def small_config(**experiment):
    cfg = {
        "system": {"builtin": "middle_third_cantor"},
        "potential": {"type": "bernoulli", "p": [0.5, 0.5]},
        "experiment": {
            "kind": "recurrence_pure",
            "psi": {"type": "constant", "c": 0.5555555555555556},
            "N": 2000,
            "samples": 5,
            "seed": 77,
        },
    }
    cfg["experiment"].update(experiment)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestSchema:
    def test_schema_is_valid_draft_2020(self):
        schema = load_schema()
        jsonschema.validators.Draft202012Validator.check_schema(schema)

    def test_small_config_validates(self):
        validate_config(small_config())

    def test_seed_is_required(self):
        cfg = small_config()
        del cfg["experiment"]["seed"]
        with pytest.raises(ValueError, match="seed"):
            validate_config(cfg)

    def test_raw_kinds_require_system_and_potential(self):
        cfg = small_config()
        del cfg["system"]
        with pytest.raises(ValueError, match="system"):
            validate_config(cfg)

    def test_named_example_needs_only_name_and_seed(self):
        validate_config({"experiment": {"kind": "named_example", "name": "B.2", "seed": 82}})
        with pytest.raises(ValueError, match="name"):
            validate_config({"experiment": {"kind": "named_example", "seed": 82}})

    def test_shrinking_target_requires_targets(self):
        cfg = small_config(kind="shrinking_target")
        with pytest.raises(ValueError, match="targets"):
            validate_config(cfg)
        cfg["experiment"]["targets"] = [0.0]
        validate_config(cfg)

    def test_unknown_fields_and_kinds_rejected(self):
        cfg = small_config()
        cfg["experiment"]["surprise"] = 1
        with pytest.raises(ValueError):
            validate_config(cfg)
        with pytest.raises(ValueError):
            validate_config(small_config(kind="teleport"))
        cfg = small_config()
        cfg["system"] = {"builtin": "not_a_system"}
        with pytest.raises(ValueError):
            validate_config(cfg)
        for key, value in (("hit_test", "symbolic"), ("flag_divisor", 1000.0)):
            with pytest.raises(ValueError, match=key):
                validate_config(small_config(**{key: value}))


_NAMED = {"kind": "named_example", "name": "B.2", "seed": 1}


class TestKeysTheKindDoesNotRead:
    """A key the experiment kind ignores is a config error, not a silent no-op."""

    @pytest.mark.parametrize("cfg, key", [
        *[({"experiment": {**_NAMED, key: value}}, key) for key, value in (
            ("psi", {"type": "constant", "c": 0.5}),
            ("targets", [0.1]),
            ("N", 10),
            ("samples", 3),
            ("checkpoints", [5]),
            ("epsilon", 0.5),
            ("depth_budgets", {"ball": 3}),
        )],
        (small_config(name="7.1"), "name"),
        (small_config(overrides={"N": 5}), "overrides"),
        (small_config(targets=[0.1]), "targets"),
        (small_config(kind="recurrence_modified", targets=[0.1]), "targets"),
    ])
    def test_exit_2_names_the_key_and_writes_nothing(self, tmp_path, capsys, cfg, key):
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        assert f"experiment/{key}" in err["message"]


class TestListExamples:
    def test_all_names_listed_lexicographically(self, capsys):
        assert main(["list_examples"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        names = [ln.split()[0] for ln in lines]
        assert names == sorted(NAMED_EXAMPLES) == ["7.1", "7.2", "ABB", "B.2"]
        for name in names:
            assert NAMED_EXAMPLES[name] in out

    def test_each_name_maps_to_a_shipped_config(self):
        for name in NAMED_EXAMPLES:
            shipped = shipped_example_path(name)
            assert shipped.is_file(), name
            cfg = json.loads(shipped.read_text())
            validate_config(cfg)
            assert cfg["experiment"]["name"] == name


class TestRunArtifacts:
    def test_success_writes_three_artifacts(self, tmp_path):
        code = run(write_config(tmp_path, small_config()), str(tmp_path / "out"))
        assert code == EXIT_OK
        for name in ARTIFACTS:
            assert (tmp_path / "out" / name).is_file()
        header = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
        assert header == "sample_id,N,count,psi_sum,ball_sum,residual"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["summary"]["samples"] == 5
        assert summary["flagged_fraction"] <= summary["flag_budget"]

    def test_results_csv_byte_identical_across_reruns_and_threads(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        assert run(cfg, str(tmp_path / "a")) == EXIT_OK
        assert run(cfg, str(tmp_path / "b")) == EXIT_OK
        assert run(cfg, str(tmp_path / "c"), threads=2) == EXIT_OK
        a = (tmp_path / "a" / "results.csv").read_bytes()
        assert a == (tmp_path / "b" / "results.csv").read_bytes()
        assert a == (tmp_path / "c" / "results.csv").read_bytes()

    def test_config_echo_reruns_to_same_outputs(self, tmp_path):
        assert run(write_config(tmp_path, small_config()), str(tmp_path / "a")) == EXIT_OK
        echo = tmp_path / "a" / "config_echo.json"
        assert run(str(echo), str(tmp_path / "b")) == EXIT_OK
        for name in ARTIFACTS:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes(), name

    def test_empty_samples_writes_header_only_csv(self, tmp_path):
        code = run(write_config(tmp_path, small_config(samples=0)), str(tmp_path / "out"))
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert lines == ["sample_id,N,count,psi_sum,ball_sum,residual"]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["summary"]["samples"] == 0

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        assert run(cfg, str(tmp_path / "a"), seed=99) == EXIT_OK
        echo = json.loads((tmp_path / "a" / "config_echo.json").read_text())
        assert echo["experiment"]["seed"] == 99
        assert run(cfg, str(tmp_path / "b"), seed=99) == EXIT_OK
        assert run(cfg, str(tmp_path / "c")) == EXIT_OK
        a = (tmp_path / "a" / "results.csv").read_bytes()
        assert a == (tmp_path / "b" / "results.csv").read_bytes()
        assert a != (tmp_path / "c" / "results.csv").read_bytes()

    def test_checkpoints_and_psi_variants_run(self, tmp_path):
        cfg = small_config(kind="recurrence_modified",
                           psi={"type": "power", "c": 1.0, "beta": 0.5},
                           checkpoints=[100, 2000])
        assert run(write_config(tmp_path, cfg), str(tmp_path / "out")) == EXIT_OK
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 5  # header + 2 checkpoints x 5 samples

    def test_shrinking_target_with_moving_centers(self, tmp_path):
        cfg = small_config(kind="shrinking_target", N=100,
                           targets=[[0.0] if i % 2 else [1.0] for i in range(100)])
        assert run(write_config(tmp_path, cfg), str(tmp_path / "out")) == EXIT_OK

    def test_planar_pure_recurrence_sums_ball_midpoints(self, tmp_path):
        weights = [1 / 3, 1 / 3, 1 / 3]
        cfg = small_config(psi={"type": "constant", "c": 0.3}, N=50, samples=2, seed=1,
                           depth_budgets={"ball": 8})
        cfg["system"] = {"builtin": "sierpinski_triangle"}
        cfg["potential"] = {"type": "bernoulli", "p": weights}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_OK
        rows = (out / "results.csv").read_text().splitlines()[1:]
        ball_sums = {int(r.split(",")[0]): float(r.split(",")[4]) for r in rows}
        gasket = builtin_system("sierpinski_triangle")
        backend = BernoulliBackend(gasket, weights)
        records = recurrence_pure_run(gasket, backend, ConstantRadius(0.3), 50, 2, 1,
                                      ball_budget=8)
        for rec in records:
            mid = ball_measure(backend, rec.x0, 0.3, 8).midpoint
            assert ball_sums[rec.sample_id] == np.cumsum(np.full(50, mid))[-1]


class TestExitCodes:
    def test_malformed_json_exit_2_no_partial_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiment": ')
        out = tmp_path / "out"
        assert run(str(bad), str(out)) == EXIT_CONFIG
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 2
        assert "malformed" in err["error"]["message"]

    def test_schema_violation_exit_2_no_partial_outputs(self, tmp_path, capsys):
        cfg = small_config()
        del cfg["experiment"]["seed"]
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        assert "seed" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        assert run(str(tmp_path / "nope.json"), str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        capsys.readouterr()

    def test_semantically_invalid_backend_exit_2(self, tmp_path, capsys):
        cfg = small_config()
        cfg["potential"] = {"type": "bernoulli", "p": [0.2, 0.3, 0.5]}  # m = 2 system
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        capsys.readouterr()

    def test_flag_budget_exceeded_exit_3_with_artifacts(self, tmp_path, capsys):
        cfg = small_config(flag_budget=0.001)  # boundary-hugging radius flags ~0.6%
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CERTIFICATION
        for name in ARTIFACTS + ("error.json",):
            assert (out / name).is_file(), name
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["kind"] == "flag_budget"
        assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == 3

    def test_certification_failure_exit_3(self, tmp_path, capsys):
        cfg = small_config(kind="recurrence_modified",
                           psi={"type": "power", "c": 1.0, "beta": 0.5},
                           N=100, samples=2)
        cfg["potential"] = {"type": "spectral",
                           "base": {"type": "bernoulli", "p": [0.3, 0.7]},
                           "depth": 5}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CERTIFICATION
        assert (out / "error.json").is_file()
        assert not (out / "results.csv").exists()
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "certification"


    def test_spectral_ball_budget_beyond_table_exit_2_before_sampling(
            self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before refusing the run")

        monkeypatch.setattr(experiments, "sample_symbol_block", refuse)
        cfg = small_config(psi={"type": "constant", "c": 0.05}, N=200, samples=3)
        cfg["system"] = {"builtin": "moebius_interval_quartet"}
        cfg["potential"] = {"type": "spectral",
                            "base": {"type": "conformal_power", "s": 1.0}, "depth": 6}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "45" in message and "depth 6" in message and "depth_budgets.ball" in message

    def test_spectral_depth_1_pure_recurrence_runs(self, tmp_path):
        # seed 1 gives sample ids 3 and 4 a first symbol other than 1, so the
        # sampler must leave the one-row depth-1 context table correctly
        cfg = small_config(psi={"type": "constant", "c": 0.05}, N=200, samples=5,
                           seed=1, depth_budgets={"ball": 1})
        cfg["system"] = {"builtin": "moebius_interval_quartet"}
        cfg["potential"] = {"type": "spectral",
                            "base": {"type": "conformal_power", "s": 1.0}, "depth": 1}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_OK
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 5


class TestShippedExamples:
    def test_basename_fallback_resolves_shipped_config(self, tmp_path):
        cfg = read_config("examples/B.2.json")
        assert cfg["experiment"]["name"] == "B.2"
        code = run("examples/B.2.json", str(tmp_path / "out"))
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["doubling_monotone"] is True
        assert summary["final_ratio_lower"] > 100.0
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert len(lines) == 1  # no sampled orbits in this analysis

    @pytest.mark.parametrize("name, overrides, hint", [
        ("B.2", {"seed": 3}, "experiment.seed"),
        ("B.2", {"threads": 2}, "--threads"),
        ("7.1", {"n": 4000}, "accepted: N, samples, mc_samples"),
    ])
    def test_override_the_example_does_not_take_exit_2_no_artifacts(
            self, tmp_path, capsys, name, overrides, hint):
        cfg = {"experiment": {"kind": "named_example", "name": name, "seed": 1,
                              "overrides": overrides}}
        validate_config(cfg)
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        assert hint in err["message"] and next(iter(overrides)) in err["message"]

    def test_fractional_override_exit_2_no_artifacts(self, tmp_path, capsys):
        cfg = {"experiment": {"kind": "named_example", "name": "7.1", "seed": 1,
                              "overrides": {"N": 2000.9, "samples": 3}}}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        assert "overrides/N" in json.loads(capsys.readouterr().err)["error"]["message"]
        cfg["experiment"]["overrides"]["N"] = 2000.0  # an integral float is an integer
        validate_config(cfg)

    def test_named_example_with_overrides_reports_region_means(self, tmp_path):
        cfg = {"experiment": {"kind": "named_example", "name": "7.1", "seed": 7101,
                              "overrides": {"N": 4000, "samples": 30,
                                            "mc_samples": 1000}}}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert 0.6 < summary["regions"]["outer"]["mean_ratio"] < 1.0
        assert 1.0 < summary["regions"]["middle"]["mean_ratio"] < 1.4
        assert "elapsed_seconds" not in summary
        echo = json.loads((out / "config_echo.json").read_text())
        validate_config(echo)
        assert run(str(out / "config_echo.json"), str(tmp_path / "b")) == EXIT_OK
        assert (out / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv").read_bytes()


class TestMainEntry:
    def test_flags_and_positionals_accepted(self, tmp_path):
        cfg = write_config(tmp_path, small_config(N=200, samples=2, flag_budget=0.05))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["run", cfg, str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv").read_bytes()

    def test_missing_arguments_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2

    def test_console_entry_subprocess(self, tmp_path):
        cfg = write_config(tmp_path, small_config(N=200, samples=2, flag_budget=0.05))
        proc = subprocess.run(
            [sys.executable, "-m", "selfconformal.cli", "run",
             "--config", cfg, "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "summary.json").is_file()

    def test_resolver_is_idempotent(self):
        once = resolve_config(small_config(), seed=5, threads=2)
        twice = resolve_config(once)
        assert once == twice
