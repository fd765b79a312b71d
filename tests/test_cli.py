"""Tests for the config-driven command line: artifacts, exit codes, closure."""

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from selfconformal import experiments, gibbs
from selfconformal.cli import (
    ARTIFACTS,
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    EXIT_OK,
    _conforms,
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
from selfconformal.ifs import BUILTIN_SYSTEMS, builtin_system, system_to_json
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

    @pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
    def test_explicit_system_round_trip_validates(self, name):
        cfg = small_config()
        cfg["system"] = system_to_json(builtin_system(name))
        validate_config(cfg)

    @pytest.mark.parametrize("edit, path, key", [
        (lambda s: s.update(bogus_key=1), "system", "bogus_key"),
        (lambda s: s.update(iterate_power=1), "system", "iterate_power"),
        (lambda s: s["maps"][0].pop("a"), "system/maps/0", "a"),
        (lambda s: s["maps"][1].update(c=1.0), "system/maps/1", "c"),
    ], ids=["system_key", "iterate_power", "missing_map_key", "extra_map_key"])
    def test_explicit_system_keys_are_the_ones_read(self, tmp_path, capsys, edit, path, key):
        cfg = small_config()
        cfg["system"] = system_to_json(builtin_system("middle_third_cantor"))
        edit(cfg["system"])
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        assert err["message"].startswith(f"schema violation at {path}: ")
        assert f"'{key}'" in err["message"]


_BOUND_KEYWORDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")


def _schema_words(schema, keys, strings, bounds):
    """Collect the property names, string constants and numeric bounds a
    schema names."""
    if isinstance(schema, dict):
        keys.update(schema.get("properties", {}))
        keys.update(schema.get("required", ()))
        for key in ("enum", "const"):
            values = schema.get(key, [])
            strings.update(v for v in (values if isinstance(values, list) else [values])
                           if isinstance(v, str))
        bounds.update(schema[key] for key in _BOUND_KEYWORDS if key in schema)
        for value in schema.values():
            _schema_words(value, keys, strings, bounds)
    elif isinstance(schema, list):
        for value in schema:
            _schema_words(value, keys, strings, bounds)
    return keys, strings, bounds


_SCHEMA = load_schema()
_KEYS, _STRINGS, _BOUNDS = _schema_words(_SCHEMA, set(), set(), set())
_KEYS = sorted(_KEYS | {"surprise", "hit_test"})
_BOUNDS = sorted(_BOUNDS)
_VALUES = [
    None, True, False,
    0, 1, 2, -1, 3, 14, 15, 200, 201, 2 ** 64 - 1, 2 ** 64,
    0.0, -0.0, 0.5, 1.0, 2.0, -0.5, 1.5, 1e300,
    *sorted(_STRINGS), "x",
    [], [0.5, 0.5], [0.0], [True, 0.5], [1, 2], [[0.1]], [[0.0, 0.0], [1.0, 1.0]],
    [0.3, 0.7, 0.0], [{"type": "affine1d", "a": 0.5, "b": 0.0}] * 2,
    {}, {"type": "constant", "c": 0.5}, {"type": "power", "c": 1.0, "beta": 0.5},
    {"type": "power_log", "alpha": 1.0}, {"type": "density", "name": "reciprocal_log2"},
    {"type": "spectral", "base": {"type": "conformal_power", "s": 1.0}, "depth": 6},
    {"type": "spectral", "base": {"type": "bernoulli", "p": [0.5, 0.5]}, "depth": 3},
    {"builtin": "sierpinski_triangle"}, {"ball": 6}, {"N": 5},
    {"kind": "named_example", "name": "B.2", "seed": 1},
]


def _differential_seeds():
    seeds = [read_config(str(shipped_example_path(name))) for name in sorted(NAMED_EXAMPLES)]
    for name in sorted(BUILTIN_SYSTEMS):
        cfg = small_config()
        cfg["system"] = system_to_json(builtin_system(name))
        seeds.append(cfg)
    seeds += [small_config(kind=kind) for kind in
              ("shrinking_target", "recurrence_pure", "recurrence_modified", "named_example")]
    # numbers at the schema's bounds, so that a nudge crosses them
    seeds.append(small_config(seed=2 ** 64 - 1, epsilon=1e-9, flag_budget=0,
                              depth_budgets={"ball": 200}, checkpoints=[1]))
    seeds.append({**small_config(), "threads": 1, "potential": {
        "type": "spectral", "base": {"type": "bernoulli", "p": [1e-9, 0.999999999]},
        "depth": 14}})
    return seeds


_SEEDS = _differential_seeds()
_VALIDATOR = jsonschema.Draft202012Validator(_SCHEMA)


def _paths(node, path=()):
    """Every path into a JSON tree, the root's included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


@st.composite
def mutated_configs(draw):
    """A seed config with one to three values replaced, keys deleted or added.

    One seeded ``Random`` makes every choice, so paths and values are drawn
    uniformly rather than with Hypothesis' bias toward the first ones. Half
    the replaced numbers (and bools) take a bool, a value near the old one
    (its negation, successor or float form) or one at a bound the schema
    sets.
    """
    rng = draw(st.randoms(use_true_random=False))
    config = copy.deepcopy(rng.choice(_SEEDS))
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_paths(config)))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else config
        edit, value = rng.choice(["replace", "delete", "add"]), copy.deepcopy(rng.choice(_VALUES))
        if edit == "add" and isinstance(node, dict):
            node[rng.choice(_KEYS)] = value
        elif edit == "add" and isinstance(node, list):
            node.append(value)
        elif edit == "delete" and path:
            del parent[path[-1]]
        elif path:
            leaf, bound = parent[path[-1]], rng.choice(_BOUNDS)
            if isinstance(leaf, (int, float)) and rng.random() < 0.5:
                value = rng.choice([True, False, float(leaf), -leaf, leaf + 1,
                                    bound, float(bound), bound - 1, bound + 1])
            parent[path[-1]] = value
    return config


class TestSchemaChecker:
    """``_conforms`` decides validity; it must agree with jsonschema everywhere."""

    @settings(derandomize=True, max_examples=1200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_configs())
    def test_agrees_with_jsonschema_on_mutated_configs(self, config):
        assert _conforms(config, _SCHEMA) == _VALIDATOR.is_valid(config)

    def test_agrees_with_jsonschema_on_the_seeds(self):
        assert [_conforms(c, _SCHEMA) for c in _SEEDS] == [_VALIDATOR.is_valid(c) for c in _SEEDS]

    @pytest.mark.parametrize("instance, schema, want", [
        (True, {"type": "number"}, False),
        (False, {"type": "integer"}, False),
        (1.0, {"type": "integer"}, True),
        (1.5, {"type": "integer"}, False),
        (2 ** 64, {"type": "integer", "maximum": 2 ** 64 - 1}, False),
        (True, {"const": 1}, False),
        (1, {"const": True}, False),
        (1.0, {"enum": [1, 2]}, True),
        ([True], {"const": [1]}, False),
        (True, {"minimum": 5}, True),
        (-0.0, {"exclusiveMinimum": 0}, False),
        ({"a": 1}, {"additionalProperties": {"type": "string"}}, False),
        ([1, 2, 3], {"minItems": 1, "maxItems": 2}, False),
        (3, {"oneOf": [{"type": "integer"}, {"type": "number"}]}, False),
        (3, {"if": {"type": "integer"}, "else": False}, True),
        ([0.0], {"$defs": {"pt": {"items": {"type": "number"}}}, "$ref": "#/$defs/pt"}, True),
    ])
    def test_json_schema_rules(self, instance, schema, want):
        assert _conforms(instance, schema) == want
        assert jsonschema.Draft202012Validator(schema).is_valid(instance) == want

    @pytest.mark.parametrize("schema", [
        {"type": "string", "pattern": "^a"},
        {"properties": {"x": {"uniqueItems": True}}},
        {"$ref": "https://example.invalid/schema.json"},
    ])
    def test_unsupported_keyword_raises(self, schema):
        with pytest.raises(ValueError, match="unsupported"):
            _conforms({"x": ["a"]}, schema)


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
        kind = cfg["experiment"]["kind"]
        assert err["message"] == (
            f"schema violation at experiment/{key}: experiment kind {kind!r} does not read {key!r}")


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

    def test_integral_float_ball_budget_runs_as_the_integer(self, tmp_path):
        # the schema reads 8.0 as an integer; the pruner refuses a float budget
        outputs = []
        for budget in (8, 8.0):
            cfg = small_config(psi={"type": "constant", "c": 0.3}, N=50, samples=2, seed=1,
                               depth_budgets={"ball": budget})
            cfg["system"] = {"builtin": "sierpinski_triangle"}
            cfg["potential"] = {"type": "bernoulli", "p": [0.2, 0.3, 0.5]}
            out = tmp_path / str(budget)
            assert run(write_config(tmp_path, cfg), str(out)) == EXIT_OK
            outputs.append([(out / name).read_bytes() for name in ("results.csv", "summary.json")])
        assert outputs[0] == outputs[1]

    def test_planar_shrinking_target_at_the_default_ball_budget(self, tmp_path):
        # the target ball's straddle frontier passes the pruner's node cap,
        # which ends the descent with the certified bracket it holds
        cfg = small_config(kind="shrinking_target", targets=[0.5, 0.0],
                           psi={"type": "constant", "c": 0.1}, N=200, samples=2, seed=1)
        cfg["system"] = {"builtin": "sierpinski_triangle"}
        cfg["potential"] = {"type": "bernoulli", "p": [1 / 3, 1 / 3, 1 / 3]}
        start = time.perf_counter()
        assert run(write_config(tmp_path, cfg), str(tmp_path / "out")) == EXIT_OK
        assert time.perf_counter() - start < 10.0


# Small runs, one per hit test and two whose ball masses come from the
# cylinder pruner, with the SHA-256 digests of their artifacts. The digests
# pin the bits of the whole path (sampling, projection, hit test, ball
# masses, checkpoint reduction and emission): a change that moves any of them
# must say so.
PINNED_RUNS = {
    "symbolic_pure": (
        {
            "system": {"builtin": "middle_third_cantor"},
            "potential": {"type": "bernoulli", "p": [0.3, 0.7]},
            "experiment": {"kind": "recurrence_pure", "psi": {"type": "constant", "c": 1 / 27},
                           "N": 3000, "samples": 6, "seed": 5, "checkpoints": [1, 2, 3, 700]},
        },
        "c527bb12877ef0d02fbbe33bfbb7180e30f705e335b65d03f3e29debbed131a0",
        "388b95587b851963fcd18bd6e643163c84ecb614280909af0b935bf9c7a5cd3d",
    ),
    "distance_shrink": (
        {
            "system": {"builtin": "middle_third_cantor"},
            "potential": {"type": "bernoulli", "p": [0.4, 0.6]},
            "experiment": {"kind": "shrinking_target", "targets": [0.25],
                           "psi": {"type": "power", "c": 0.5, "beta": 0.5},
                           "N": 2000, "samples": 6, "seed": 9, "checkpoints": [1, 50, 1999]},
        },
        "f9546cd89d5f2b1b3527e15f4d99949d4e158f3f021c3d1b4fa43e6e9fbf5cde",
        "079fe1ecdce26a5033fa7de4cee77ce3d84a58e584be396c325cf625cfdaea6f",
    ),
    "mass_modified": (
        {
            "system": {"builtin": "middle_third_cantor"},
            "potential": {"type": "bernoulli", "p": [0.3, 0.7]},
            "experiment": {"kind": "recurrence_modified",
                           "psi": {"type": "power", "c": 1.0, "beta": 0.5},
                           "N": 1500, "samples": 5, "seed": 13},
        },
        "ca7af40c006c2a25c6cb633a0fefa622faf43eb0583a3aaee6f4b0ab3617e0ff",
        "68b23a3fe0845a9cd85ae78b7730b686eb135027262f5015908610995e2dd273",
    ),
    "density_modified": (
        {
            "system": {"builtin": "moebius_interval_quartet"},
            "potential": {"type": "density", "name": "reciprocal_log2"},
            "experiment": {"kind": "recurrence_modified",
                           "psi": {"type": "power", "c": 1.0, "beta": 0.5},
                           "N": 1500, "samples": 5, "seed": 23},
        },
        "d6ab5fc9f9020007c5f5c02a2eccee7f6bf5ff722825cfb7ce2d67254e300672",
        "2c80e89dc81159cb173f5c2b70431065515f02b2bbaf0ee834cfc618717dd02b",
    ),
    # no closed form: target-ball and own-ball masses come from the pruner
    "pruner_shrink": (
        {
            "system": {"builtin": "moebius_interval_pair"},
            "potential": {"type": "bernoulli", "p": [0.35, 0.65]},
            "experiment": {"kind": "shrinking_target", "targets": [0.3],
                           "psi": {"type": "power", "c": 0.5, "beta": 0.5},
                           "N": 400, "samples": 5, "seed": 17, "checkpoints": [1, 100, 400]},
        },
        "16832198b507bdba62f179dab7b759b0782381dd9814b9972fd40d0b57ce5bb9",
        "63fe5c78d6f3539098c7cba2b1f0173d18bb39f59438406a2b2b6e5af3ec7237",
    ),
    "pruner_spectral_pure": (
        {
            "system": {"builtin": "moebius_interval_quartet"},
            "potential": {"type": "spectral", "base": {"type": "conformal_power", "s": 1.0},
                          "depth": 6},
            "experiment": {"kind": "recurrence_pure", "psi": {"type": "constant", "c": 0.05},
                           "N": 600, "samples": 4, "seed": 17, "checkpoints": [1, 60, 600],
                           "depth_budgets": {"ball": 6}},
        },
        "4657631c8908192c6d51c2f45f0f9ee3912d443e02e5252cf7f3697fb89fc99d",
        "c5090c692f64784fd6fa2d6edc217376f0a67d2d5c08be748df8d29bbf386401",
    ),
    # constant branch weights: the collocated eigenfunction is h = 1
    "bernoulli_spectral_pure": (
        {
            "system": {"builtin": "moebius_interval_quartet"},
            "potential": {"type": "spectral", "base": {"type": "bernoulli",
                                                       "p": [0.1, 0.2, 0.3, 0.4]},
                          "depth": 6},
            "experiment": {"kind": "recurrence_pure", "psi": {"type": "constant", "c": 0.05},
                           "N": 600, "samples": 4, "seed": 29, "checkpoints": [1, 60, 600],
                           "depth_budgets": {"ball": 6}},
        },
        "1648621bde21a1114caa73afcbbe6f4c73160acfbd7438b45e14bfd16d54d950",
        "a05515ca76f13e64947abbb6fed1121ba176dc653832ac53558597b83aead906",
    ),
    # planar: gasket target at a vertex, Cantor-staircase radii 1, 1/3, 1/9,
    # 1/27 whose target balls come from the pruner
    "planar_shrink": (
        {
            "system": {"builtin": "sierpinski_triangle"},
            "potential": {"type": "bernoulli", "p": [0.2, 0.3, 0.5]},
            "experiment": {"kind": "shrinking_target", "targets": [0.0, 0.0],
                           "psi": {"type": "power_log", "alpha": 0.5},
                           "N": 2000, "samples": 5, "seed": 3, "checkpoints": [1, 100, 2000]},
        },
        "c1950dc2733c532a8c08080339e00c930152b2061843384176959eaca01e9a09",
        "e3487a96e5ffab4d05c78c93db61778d40a20e55764342a18be95b3a0b1d683e",
    ),
    # named analyses: ABB's integral_sum and tail_probe, 7.1's mc_step30
    "named_7.1": (
        {"experiment": {"kind": "named_example", "name": "7.1", "seed": 7101,
                        "overrides": {"N": 20000, "samples": 40, "mc_samples": 20000}}},
        "d0a7aa7a5de1ec3f200e15cee2a0961da2f6a09780d64be7789016ab4dc5b122",
        "f4688bc682d2832703e6e20efdc0c7d3ec4780c87fe6110e814a781ebd9a3a85",
    ),
    "named_ABB": (
        {"experiment": {"kind": "named_example", "name": "ABB", "seed": 311,
                        "overrides": {"N": 50000, "samples": 20, "quadrature_samples": 1024,
                                      "tail_points": 5, "tail_split": 10000}}},
        "175c7ba823b0d5eba257c6fa1dada4cac0ac5578257e6790e26ddd61bdfdafc7",
        "c342285d1dd7971f4a1e104af09bddd6dc9e2e9a1f51679bbd35e8c90dc33147",
    ),
}


class TestPinnedArtifacts:
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_artifact_digests(self, tmp_path, name):
        cfg, results_sha, summary_sha = PINNED_RUNS[name]
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_OK, name
        for artifact, want in (("results.csv", results_sha), ("summary.json", summary_sha)):
            got = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
            assert got == want, f"{name}: {artifact} digest changed"


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

    @pytest.mark.parametrize("override, path", [
        ({"seed": -1}, "experiment/seed"),
        ({"threads": 0}, "threads"),
        ({"threads": -3}, "threads"),
        ({"seed": 2 ** 64}, "experiment/seed"),
    ])
    def test_override_off_the_schema_exit_2_before_running(
            self, tmp_path, capsys, monkeypatch, override, path):
        def refuse(*args, **kwargs):
            raise AssertionError("ran a config the schema rejects")

        monkeypatch.setattr("selfconformal.cli._execute_resolved", refuse)
        out = tmp_path / "out"
        assert run(write_config(tmp_path, small_config()), str(out), **override) == EXIT_CONFIG
        assert not out.exists()
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert f"schema violation at {path}:" in message

    def test_config_seed_past_64_bits_exit_2_before_running(self, tmp_path, capsys, monkeypatch):
        # Philox keys hold 64-bit seeds; 2**64 - 1 is the largest the schema takes
        validate_config(small_config(seed=2 ** 64 - 1))

        def refuse(*args, **kwargs):
            raise AssertionError("ran a config the schema rejects")

        monkeypatch.setattr("selfconformal.cli._execute_resolved", refuse)
        out = tmp_path / "out"
        assert run(write_config(tmp_path, small_config(seed=2 ** 64)), str(out)) == EXIT_CONFIG
        assert not out.exists()
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "schema violation at experiment/seed:" in message

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

    def test_density_not_invariant_for_the_system_exit_2(self, tmp_path, capsys):
        cfg = small_config()
        cfg["potential"] = {"type": "density", "name": "reciprocal_log2"}  # Cantor maps
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        assert "not invariant" in capsys.readouterr().err

    @pytest.mark.parametrize("diam", [[0.0, 0.001], [5.0, 0.2]])
    def test_attractor_diameter_off_the_attractor_exit_2(self, tmp_path, capsys, diam):
        cfg = small_config(kind="shrinking_target", targets=[0.5],
                           psi={"type": "constant", "c": 1e-3})
        cfg["system"] = system_to_json(builtin_system("middle_third_cantor"))
        cfg["system"]["attractor_diameter"] = diam
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config" and "attractor_diameter" in err["message"]

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

    def test_spectral_weight_count_off_the_system_exit_2_before_solving(
            self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("computed branch weights before checking their count")

        monkeypatch.setattr(gibbs, "_branch_weights", refuse)
        cfg = small_config()
        cfg["system"] = {"builtin": "moebius_interval_quartet"}
        cfg["potential"] = {"type": "spectral",
                            "base": {"type": "bernoulli", "p": [0.5, 0.5]}, "depth": 10}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "2 weights" in message and "4 maps" in message

    @pytest.mark.parametrize("s", [1e6, 1000.0, 400.0])
    def test_spectral_weights_out_of_float64_exit_2_before_collocating(
            self, tmp_path, capsys, monkeypatch, s):
        # 1e6 underflows every weight to 0, and 1000 and 400 leave some at 0
        def refuse(*args):
            raise AssertionError("collocated the operator")

        monkeypatch.setattr(gibbs, "_collocate", refuse)
        cfg = small_config(psi={"type": "constant", "c": 0.05}, N=200, samples=2)
        cfg["system"] = {"builtin": "moebius_interval_quartet"}
        cfg["potential"] = {"type": "spectral",
                            "base": {"type": "conformal_power", "s": s}, "depth": 10}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert f"s = {s}" in message and "weights from 0 to" in message

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

    def test_abb_tail_split_past_n_exit_2_no_artifacts(self, tmp_path, capsys):
        cfg = {"experiment": {"kind": "named_example", "name": "ABB", "seed": 1,
                              "overrides": {"N": 20000, "samples": 5}}}
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()
        assert "tail_split" in json.loads(capsys.readouterr().err)["error"]["message"]

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


class TestNonFiniteNumbers:
    """Python's json reads NaN and Infinity; a config holding one exits 2."""

    @pytest.mark.parametrize("edit, path, word", [
        (lambda c: c["potential"].update(p=[math.nan, 0.5]), "potential/p/0", "NaN"),
        (lambda c: (c.update(system={"builtin": "moebius_interval_pair"}),
                    c["experiment"].update(kind="shrinking_target", targets=[math.inf])),
         "experiment/targets/0", "Infinity"),
        (lambda c: c["experiment"].update(psi={"type": "power", "c": math.nan, "beta": 0.5}),
         "experiment/psi/c", "NaN"),
        (lambda c: c["experiment"].update(psi={"type": "power", "c": 1.0, "beta": math.nan}),
         "experiment/psi/beta", "NaN"),
        (lambda c: c["experiment"].update(epsilon=-math.inf), "experiment/epsilon", "-Infinity"),
    ], ids=["bernoulli_p", "targets", "psi_c", "psi_beta", "epsilon"])
    def test_exit_2_names_the_key_and_writes_nothing(self, tmp_path, capsys, edit, path, word):
        config = small_config(N=200, samples=2)
        edit(config)
        cfg = write_config(tmp_path, config)
        assert word in (tmp_path / "cfg.json").read_text()  # json.dumps writes the literal
        out = tmp_path / "out"
        assert main(["run", cfg, str(out)]) == EXIT_CONFIG
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        assert err["message"] == f"schema violation at {path}: {word} is not a finite number"


    @pytest.mark.parametrize("kind", ["recurrence_pure", "recurrence_modified",
                                      "shrinking_target"])
    def test_overflowing_radius_exits_2_and_writes_nothing(self, tmp_path, capsys, kind):
        # finite in the config, infinite from n = 3 on: psi(n) = n^1000
        config = small_config(N=200, samples=2, kind=kind,
                              psi={"type": "power", "c": 1.0, "beta": -1000})
        if kind == "shrinking_target":
            config["experiment"]["targets"] = [0.0]
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, config), str(out)]) == EXIT_CONFIG
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        assert err["message"] == "radius function must be strictly positive and finite"


# a fresh interpreter: run the CLI, then report what it loaded
_COLD_START = """
import json, sys
from selfconformal import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(
    m for m in ("jsonschema", "concurrent.futures.process", "numpy.ma") if m in sys.modules)}))
"""


def _cold_run(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, *args],
                          capture_output=True, text=True, env=env)
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout), proc.stderr


class TestColdStart:
    def test_valid_run_loads_neither_jsonschema_nor_the_pool(self, tmp_path):
        cfg = write_config(tmp_path, small_config(N=200, samples=2, flag_budget=0.05))
        report, stderr = _cold_run("run", cfg, str(tmp_path / "out"))
        assert report == {"code": EXIT_OK, "loaded": []}, stderr
        assert (tmp_path / "out" / "results.csv").is_file()

    def test_pruner_run_loads_no_masked_arrays(self, tmp_path):
        # no closed-form CDF: the run counts its distinct radii before sampling
        cfg = small_config(N=200, samples=2, flag_budget=1.0)
        cfg["system"] = {"builtin": "moebius_interval_pair"}
        report, stderr = _cold_run("run", write_config(tmp_path, cfg), str(tmp_path / "out"))
        assert report == {"code": EXIT_OK, "loaded": []}, stderr

    def test_refusal_is_worded_by_jsonschema(self, tmp_path):
        cfg = small_config()
        del cfg["experiment"]["seed"]
        report, stderr = _cold_run("run", write_config(tmp_path, cfg), str(tmp_path / "out"))
        assert report == {"code": EXIT_CONFIG, "loaded": ["jsonschema"]}
        assert json.loads(stderr)["error"]["message"] == (
            "schema violation at experiment: 'seed' is a required property")
        assert not (tmp_path / "out").exists()


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
