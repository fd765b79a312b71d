"""Batch front door: config-driven experiment runs with CSV/JSON artifacts.

``selfconformal run --config PATH --out DIR [--seed N] [--threads N]`` loads a
JSON experiment configuration, validates it against the shipped schema,
dispatches to the experiment engines, and writes three artifacts into the
output directory:

``results.csv``
    One row per sample per checkpoint (``sample_id, N, count, psi_sum,
    ball_sum, residual``); header-only when the run has no samples.
``summary.json``
    Cross-sample summary (means, quantiles, flagged fraction) plus the
    experiment's headline quantities for named analyses.
``config_echo.json``
    The fully-resolved configuration (defaults materialized, seed and thread
    overrides applied). Re-running the echo reproduces the same artifacts.

Exit codes: 0 on success, 2 for unreadable / malformed / schema-invalid
configurations (nothing is written), 3 for numeric certification failures or
a flagged fraction above the configured ``flag_budget`` (a machine-readable
``error.json`` is written next to any completed artifacts). Errors are also
printed to stderr as a single JSON object.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import jsonschema

from .experiments import (
    NAMED_EXAMPLES,
    recurrence_modified_run,
    recurrence_pure_run,
    run_named_example,
    shrinking_target_run,
    summarize_records,
    write_results_csv,
)
from .gibbs import (
    BernoulliBackend,
    BernoulliPotential,
    ConformalPowerPotential,
    DensityBackend,
    SpectralBackend,
    eigen_solve,
)
from .ifs import builtin_system, system_from_json
from .measure import (
    CertificationError,
    ConstantRadius,
    PowerLogRadius,
    PowerRadius,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3

_EXPERIMENT_DEFAULTS = {
    "epsilon": 0.1,
    "flag_budget": 0.01,
    "depth_budgets": {"ball": 45},
}

ARTIFACTS = ("results.csv", "summary.json", "config_echo.json")


class ConfigError(ValueError):
    """Configuration is unreadable, malformed, or semantically invalid."""


def load_schema() -> dict:
    """The shipped JSON schema for experiment configurations."""
    text = resources.files(__package__).joinpath("config_schema.json").read_text()
    return json.loads(text)


def validate_config(config: dict) -> None:
    """Raise :class:`ConfigError` when the config violates the shipped schema."""
    try:
        jsonschema.validate(config, load_schema())
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ConfigError(f"schema violation at {path}: {exc.message}") from exc


def shipped_example_path(name: str):
    """Traversable for the shipped config of a named example."""
    return resources.files(__package__).joinpath("examples").joinpath(f"{name}.json")


def read_config(path: str) -> dict:
    """Read a JSON config from disk, falling back to the shipped examples.

    A path that does not exist on disk but whose basename matches a shipped
    example config (``7.1.json`` etc.) resolves to the shipped copy, so
    ``run examples/7.1.json out/`` works from any working directory.
    """
    p = Path(path)
    if p.is_file():
        text = p.read_text()
    else:
        shipped = resources.files(__package__).joinpath("examples").joinpath(p.name)
        if p.suffix == ".json" and shipped.is_file():
            text = shipped.read_text()
        else:
            raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(config).__name__}")
    return config


def build_system(spec: dict):
    if "builtin" in spec:
        return builtin_system(spec["builtin"])
    return system_from_json(spec)


def _base_potential(spec: dict):
    if spec["type"] == "conformal_power":
        return ConformalPowerPotential(float(spec["s"]))
    return BernoulliPotential(tuple(float(p) for p in spec["p"]))


def build_backend(system, spec: dict):
    kind = spec["type"]
    if kind == "bernoulli":
        return BernoulliBackend(system, tuple(float(p) for p in spec["p"]))
    if kind == "density":
        return DensityBackend(system, spec["name"])
    base = _base_potential(spec["base"])
    report = eigen_solve(system, base, depth=int(spec["depth"]))
    return SpectralBackend(system, report, base)


def build_psi(spec: dict):
    if spec["type"] == "constant":
        return ConstantRadius(float(spec["c"]))
    if spec["type"] == "power":
        return PowerRadius(float(spec["c"]), float(spec["beta"]))
    return PowerLogRadius(float(spec["alpha"]))


def resolve_config(config: dict, seed: Optional[int] = None,
                   threads: Optional[int] = None) -> dict:
    """Fully-resolved copy: overrides applied, defaults materialized.

    The result is itself a valid configuration and resolving it again is a
    no-op, so the echoed artifact re-runs to the same outputs.
    """
    out = copy.deepcopy(config)
    exp = out["experiment"]
    if seed is not None:
        exp["seed"] = int(seed)
    if threads is not None:
        out["threads"] = int(threads)
    out.setdefault("threads", 1)
    if exp["kind"] == "named_example":
        exp.setdefault("flag_budget", _EXPERIMENT_DEFAULTS["flag_budget"])
    else:
        for key, value in _EXPERIMENT_DEFAULTS.items():
            exp.setdefault(key, copy.deepcopy(value))
    return out


def _execute_resolved(resolved: dict):
    """Run the experiment; return ``(records, summary_dict, epsilon)``."""
    exp = resolved["experiment"]
    threads = resolved["threads"]
    if exp["kind"] == "named_example":
        # every example knob is a count or a depth
        overrides = {key: int(value) for key, value in exp.get("overrides", {}).items()}
        report = run_named_example(exp["name"], overrides, seed=exp["seed"],
                                   threads=threads)
        records = report.pop("records")
        report["summary"] = report.get("summary") or summarize_records(records)
        return records, report, 0.1

    system = build_system(resolved["system"])
    backend = build_backend(system, resolved["potential"])
    psi = build_psi(exp["psi"])
    epsilon = exp["epsilon"]
    common = {
        "checkpoints": exp.get("checkpoints"),
        "ball_budget": exp["depth_budgets"]["ball"],
        "threads": threads,
    }
    if exp["kind"] == "shrinking_target":
        records = shrinking_target_run(
            system, backend, exp["targets"], psi, exp["N"], exp["samples"],
            exp["seed"], **common)
    elif exp["kind"] == "recurrence_pure":
        records = recurrence_pure_run(
            system, backend, psi, exp["N"], exp["samples"], exp["seed"], **common)
    else:
        records = recurrence_modified_run(
            system, backend, psi, exp["N"], exp["samples"], exp["seed"], **common)
    summary = {
        "kind": exp["kind"],
        "seed": exp["seed"],
        "N": exp["N"],
        "samples": exp["samples"],
        "psi": exp["psi"],
        "epsilon": epsilon,
        "summary": summarize_records(records, epsilon),
    }
    return records, summary, epsilon


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_error(code: int, kind: str, message: str, out_dir: Optional[Path] = None) -> int:
    payload = {"error": {"exit_code": code, "kind": kind, "message": message}}
    print(json.dumps(payload), file=sys.stderr)
    if out_dir is not None:
        _write_json(out_dir / "error.json", payload)
    return code


def run(config_path: str, out_dir: str, seed: Optional[int] = None,
        threads: Optional[int] = None) -> int:
    """Validate, execute, and write artifacts; return the process exit code.

    Validation happens before anything is written, so configuration errors
    (exit 2) leave no partial outputs behind.
    """
    try:
        config = read_config(config_path)
        validate_config(config)
        resolved = resolve_config(config, seed=seed, threads=threads)
    except ConfigError as exc:
        return _emit_error(EXIT_CONFIG, "config", str(exc))

    out = Path(out_dir)
    try:
        records, summary, epsilon = _execute_resolved(resolved)
    except (ConfigError, ValueError) as exc:
        return _emit_error(EXIT_CONFIG, "config", str(exc))
    except CertificationError as exc:
        out.mkdir(parents=True, exist_ok=True)
        return _emit_error(EXIT_CERTIFICATION, "certification", str(exc), out)

    flagged = summary["summary"].get("flagged_fraction", 0.0)
    budget = resolved["experiment"].get(
        "flag_budget", _EXPERIMENT_DEFAULTS["flag_budget"])
    summary["flagged_fraction"] = flagged
    summary["flag_budget"] = budget
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(out / "results.csv", records, epsilon)
    _write_json(out / "summary.json", summary)
    _write_json(out / "config_echo.json", resolved)
    if flagged > budget:
        return _emit_error(
            EXIT_CERTIFICATION, "flag_budget",
            f"flagged fraction {flagged:.6g} exceeds budget {budget:.6g}", out)
    return EXIT_OK


def list_examples(stream=None) -> int:
    """Print the named analyses (lexicographic) with their shipped configs."""
    stream = sys.stdout if stream is None else stream
    for name in sorted(NAMED_EXAMPLES):
        shipped = shipped_example_path(name)
        marker = f"examples/{name}.json" if shipped.is_file() else "(no shipped config)"
        print(f"{name:<5} {NAMED_EXAMPLES[name]}  [{marker}]", file=stream)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="selfconformal",
        description="Seeded counting experiments on self-conformal measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config_pos", nargs="?", metavar="CONFIG", default=None,
                      help="config path (alternative to --config)")
    runp.add_argument("out_pos", nargs="?", metavar="OUT", default=None,
                      help="output directory (alternative to --out)")
    runp.add_argument("--config", metavar="PATH", help="experiment config JSON")
    runp.add_argument("--out", metavar="DIR", help="artifact output directory")
    runp.add_argument("--seed", type=int, default=None, metavar="N",
                      help="override the config's seed")
    runp.add_argument("--threads", type=int, default=None, metavar="N",
                      help="worker pool size (default: config value or 1)")

    sub.add_parser("list_examples", help="list the named analyses")

    args = parser.parse_args(argv)
    if args.command == "list_examples":
        return list_examples()
    config = args.config or args.config_pos
    out = args.out or args.out_pos
    if config is None or out is None:
        runp.error("a config path and an output directory are required")
    return run(config, out, seed=args.seed, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
