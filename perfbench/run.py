#!/usr/bin/env python3
"""Seeded benchmark for selfconformal: end-to-end CLI runs and a traced pass.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` drives ``selfconformal run`` as child processes, one config at a
time in a closed loop with one client, at ``--threads 1``. A pass runs each of
the workload's configs once; passes repeat until ``S`` seconds have gone by
(at least one), and the end-to-end metrics are medians over passes. Every
config that succeeds runs at least twice, and its ``results.csv`` /
``summary.json`` must be byte-identical across repeats. Before the passes,
the set-up (a fresh interpreter importing the package and reading, validating
and resolving the workload's configs) is timed several times.

``--trace 1`` runs the same configs in this process through
``selfconformal.cli.run``: once to warm up, the pool config once at
``--threads 2`` (its artifacts must match the threads=1 ones byte for byte),
once untraced and once with spans recorded around the package's public
functions (``spans.py``). It reports the per-layer metrics; the tracing
overhead is the traced pass's wall minus the untraced one's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment stamp, per-config walls, exit codes, artifact
SHA-256s, failed and flagged fractions). Configs live in ``configs/``; every
config's seed is replaced by ``--seed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import checks  # perfbench/ is on sys.path as the script's directory
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
OUT = ROOT / ".perfbench_out"

# Each workload: the configs of one pass (run at --threads 1, in this order)
# and the config the traced run also runs at --threads 2, for
# experiments.pool2_speedup.
WORKLOADS = {
    "cantor_recurrence": {"runs": ("7.1", "ABB", "B.2"), "pool": "7.1"},
    "interval_density": {"runs": ("7.2", "quartet_spectral_pure"), "pool": "7.2"},
    "cantor_oracle": {"runs": ("cantor_modified", "cantor_pure"), "pool": "cantor_modified"},
    "pruner_targets": {"runs": ("pair_shrink", "gasket_shrink"), "pool": "pair_shrink"},
}

SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # the whole benchmark run ends within 180 s
SETUP_SCRIPT = """
import sys
import selfconformal
from selfconformal import cli
for path in sys.argv[2:]:
    config = cli.read_config(path)
    cli.validate_config(config)
    cli.resolve_config(config, seed=int(sys.argv[1]))
"""
# name -> (unit, better); the end-to-end metrics of BENCHMARK.json
E2E_METRICS = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
ARTIFACTS = ("results.csv", "summary.json", "config_echo.json")
COMPARED = ("results.csv", "summary.json")


@dataclass
class Outcome:
    """One attempted run of one config."""

    config: str
    threads: int
    code: int
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    digests: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    summary: Optional[dict] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


def config_path(name: str) -> Path:
    return CONFIGS / f"{name}.json"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def wait_child(cmd: List[str], limit: float, stderr) -> tuple:
    """Run ``cmd``; return (exit code, wall seconds, CPU seconds, peak RSS in MB).

    Peak RSS comes from this child's own ``os.wait4`` rusage, which covers the
    child and the descendants it waited for (pool workers), unlike
    ``RUSAGE_CHILDREN``, which keeps the maximum over every earlier child.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=stderr)
    timer = threading.Timer(max(limit, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def inspect_outputs(out: Outcome, out_dir: Path) -> None:
    """Fill digests, summary and problems from a finished run's directory."""
    if out.code != 0:
        err = out_dir / "error.json"
        if err.is_file():
            out.error = json.loads(err.read_text())["error"]["message"]
        return
    missing = [a for a in ARTIFACTS if not (out_dir / a).is_file()]
    if missing:
        out.problems.append(f"missing artifacts {missing}")
        return
    out.digests = {a: sha256(out_dir / a) for a in COMPARED}
    out.summary = json.loads((out_dir / "summary.json").read_text())
    config = json.loads(config_path(out.config).read_text())
    out.problems.extend(checks.check_run(config, out.summary,
                                         (out_dir / "results.csv").read_text()))


def run_cli(name: str, seed: int, threads: int, deadline: float) -> Outcome:
    out_dir = OUT / f"{name}.t{threads}"
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, "-m", "selfconformal.cli", "run",
           "--config", str(config_path(name)), "--out", str(out_dir),
           "--seed", str(seed), "--threads", str(threads)]
    with open(OUT / f"{name}.t{threads}.stderr", "w") as err:
        code, wall, cpu, rss = wait_child(cmd, deadline - time.perf_counter(), err)
    out = Outcome(name, threads, code, wall, cpu, rss)
    inspect_outputs(out, out_dir)
    return out


def time_setup(names, seed: int) -> float:
    """Median wall of a fresh interpreter's import plus config resolution."""
    cmd = [sys.executable, "-c", SETUP_SCRIPT, str(seed)]
    cmd += [str(config_path(n)) for n in names]
    walls = []
    for i in range(SETUP_REPEATS + 1):  # the first one also writes bytecode
        code, wall, _, _ = wait_child(cmd, 60.0, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"set-up failed with exit code {code}")
        if i:
            walls.append(wall)
    return statistics.median(walls)


def identity_problems(outcomes: List[Outcome]) -> List[str]:
    """Differences between repeats of the same (config, seed)."""
    seen: Dict[str, Outcome] = {}
    problems = []
    for o in outcomes:
        if o.code != 0 or not o.digests:
            continue
        first = seen.setdefault(o.config, o)
        if o.digests != first.digests:
            problems.append(f"{o.config}: artifacts differ between threads="
                            f"{first.threads} and threads={o.threads} runs")
    return problems


def flagged_fraction(summaries) -> float:
    """Sum of flagged decisions over sum of hits, across the runs' summaries."""
    flagged = hits = 0
    for s in summaries:
        s = s.get("summary", s)
        if not s.get("samples"):
            continue
        n_hits = round(s["count"]["mean"] * s["samples"])
        hits += n_hits
        flagged += round(s["flagged_fraction"] * max(n_hits, 1))
    return flagged / max(hits, 1)


def tally(outcomes: List[Outcome], identity: List[str]) -> tuple:
    """(attempted, failed, problems): a run fails when it exits non-zero or
    its outputs fail a check; problems are the failed checks and byte
    differences, which make the result incorrect."""
    problems = [f"{o.config} (threads={o.threads}): {p}" for o in outcomes for p in o.problems]
    return len(outcomes), sum(not o.ok for o in outcomes), problems + identity


def environment(load_start) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            src.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "src_sha256": src.hexdigest(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    names = WORKLOADS[workload]["runs"]
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup_s = time_setup(names, seed)
    outcomes: List[Outcome] = []
    walls, cpus, rss = [], [], []
    loop_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        runs = [run_cli(n, seed, 1, deadline) for n in names]
        outcomes += runs
        walls.append(sum(o.wall for o in runs))
        cpus.append(sum(o.cpu for o in runs))
        rss.append(max(o.rss_mb for o in runs))
        now = time.perf_counter()
        if now - loop_start >= seconds or now + (now - pass_start) > deadline:
            break
    # every config that succeeded runs at least twice, to compare its bytes
    for name in names:
        done = [o for o in outcomes if o.config == name]
        if len(done) == 1 and done[0].code == 0:
            outcomes.append(run_cli(name, seed, 1, deadline))
    values = {"wall_s": statistics.median(walls), "setup_s": setup_s,
              "peak_rss_mb": statistics.median(rss)}
    metrics = {k: metric(values[k], unit) for k, (unit, _) in E2E_METRICS.items()}
    detail = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "pass_peak_rss_mb": rss,
        "flagged_frac": flagged_fraction(o.summary for o in outcomes if o.summary),
    }
    return outcomes, identity_problems(outcomes), metrics, detail


def run_inprocess(names, seed: int, tag: str, threads: int = 1) -> tuple:
    """Run configs through ``selfconformal.cli.run`` in this process; return
    outcomes and wall."""
    from selfconformal import cli
    outcomes = []
    t0 = time.perf_counter()
    for name in names:
        out_dir = OUT / f"{name}.{tag}"
        shutil.rmtree(out_dir, ignore_errors=True)
        t = time.perf_counter()
        code = cli.run(str(config_path(name)), str(out_dir), seed=seed, threads=threads)
        outcomes.append(Outcome(name, threads, code, time.perf_counter() - t))
    wall = time.perf_counter() - t0
    for o in outcomes:
        inspect_outputs(o, OUT / f"{o.config}.{tag}")
    return outcomes, wall


def traced(workload: str, seed: int) -> tuple:
    names = WORKLOADS[workload]["runs"]
    sys.path.insert(0, str(SRC))
    # the first pass warms lazy imports and the allocator for the timed ones
    warm, _ = run_inprocess(names, seed, "warm")
    pool_name = WORKLOADS[workload]["pool"]
    pool, pool_wall = run_inprocess([pool_name], seed, "pool", threads=2)
    plain, plain_wall = run_inprocess(names, seed, "plain")
    base_wall = next(o.wall for o in plain if o.config == pool_name)
    with spans.Tracer() as tracer:
        traced_runs, traced_wall = run_inprocess(names, seed, "traced")
    values = spans.layer_values(tracer.spans)
    values["experiments.flagged_frac"] = flagged_fraction(
        o.summary for o in traced_runs if o.summary)
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["experiments.pool2_speedup"] = base_wall / pool_wall
    metrics = {k: metric(values[k], unit) for k, (unit, _) in spans.LAYER_METRICS.items()}
    outcomes = warm + pool + plain + traced_runs
    detail = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "pool": {"config": pool_name, "threads1_s": base_wall, "threads2_s": pool_wall},
              "spans": len(tracer.spans)}
    return outcomes, identity_problems(outcomes), metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "selfconformal" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0 (the config schema's minimum)")
    load_start = os.getloadavg()
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    if args.trace:
        outcomes, identity, metrics, detail = traced(args.workload, args.seed)
    else:
        outcomes, identity, metrics, detail = end_to_end(args.workload, args.seed,
                                                         args.seconds)
    attempted, failed, problems = tally(outcomes, identity)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(load_start),
        "failed_frac": failed / attempted,
        "runs": [{"config": o.config, "threads": o.threads, "exit": o.code,
                  "wall_s": o.wall, "cpu_s": o.cpu, "peak_rss_mb": o.rss_mb,
                  "results_csv_sha256": o.digests.get("results.csv"),
                  **checks.recorded(o.summary),
                  "error": o.error, "problems": o.problems} for o in outcomes],
        "problems": problems,
    })
    (OUT / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
