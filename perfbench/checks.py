"""Output checks for one finished run: CSV shape and headline quantities.

Named analyses are checked against the acceptance criteria that hold at the
benchmark's scale for every seed (01, 02, 03, 04a, 05 and 10, with the bounds
of ``tests/test_acceptance.py``). Two are recorded and not asserted:

* 04b (largest final count <= 50) fails at every scale; see the README.
* 04c (own-ball summands past N = 1e5 below 1e-3 at 20 points) fails for
  about one seed in seventeen: a point whose first 26 symbols are all 2 has
  summand 0.8**26 = 3.0e-3, and 20 points meet one with probability 0.058.

Raw counting runs are checked against their normalizer: the final count
tracks ``psi_sum`` (shrinking targets, measure-equalized recurrence) or the
own-ball sum (pure recurrence) within 20%, which holds by many standard
deviations at the configured sizes.
"""

from __future__ import annotations

import csv
import io
from typing import List, Optional

CSV_HEADER = ["sample_id", "N", "count", "psi_sum", "ball_sum", "residual"]
NORMALIZER_BAND = 0.2


def check_csv(config: dict, text: str) -> List[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return [f"results.csv header {rows[:1]} != {CSV_HEADER}"]
    body = rows[1:]
    problems = []
    if any(int(r[2]) < 0 for r in body):
        problems.append("negative count in results.csv")
    exp = config["experiment"]
    if exp["kind"] != "named_example":
        ids = {r[0] for r in body}
        if len(ids) != exp["samples"]:
            problems.append(f"results.csv has {len(ids)} samples, config {exp['samples']}")
        if body and int(body[-1][1]) != exp["N"]:
            problems.append(f"last checkpoint {body[-1][1]} != N {exp['N']}")
    return problems


def _require(problems: List[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def check_71(s: dict) -> List[str]:
    p: List[str] = []
    outer = s["regions"]["outer"]["mean_ratio"]
    middle = s["regions"]["middle"]["mean_ratio"]
    _require(p, 0.75 <= outer <= 0.85, f"01: outer mean ratio {outer} not in [0.75, 0.85]")
    _require(p, 1.15 <= middle <= 1.25, f"01: middle mean ratio {middle} not in [1.15, 1.25]")
    lo_o, hi_o = s["ball_brackets"]["outer_at_0"]
    lo_m, hi_m = s["ball_brackets"]["middle_at_quarter"]
    _require(p, abs(0.5 * (lo_o + hi_o) - 0.5) < 1e-9, "02: outer ball mass != 1/2")
    _require(p, abs(0.5 * (lo_m + hi_m) - 0.75) < 1e-9, "02: middle ball mass != 3/4")
    _require(p, max(hi_o - lo_o, hi_m - lo_m) < 1e-6, "02: ball bracket wider than 1e-6")
    z = s["mc_step30"]["z"]
    _require(p, abs(z) < 4.0, f"02: step-30 return z {z} not within 4 sigma")
    return p


def check_72(s: dict) -> List[str]:
    p: List[str] = []
    eig = s["eigen"]
    _require(p, eig["eigenvalue_gap"] <= 1e-6, f"03: eigenvalue gap {eig['eigenvalue_gap']}")
    _require(p, eig["density_sup_error"] < 1e-3,
             f"03: density sup error {eig['density_sup_error']}")
    frac = s["limit"]["fraction_within_band"]
    _require(p, frac >= 0.85, f"03: limit-band fraction {frac} < 0.85")
    mix = s["mixing"]
    vals = [c for _, c in mix["coefficients"]]
    _require(p, all(v > 0 for v in vals) and all(b < a for a, b in zip(vals, vals[1:])),
             "05: mixing coefficients not positive and strictly decreasing")
    _require(p, mix["r_squared"] > 0.95, f"05: rate fit r^2 {mix['r_squared']}")
    _require(p, 0.0 < mix["gamma"] < 1.0, f"05: gamma {mix['gamma']} not in (0, 1)")
    return p


def check_abb(s: dict) -> List[str]:
    p: List[str] = []
    integral = s["integral_sum"]
    _require(p, integral["final"] > 10.0, f"04a: mean-measure sum {integral['final']} <= 10")
    _require(p, integral["increasing"], "04a: mean-measure sum not increasing")
    return p


def check_b2(s: dict) -> List[str]:
    p: List[str] = []
    _require(p, s["doubling_monotone"], "10: doubling midpoints not increasing")
    _require(p, s["final_ratio_lower"] > 100.0,
             f"10: final doubling ratio {s['final_ratio_lower']} <= 100")
    _require(p, s["hyperplane"]["min_ratio_lower"] >= 0.4,
             f"10: hyperplane ratio {s['hyperplane']['min_ratio_lower']} < 0.4")
    return p


def check_counting(kind: str, s: dict) -> List[str]:
    s = s["summary"]
    if kind == "recurrence_pure":
        ratio = s["count_over_ball_sum"]["median"]
        what = "median count / own-ball sum"
    else:
        ratio = s["count"]["mean"] / s["psi_sum"]
        what = "mean count / psi_sum"
    if abs(ratio - 1.0) > NORMALIZER_BAND:
        return [f"{what} {ratio} outside 1 +- {NORMALIZER_BAND}"]
    return []


NAMED_CHECKS = {"7.1": check_71, "7.2": check_72, "ABB": check_abb, "B.2": check_b2}


def check_run(config: dict, summary: dict, csv_text: str) -> List[str]:
    """Problems found in a successful run's artifacts (empty when correct)."""
    exp = config["experiment"]
    problems = check_csv(config, csv_text)
    if exp["kind"] == "named_example":
        problems += NAMED_CHECKS[exp["name"]](summary)
    else:
        problems += check_counting(exp["kind"], summary)
    return problems


def recorded(summary: Optional[dict]) -> dict:
    """Quantities recorded as they come: 04b's largest count, 04c's worst summand."""
    if not summary:
        return {}
    out = {}
    s = summary.get("summary", summary)
    if s.get("samples"):
        out["max_final_count"] = int(s["count"]["max"])
    if "tail_probe" in summary:
        out["tail_summand_max"] = max(summary["tail_probe"]["max_summand_past_split"])
    return out
