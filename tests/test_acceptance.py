"""End-to-end acceptance checks at full stated scale.

Each test runs one headline criterion and prints a single
``criterion NN PASS|FAIL`` line with the measured values against the
required ones, then asserts. Heavy runs are shared through module-scope
fixtures; every run is seeded, so the printed numbers are reproducible.
"""

import math
import time

import numpy as np
import pytest

from selfconformal.dynamics import project_windows, sample_symbol_block
from selfconformal.experiments import (
    bc_residual,
    fit_exponential_rate,
    mixing_coeff_cylinders,
    product_cube_mixing,
    product_mixing_bound,
    product_system,
    records_to_rows,
    recurrence_pure_run,
    run_named_example,
    shrinking_target_run,
)
from selfconformal.gibbs import (
    BernoulliBackend,
    BernoulliPotential,
    DensityBackend,
    SpectralBackend,
    cylinder_measure,
    eigen_solve,
)
from selfconformal.ifs import builtin_system
from selfconformal.measure import (
    CertificationError,
    ConstantRadius,
    PowerLogRadius,
    annulus_measure,
    ball_measure,
    t_n_radius,
)
from selfconformal.symbolic import FiniteWord


def emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:<3} {'PASS' if ok else 'FAIL'} | {detail}")


@pytest.fixture(scope="module")
def cantor():
    return builtin_system("middle_third_cantor")


@pytest.fixture(scope="module")
def quartet():
    return builtin_system("moebius_interval_quartet")


@pytest.fixture(scope="module")
def report_71():
    t0 = time.perf_counter()
    rep = run_named_example("7.1")
    rep["wall"] = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="module")
def report_72():
    t0 = time.perf_counter()
    rep = run_named_example("7.2")
    rep["wall"] = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="module")
def report_abb():
    t0 = time.perf_counter()
    rep = run_named_example("ABB")
    rep["wall"] = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="module")
def report_b2():
    return run_named_example("B.2")


@pytest.fixture(scope="module")
def shrink_records(cantor):
    backend = BernoulliBackend(cantor, (0.5, 0.5))
    return shrinking_target_run(cantor, backend, 0.0, PowerLogRadius(1.0),
                                100_000, 200, 801)


def test_criterion_01_region_limits_at_scale(report_71, capsys):
    """Constant-radius recurrence: region-mean count ratios land on 4/5 and 6/5."""
    outer = report_71["regions"]["outer"]["mean_ratio"]
    middle = report_71["regions"]["middle"]["mean_ratio"]
    wall = report_71["wall"]
    ok = 0.75 <= outer <= 0.85 and 1.15 <= middle <= 1.25 and wall < 120.0
    emit(capsys, "01", ok,
         f"outer mean {outer:.6f} in [0.75, 0.85]; middle mean {middle:.6f} "
         f"in [1.15, 1.25]; elapsed {wall:.1f}s (target < 120s)")
    assert 0.75 <= outer <= 0.85
    assert 1.15 <= middle <= 1.25
    assert wall < 120.0


def test_criterion_02_exact_masses_and_mc_return(report_71, capsys):
    """Own-ball masses 1/2 and 3/4 by region; step-30 return rate within 4 sigma of 5/8."""
    lo_o, hi_o = report_71["ball_brackets"]["outer_at_0"]
    lo_m, hi_m = report_71["ball_brackets"]["middle_at_quarter"]
    z = report_71["mc_step30"]["z"]
    widths = max(hi_o - lo_o, hi_m - lo_m)
    ok = (abs(0.5 * (lo_o + hi_o) - 0.5) < 1e-9 and
          abs(0.5 * (lo_m + hi_m) - 0.75) < 1e-9 and
          widths < 1e-6 and abs(z) < 4.0)
    emit(capsys, "02", ok,
         f"masses {0.5 * (lo_o + hi_o):.9f} / {0.5 * (lo_m + hi_m):.9f} vs 0.5 / 0.75 "
         f"(bracket width {widths:.2e} < 1e-6); step-30 z {z:+.3f} (|z| < 4)")
    assert abs(0.5 * (lo_o + hi_o) - 0.5) < 1e-9
    assert abs(0.5 * (lo_m + hi_m) - 0.75) < 1e-9
    assert widths < 1e-6
    assert abs(z) < 4.0


def test_criterion_03_spectral_density_and_limit_band(report_72, capsys):
    """Transfer-operator fixed point matches 1/(ln2 (1+x)); recurrence limits land."""
    gap = report_72["eigen"]["eigenvalue_gap"]
    herr = report_72["eigen"]["density_sup_error"]
    frac = report_72["limit"]["fraction_within_band"]
    wall = report_72["wall"]
    ok = gap <= 1e-6 and herr < 1e-3 and frac >= 0.85 and wall < 300.0
    emit(capsys, "03", ok,
         f"eigenvalue gap {gap:.2e} (<= 1e-6); density sup err {herr:.2e} (< 1e-3); "
         f"limit-band fraction {frac:.2f} (>= 0.85); elapsed {wall:.1f}s (target < 300s)")
    assert gap <= 1e-6
    assert herr < 1e-3
    assert frac >= 0.85
    assert wall < 300.0


def test_criterion_04a_mean_measure_sum_diverges(report_abb, capsys):
    """Staircase radii: quadrature of the mean own-ball sum passes 10 and keeps growing."""
    final = report_abb["integral_sum"]["final"]
    inc = report_abb["integral_sum"]["increasing"]
    ok = final > 10.0 and inc
    emit(capsys, "04a", ok,
         f"mean-measure sum at N=1e6 is {final:.2f} (> 10); still increasing: {inc}")
    assert final > 10.0
    assert inc


def test_criterion_04b_final_counts_bounded(report_abb, capsys):
    """Staircase radii: counts are finite almost everywhere though the mean sum diverges.

    Inside the exponent window the paper's claim is pointwise: for
    mu-almost every start point the own-ball series converges, so the
    sample's recurrence count stays finite. It is not a uniform bound.
    Each count tracks its own-ball sum, so E[count_N] is about the mean
    own-ball sum, which diverges (04a); the largest count over the samples
    therefore has no bound as N grows. The tail comes from start points
    whose first symbols repeat branch 2 about k times: their own-ball
    masses stay near 0.8^k, such prefixes have probability 0.8^k, and the
    counts of those rare samples reach the thousands.

    Checked here: counts track their own-ball sums (pooled ratio, the
    residual band of criterion 08 at every checkpoint, log-correlation),
    and the typical count has stopped growing over the last decade while
    the mean sum has not. Below the window (alpha = 0.9/H) counts are
    unbounded almost everywhere and the frozen fraction drops to about 0.14.
    """
    split = 100_000
    records = report_abb["records"]
    finals = [r.final for r in records]
    counts = np.array([c.count for c in finals], dtype=float)
    balls = np.array([c.ball_sum for c in finals])
    at_split = np.array([next(cp.count for cp in r.checkpoints if cp.N == split)
                         for r in records])
    ratio = counts.sum() / balls.sum()
    worst_res = max(abs(v) for r in records for _, v in bc_residual(r, 0.1))
    log_corr = float(np.corrcoef(np.log(counts), np.log(balls))[0, 1])
    frozen = float(np.mean(counts == at_split))
    integral = report_abb["integral_sum"]
    mean_sum = dict(zip(integral["checkpoints"], integral["values"]))
    rise = integral["final"] - mean_sum[split]
    wall = report_abb["wall"]
    ok = (0.9 <= ratio <= 1.1 and worst_res <= 5.0 and log_corr >= 0.9
          and frozen >= 1.0 / 3.0 and rise > 10.0 and wall < 600.0)
    emit(capsys, "04b", ok,
         f"max final count {counts.max():.0f}, median {np.median(counts):.0f}, "
         f"q75 {np.quantile(counts, 0.75):.0f}, mean {counts.mean():.1f}; "
         f"no hit in (1e5, 1e6] for {frozen:.3f} of samples (>= 1/3) while the mean "
         f"sum rises {rise:.2f} (> 10); count/ball-sum pooled {ratio:.3f} in [0.9, 1.1]; "
         f"worst |residual| {worst_res:.2f} (<= 5); log-correlation {log_corr:.3f} "
         f"(>= 0.9); elapsed {wall:.1f}s (target < 600s)")
    assert wall < 600.0
    assert 0.9 <= ratio <= 1.1
    assert worst_res <= 5.0
    assert log_corr >= 0.9
    assert frozen >= 1.0 / 3.0, (
        f"only {frozen:.3f} of samples stopped counting after N=1e5")
    assert rise > 10.0


def test_criterion_04c_typical_tail_sums_vanish(report_abb, capsys):
    """Staircase radii: own-ball summands past N=1e5 are below 1e-3 pointwise."""
    probe = report_abb["tail_probe"]
    worst = max(probe["max_summand_past_split"])
    ok = probe["all_below_1e-3"] and len(probe["max_summand_past_split"]) == 20
    emit(capsys, "04c", ok,
         f"worst own-ball summand past N=1e5 over 20 points {worst:.2e} (< 1e-3)")
    assert len(probe["max_summand_past_split"]) == 20
    assert probe["all_below_1e-3"]
    assert worst < 1e-3


def test_criterion_05_cylinder_mixing_rates(report_72, cantor, capsys):
    """Gibbs-backend mixing coefficients decay exponentially; Bernoulli ones vanish."""
    coeffs = report_72["mixing"]["coefficients"]
    vals = [c for _, c in coeffs]
    gamma = report_72["mixing"]["gamma"]
    r2 = report_72["mixing"]["r_squared"]
    weighted = BernoulliBackend(cantor, (0.3, 0.7))
    bern = max(abs(mixing_coeff_cylinders(weighted, 6, n)) for n in range(1, 6))
    ok = (all(v > 0 for v in vals)
          and all(b < a for a, b in zip(vals, vals[1:]))
          and r2 > 0.95 and 0.0 < gamma < 1.0 and bern <= 1e-12)
    emit(capsys, "05", ok,
         f"coefficients positive, strictly decreasing over n=2..6; fit gamma "
         f"{gamma:.4f} in (0,1), r^2 {r2:.5f} (> 0.95); Bernoulli max {bern:.2e} (<= 1e-12)")
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert r2 > 0.95
    assert 0.0 < gamma < 1.0
    assert bern <= 1e-12


def test_criterion_06_annulus_power_law(cantor, capsys):
    """Annulus masses at shrinking width follow a power law with the set's exponent."""
    backend = BernoulliBackend(cantor, (0.5, 0.5))
    ks = np.arange(3, 13)
    mids = np.array([annulus_measure(backend, 0.7, 0.4, 3.0 ** -float(k)).midpoint
                     for k in ks])
    logr = -ks * math.log(3.0)
    slope, intercept = np.polyfit(logr, np.log(mids), 1)
    pred = slope * logr + intercept
    r2 = 1.0 - float(np.sum((np.log(mids) - pred) ** 2)
                     / np.sum((np.log(mids) - np.log(mids).mean()) ** 2))
    ok = 0.5 <= slope <= 0.75 and r2 > 0.9
    emit(capsys, "06", ok,
         f"log-log slope {slope:.4f} in [0.5, 0.75]; r^2 {r2:.6f} (> 0.9)")
    assert 0.5 <= slope <= 0.75
    assert r2 > 0.9


def test_criterion_07_equalized_radius_properties(cantor, capsys):
    """Measure-equalized radii: 1-Lipschitz in the center, certified at the quota."""
    backend = BernoulliBackend(cantor, (0.3, 0.7))
    tol = 1e-3
    pairs = 1000
    block = sample_symbol_block(backend, 321, range(2 * pairs), 40)
    xs = project_windows(block, cantor, 40)[:, 0]
    rng = np.random.default_rng(321)
    targets = rng.uniform(0.05, 0.95, pairs)
    lip_ok = lip_n = cert_ok = cert_n = 0
    for i in range(pairs):
        x, y, q = float(xs[2 * i]), float(xs[2 * i + 1]), float(targets[i])
        ts = []
        for point in (x, y):
            try:
                t = t_n_radius(backend, point, q, tol=tol)
            except CertificationError:
                continue
            ts.append((point, t))
            cert_n += 1
            br = ball_measure(backend, point, t)
            if br.lower >= q - tol and br.upper <= q + tol:
                cert_ok += 1
        if len(ts) == 2:
            lip_n += 1
            if abs(ts[0][1] - ts[1][1]) <= abs(x - y) + 2.0 * tol:
                lip_ok += 1
    ok = lip_ok == lip_n and cert_ok == cert_n and lip_n > 0
    emit(capsys, "07", ok,
         f"Lipschitz bound {lip_ok}/{lip_n} pairs (need 100%); quota certification "
         f"{cert_ok}/{cert_n} radii (need 100%); certified rate {cert_n / (2 * pairs):.3f}")
    assert lip_n > 0
    assert lip_ok == lip_n
    assert cert_ok == cert_n


def test_criterion_08_counting_residuals_bounded(shrink_records, capsys):
    """Divergent shrinking-target counts stay within the normalized residual corridor."""
    worst = []
    for rec in shrink_records:
        rs = bc_residual(rec, 0.1)
        worst.append(max(abs(v) for _, v in rs))
    worst = np.array(worst)
    frac = float(np.mean(worst <= 5.0))
    ok = frac >= 0.95
    emit(capsys, "08", ok,
         f"fraction of samples with max |residual| <= 5: {frac:.3f} (>= 0.95); "
         f"largest residual {worst.max():.3f}")
    assert frac >= 0.95


def test_criterion_09_product_cube_mixing(cantor, quartet, capsys):
    """Product cubes: exact independence for Bernoulli factors, fitted envelope otherwise."""
    u = BernoulliBackend(cantor, (0.5, 0.5))
    u2 = BernoulliBackend(cantor, (0.5, 0.5))
    _, bb = product_system(cantor, u, cantor, u2)
    bern = max(product_cube_mixing(bb, 2, n) for n in range(2, 7))
    density = DensityBackend(quartet, "reciprocal_log2")
    coeffs = [(n, mixing_coeff_cylinders(density, 8, n)) for n in range(2, 7)]
    fit = fit_exponential_rate(coeffs)
    _, pb = product_system(quartet, density, cantor, u)
    measured = []
    within = True
    for n in range(2, 7):
        got = product_cube_mixing(pb, 2, n)
        bound = product_mixing_bound([(fit.amplitude, fit.gamma), (0.0, 0.0)], n)
        measured.append((n, got, bound))
        within = within and got <= bound
    ok = bern == 0.0 and within
    emit(capsys, "09", ok,
         f"Bernoulli-factor max coefficient {bern} (exactly 0); mixed-factor "
         f"coefficients <= 4 C^2 gamma^n for n=2..6 with C {fit.amplitude:.4f}, "
         f"gamma {fit.gamma:.4f}: {within}")
    assert bern == 0.0
    for n, got, bound in measured:
        assert got <= bound, (n, got, bound)


def test_criterion_10_doubling_blowup_and_line_non_decay(report_b2, capsys):
    """Weighted gasket doubling ratios blow up; line-supported mass does not decay."""
    mono = report_b2["doubling_monotone"]
    final = report_b2["final_ratio_lower"]
    hyper = report_b2["hyperplane"]["min_ratio_lower"]
    ok = mono and final > 100.0 and hyper >= 0.4
    emit(capsys, "10", ok,
         f"doubling midpoints strictly increasing over n=2..8: {mono}; final ratio "
         f"lower bound {final:.1f} (> 100); hyperplane ratio min {hyper:.3f} (>= 0.4)")
    assert mono
    assert final > 100.0
    assert hyper >= 0.4


def test_criterion_11_infrastructure_guarantees(cantor, quartet, capsys):
    """Seeded determinism, spectral-vs-exact cylinder masses, measure identities."""
    weighted = BernoulliBackend(cantor, (0.3, 0.7))
    # byte-identical reruns (including a threaded one)
    runs = [recurrence_pure_run(cantor, weighted, ConstantRadius(0.6), 20_000, 20,
                                4242, threads=t) for t in (1, 1, 2)]
    rows = [records_to_rows(r) for r in runs]
    identical = rows[0] == rows[1] == rows[2]
    blocks_equal = np.array_equal(
        sample_symbol_block(weighted, 999, range(8), 64),
        sample_symbol_block(weighted, 999, range(8), 64))
    # spectral fixed point reproduces exact Bernoulli cylinder masses
    rep = eigen_solve(cantor, BernoulliPotential((0.3, 0.7)), depth=8)
    sb = SpectralBackend(cantor, rep, BernoulliPotential((0.3, 0.7)))
    spec_err = 0.0
    for L in range(1, 9):
        for idx in np.ndindex(*([2] * L)):
            w = tuple(i + 1 for i in idx)
            spec_err = max(spec_err, abs(cylinder_measure(sb, w)
                                         - cylinder_measure(weighted, w)))
    # additivity and shift invariance on every shipped backend family
    backends = [
        BernoulliBackend(cantor, (0.5, 0.5)),
        weighted,
        DensityBackend(quartet, "reciprocal_log2"),
        sb,
    ]
    ident_err = 0.0
    for b in backends:
        m = b.system.m
        words = [()] + [(i,) for i in range(1, m + 1)]
        words += [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        for w in words:
            mu = cylinder_measure(b, w)
            additive = sum(cylinder_measure(b, w + (j,)) for j in range(1, m + 1))
            shifted = sum(cylinder_measure(b, (i,) + w) for i in range(1, m + 1))
            ident_err = max(ident_err, abs(additive - mu), abs(shifted - mu))
    ok = (identical and blocks_equal and spec_err <= 1e-9 and ident_err <= 1e-10)
    emit(capsys, "11", ok,
         f"rerun rows identical (threads 1/1/2): {identical}; symbol streams "
         f"bit-identical: {blocks_equal}; spectral-vs-exact max err {spec_err:.2e} "
         f"(<= 1e-9); additivity/shift max err {ident_err:.2e} (<= 1e-10)")
    assert identical
    assert blocks_equal
    assert spec_err <= 1e-9
    assert ident_err <= 1e-10
