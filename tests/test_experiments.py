"""Tests for the counting experiments: engines, fits, products, and reports.

Oracles are independent of the implementation wherever the quantity allows
one: ternary-digit projections and closed-form measures on the Cantor set,
direct CDF sums for the interval quartet, hand enumeration for product
joints, exact-fraction re-evaluation for the gasket brackets, and
high-precision mpmath for the staircase exponent window. Monte-Carlo
consistency checks run at full stated scale with fixed seeds.
"""

import concurrent.futures
import csv
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfconformal import dynamics, experiments, gibbs, measure
from selfconformal.dynamics import correlation, project_windows, sample_symbol_block
from selfconformal.experiments import (
    Checkpoint,
    CountingRecord,
    NAMED_EXAMPLES,
    ProductBackend,
    RateFit,
    bc_residual,
    cylinder_event_crosscheck,
    default_checkpoints,
    fit_exponential_rate,
    gasket_tangency_doubling_bracket,
    pairwise_independence_check,
    product_cube_mixing,
    product_mixing_bound,
    product_system,
    records_to_rows,
    recurrence_modified_run,
    recurrence_pure_run,
    run_named_example,
    shrinking_target_run,
    summarize_records,
    write_results_csv,
)
from selfconformal.experiments import (
    _CheckpointCounts,
    _staircase_alpha_window,
)
from selfconformal.gibbs import (
    BernoulliBackend,
    BernoulliPotential,
    ConformalPowerPotential,
    DensityBackend,
    SpectralBackend,
    cylinder_measure,
    eigen_solve,
    mixing_coeff_cylinders,
)
from selfconformal.ifs import builtin_system
from selfconformal.measure import (
    BallRegion,
    CertificationError,
    ConstantRadius,
    PowerLogRadius,
    PowerRadius,
    _cantor_levels,
    _quota_decider,
    _radial_mass,
    _radial_table,
    ball_measure,
    region_measure,
)
from selfconformal.symbolic import FiniteWord, PointRd
from test_measure import table_mass

LN2 = math.log(2.0)
TAU = math.log(2.0) / math.log(3.0)


@pytest.fixture(scope="module")
def cantor():
    return builtin_system("middle_third_cantor")


@pytest.fixture(scope="module")
def uniform(cantor):
    return BernoulliBackend(cantor, (0.5, 0.5))


@pytest.fixture(scope="module")
def weighted(cantor):
    return BernoulliBackend(cantor, (0.3, 0.7))


@pytest.fixture(scope="module")
def quartet():
    return builtin_system("moebius_interval_quartet")


@pytest.fixture(scope="module")
def density(quartet):
    return DensityBackend(quartet, "reciprocal_log2")


def per_step_hits(records):
    """Boolean (samples, N) hit matrix from per-step checkpoint counts."""
    counts = np.array([[cp.count for cp in r.checkpoints] for r in records])
    return np.diff(np.c_[np.zeros((len(records), 1), dtype=int), counts], axis=1).astype(bool)


def _three_pass_quota_hits(backend, prec, x0s, dist, radii):
    """Reference measure-equalized decision: every step takes the oracle at
    ``d - slack``, ``d + slack`` and ``d``, with no screen."""
    S, N = dist.shape
    quota = np.broadcast_to(radii, dist.shape)
    slack = 2.0 * prec
    x = np.repeat(np.asarray(x0s, dtype=float), N)
    d = dist.reshape(-1)
    q = quota.reshape(-1)
    in_lo, in_hi = _radial_mass(backend, x, np.maximum(d - slack, 0.0), 45)
    out_lo, out_hi = _radial_mass(backend, x, d + slack, 45)
    definite_hit = out_hi < q
    definite_miss = in_lo >= q
    flag = ~(definite_hit | definite_miss)
    mid_lo, mid_hi = _radial_mass(backend, x, d, 45)
    hit = np.where(flag, 0.5 * (mid_lo + mid_hi) < q, definite_hit)
    return hit.reshape(S, N), flag.reshape(S, N)


def cantor_digits_position(symbols):
    """Independent projection oracle: ternary digits 0/2 summed as 3^-j."""
    symbols = np.asarray(symbols, dtype=np.int64)
    digits = 2.0 * (symbols - 1)
    scales = 3.0 ** -np.arange(1, symbols.shape[-1] + 1)
    return digits @ scales


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------


class TestRateFit:
    def test_exact_geometric_series(self):
        fit = fit_exponential_rate([(n, 0.5**n) for n in range(1, 9)])
        assert abs(fit.gamma - 0.5) < 1e-12
        assert fit.r_squared == 1.0
        assert fit.mixing
        assert fit.window == (1, 8)

    def test_noisy_rate_recovered_within_two_percent(self):
        rng = np.random.default_rng(5)
        gamma, c = 0.37, 2.1
        series = [(n, c * gamma**n * (1.0 + 0.01 * rng.uniform(-1, 1)))
                  for n in range(1, 11)]
        fit = fit_exponential_rate(series)
        assert abs(fit.gamma - gamma) < 0.02
        assert fit.r_squared > 0.99

    def test_constant_series_flagged_non_mixing(self):
        fit = fit_exponential_rate([(n, 0.125) for n in range(1, 6)])
        assert fit.slope == 0.0
        assert fit.gamma == 1.0
        assert fit.r_squared == 1.0
        assert not fit.mixing

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential_rate([(1, 0.5), (2, 0.25), (3, 0.125)])

    def test_non_positive_values_rejected(self):
        for bad in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="strictly positive finite"):
                fit_exponential_rate([(1, 0.5), (2, bad), (3, 0.1), (4, 0.05)])

    def test_rate_fit_validation(self):
        with pytest.raises(ValueError):
            RateFit(-0.1, 0.0, 1.5, (1, 5))
        with pytest.raises(ValueError):
            RateFit(-0.1, 0.0, 0.5, (5, 1))

    @given(st.floats(0.05, 0.95), st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_exact_series_recovery_property(self, gamma, amplitude):
        series = [(n, amplitude * gamma**n) for n in range(1, 8)]
        fit = fit_exponential_rate(series)
        assert abs(fit.gamma - gamma) < 1e-6
        assert abs(fit.amplitude - amplitude) < 1e-6 * amplitude + 1e-9


class TestDefaultCheckpoints:
    def test_geometric_grid(self):
        assert default_checkpoints(100_000) == [1000, 3000, 10_000, 30_000, 100_000]
        assert default_checkpoints(1_000_000) == [
            1000, 3000, 10_000, 30_000, 100_000, 300_000, 1_000_000]

    def test_small_and_edge_values(self):
        assert default_checkpoints(500) == [500]
        assert default_checkpoints(3000) == [1000, 3000]
        assert default_checkpoints(1234) == [1000, 1234]
        assert default_checkpoints(0) == [0]
        with pytest.raises(ValueError):
            default_checkpoints(-1)

    @given(st.integers(1, 10_000_000))
    @settings(max_examples=60, deadline=None)
    def test_grid_invariants(self, N):
        cps = default_checkpoints(N)
        assert cps[-1] == N
        assert cps == sorted(set(cps))
        assert all(1 <= c <= N for c in cps)


def _windowed_counts(marks, cp_idx, widths):
    """Feed ``marks`` to a checkpoint reducer in windows of the given widths,
    cycling through them, and return its totals."""
    counts = _CheckpointCounts(marks.shape[0], cp_idx)
    start, i = 0, 0
    while start < marks.shape[1]:
        stop = min(start + widths[i % len(widths)], marks.shape[1])
        counts.add(marks[:, start:stop])
        start, i = stop, i + 1
    return counts.totals()


class TestCheckpointSums:
    """The window reducer: segment counts fed window by window."""

    @pytest.mark.parametrize(
        "N, cps",
        [(1, [1]), (2, [2]), (40, [40]), (40, [1, 40]), (40, list(range(1, 41))),
         (40, [1, 2, 3, 17, 39, 40]), (1000, default_checkpoints(1000))],
    )
    def test_matches_full_cumsum(self, N, cps):
        rng = np.random.default_rng(N + len(cps))
        cp_idx = np.asarray(cps, dtype=np.int64) - 1
        for density in (0.0, 0.3, 1.0):
            marks = rng.random((5, N)) < density
            want = np.cumsum(marks, axis=1, dtype=np.int64)[:, cp_idx]
            # one window, single steps, and widths that cut segments anywhere
            for widths in ([N], [1], [2, 5], [3, 16, 1], [17]):
                got = _windowed_counts(marks, cp_idx, widths)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)

    def test_segment_past_a_narrow_accumulator(self):
        # 70 001 marks in one segment overflow any 16-bit count
        marks = np.ones((2, 70_001), dtype=bool)
        marks[1, ::7] = False
        for widths in ([70_001], [40_000], [1, 69_999, 1]):
            got = _windowed_counts(marks, np.array([0, 70_000]), widths)
            np.testing.assert_array_equal(got, [[1, 70_001], [0, 60_000]])

    def test_peak_memory_is_about_the_output(self):
        # an ABB-sized window: an int64 copy of the marks would take 80 MB
        N = 200_000
        marks = np.random.default_rng(0).random((50, N)) < 0.3
        cp_idx = np.asarray(default_checkpoints(N), dtype=np.int64) - 1
        out_bytes = marks.shape[0] * cp_idx.size * 8
        tracemalloc.start()
        try:
            counts = _CheckpointCounts(marks.shape[0], cp_idx)
            counts.add(marks)
            counts.totals()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the segment counts, their running sums and one reduction buffer
        assert peak <= 2 * out_bytes + 2 ** 17


class TestRecordTypes:
    def test_checkpoint_monotonicity_enforced(self):
        good = [Checkpoint(10, 2, 1.0), Checkpoint(20, 5, 2.0)]
        rec = CountingRecord(0, good, PointRd((0.0,)))
        assert rec.final.count == 5
        with pytest.raises(ValueError):
            CountingRecord(0, [Checkpoint(10, 5, 1.0), Checkpoint(20, 4, 2.0)], PointRd((0.0,)))
        with pytest.raises(ValueError):
            CountingRecord(0, [Checkpoint(10, 11, 1.0)], PointRd((0.0,)))
        with pytest.raises(ValueError):
            CountingRecord(0, [Checkpoint(10, 1, 1.0), Checkpoint(10, 2, 2.0)], PointRd((0.0,)))

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_cumulative_counts_always_valid(self, increments):
        ns, cps, total = [], [], 0
        for i, inc in enumerate(increments):
            n = 10 * (i + 1)
            total = min(total + inc, n)
            cps.append(Checkpoint(n, total, float(n)))
        rec = CountingRecord(3, cps, PointRd((0.5,)))
        counts = [cp.count for cp in rec.checkpoints]
        assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# orbit projection and radial-mass oracles
# ---------------------------------------------------------------------------


class TestOrbitRows:
    def test_matches_single_stream_projection_interval(self, quartet, density):
        block = sample_symbol_block(density, 11, range(4), 40)
        batched = project_windows(block, quartet, 12)
        for i in range(4):
            single = project_windows(block[i], quartet, 12)
            assert np.allclose(batched[i], single, atol=0.0)

    def test_matches_single_stream_projection_plane(self):
        tri = builtin_system("sierpinski_triangle")
        b = BernoulliBackend(tri, (0.2, 0.5, 0.3))
        block = sample_symbol_block(b, 12, range(3), 30)
        batched = project_windows(block, tri, 10)
        for i in range(3):
            single = project_windows(block[i], tri, 10)
            assert np.allclose(batched[i], single, atol=0.0)

    def test_matches_ternary_digit_formula(self, cantor, weighted):
        block = sample_symbol_block(weighted, 13, range(5), 60)
        depth = 40
        batched = project_windows(block, cantor, depth)
        for i in range(5):
            for j in (0, 7, 20):
                oracle = cantor_digits_position(block[i, j : j + depth])
                assert abs(batched[i, j] - oracle) < 3.0 ** -depth + 1e-15


class TestRadialMassOracle:
    def test_cantor_masses_inside_pruner_brackets(self, cantor, weighted):
        rng = np.random.default_rng(2)
        xs = rng.uniform(-0.2, 1.2, 25)
        rs = 10.0 ** rng.uniform(-6, 0, 25)
        lo, hi = _radial_mass(weighted, xs, rs, 40)
        for x, r, a, b in zip(xs, rs, lo, hi):
            br = region_measure(weighted, BallRegion(PointRd((float(x),)), float(r)), 40)
            assert a <= br.upper + 1e-12
            assert b >= br.lower - 1e-12
            assert b - a < 1e-12

    def test_density_masses_match_direct_cdf(self, density):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 1, 30)
        rs = 10.0 ** rng.uniform(-5, -0.3, 30)
        lo, hi = _radial_mass(density, xs, rs, 40)
        direct = (np.log1p(np.clip(xs + rs, 0, 1)) - np.log1p(np.clip(xs - rs, 0, 1))) / LN2
        assert np.allclose(lo, direct, atol=1e-14)
        assert np.allclose(hi, direct, atol=1e-14)

    def test_spectral_masses_are_pruner_brackets(self, cantor):
        rep = eigen_solve(cantor, BernoulliPotential((0.3, 0.7)), depth=6)
        sb = SpectralBackend(cantor, rep, BernoulliPotential((0.3, 0.7)))
        xs, rs = np.array([0.1, 0.5, 0.9]), np.array([0.05, 0.2, 0.01])
        lo, hi = _radial_mass(sb, xs, rs, 6)
        for x, r, a, b in zip(xs, rs, lo, hi):
            br = region_measure(sb, BallRegion(PointRd((x,)), r), 6)
            assert (a, b) == (br.lower, br.upper)


class TestOracleServesRun:
    """A run checks, before it samples, that the radial-mass oracle can serve it."""

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before refusing the run")

        monkeypatch.setattr(experiments, "sample_symbol_block", refuse)

    @pytest.fixture(scope="class")
    def spectral(self, cantor):
        rep = eigen_solve(cantor, BernoulliPotential((0.3, 0.7)), depth=6)
        return SpectralBackend(cantor, rep, BernoulliPotential((0.3, 0.7)))

    @pytest.mark.parametrize("threads", [1, 4])
    def test_pruner_cap_counts_the_whole_run(self, no_sampling, threads):
        pair = builtin_system("moebius_interval_pair")
        backend = BernoulliBackend(pair, (0.5, 0.5))
        with pytest.raises(CertificationError, match=r"24000 ball evaluations.* 20000"):
            recurrence_pure_run(pair, backend, PowerRadius(0.5, 0.5), 600, 40, 1,
                                ball_budget=8, threads=threads)

    def test_spectral_ball_budget_beyond_table_depth(self, cantor, spectral, no_sampling):
        with pytest.raises(ValueError, match=r"45 .* depth 6.* depth_budgets\.ball"):
            recurrence_pure_run(cantor, spectral, ConstantRadius(0.05), 100, 2, 1,
                                ball_budget=45)

    def test_spectral_measure_equalized_run(self, cantor, spectral, no_sampling):
        with pytest.raises(CertificationError, match="closed-form radial mass"):
            recurrence_modified_run(cantor, spectral, PowerRadius(1.0, 0.5), 100, 2, 1)

    @pytest.mark.parametrize("budget, message", [
        (0, "depth_budget must be >= 1"), (-3, "depth_budget must be >= 1"),
        (True, "not an integer"), (45.0, "not an integer")])
    @pytest.mark.parametrize("kind, psi", [
        ("pure", PowerRadius(1.0, 0.5)), ("pure", PowerLogRadius(1.0)),
        ("modified", PowerRadius(1.0, 0.5))], ids=["pure", "symbolic", "modified"])
    def test_bad_ball_budget_refused_before_sampling(self, cantor, weighted, no_sampling,
                                                     kind, psi, budget, message):
        # a symbolic pure run reads no ball, yet its budget is checked too
        run = recurrence_pure_run if kind == "pure" else recurrence_modified_run
        with pytest.raises(ValueError, match=message):
            run(cantor, weighted, psi, 2000, 20, 1, ball_budget=budget)


class TestRunKeysRefused:
    """Ids the Philox key cannot hold, or that repeat, are refused before any
    set-up work."""

    @pytest.fixture
    def no_setup(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("set up before refusing the run")

        monkeypatch.setattr(experiments, "_shared_psi_sums", refuse)

    @pytest.mark.parametrize("kind", ["shrink", "pure", "modified"])
    @pytest.mark.parametrize("seed, ids, bad", [
        (1, [-1, 0], "sample_ids"), (1, [2 ** 64], "sample_ids"), (1, [1.5], "sample_ids"),
        (1, [3, 3], "sample_ids"), (-1, None, "seed"), (2 ** 64, None, "seed"),
    ])
    def test_refused_before_setup(self, no_setup, kind, seed, ids, bad):
        pair = builtin_system("moebius_interval_pair")
        backend = BernoulliBackend(pair, (0.5, 0.5))
        args = (pair, backend, PowerRadius(0.5, 0.5), 500, 2, seed)
        kw = {"sample_ids": ids}
        with pytest.raises(ValueError, match=bad):
            if kind == "shrink":
                shrinking_target_run(pair, backend, 0.3, *args[2:], **kw)
            elif kind == "pure":
                recurrence_pure_run(*args, **kw)
            else:
                recurrence_modified_run(*args, **kw)

    @pytest.mark.parametrize("psi", [ConstantRadius(math.nan), PowerRadius(math.nan, 0.5),
                                     PowerRadius(0.5, math.nan)])
    @pytest.mark.parametrize("kind", ["pure", "modified"])
    def test_nan_radii_refused_before_setup(self, no_setup, cantor, weighted, kind, psi):
        run = recurrence_pure_run if kind == "pure" else recurrence_modified_run
        with pytest.raises(ValueError, match="radius function must be strictly positive"):
            run(cantor, weighted, psi, 50, 2, 1)

    @pytest.mark.parametrize("target", [
        math.nan, math.inf, -math.inf, np.where(np.arange(200) == 77, math.nan, 0.25),
        (0.5, math.nan),
    ], ids=["nan", "inf", "-inf", "per_step_nan", "planar_nan"])
    def test_non_finite_targets_refused_before_setup(self, no_setup, cantor, weighted, target):
        # a NaN center makes every target ball the vacuous [0, 1] (psi_sum
        # 100 at N = 200), an infinite one makes it empty (psi_sum 0)
        system, backend = cantor, weighted
        if np.size(target) == 2:
            system = builtin_system("sierpinski_triangle")
            backend = BernoulliBackend(system, (0.2, 0.3, 0.5))
        with pytest.raises(ValueError, match="targets must be finite"):
            shrinking_target_run(system, backend, target, PowerRadius(0.5, 0.5), 200, 2, 1)

    @pytest.mark.parametrize("kind", ["shrink", "pure", "modified"])
    def test_infinite_radii_refused_before_setup(self, no_setup, cantor, uniform, kind):
        # psi(n) = n^1000 overflows to infinity from n = 3 on
        psi = PowerRadius(1.0, -1000.0)
        with pytest.raises(ValueError, match="strictly positive and finite"):
            if kind == "shrink":
                shrinking_target_run(cantor, uniform, 0.0, psi, 50, 2, 1)
            elif kind == "pure":
                recurrence_pure_run(cantor, uniform, psi, 50, 2, 1)
            else:
                recurrence_modified_run(cantor, uniform, psi, 50, 2, 1)

    @pytest.mark.parametrize("kind", ["shrink", "pure", "modified"])
    @pytest.mark.parametrize("N, samples, bad", [
        (50.7, 2, "N"), (True, 2, "N"), ("50", 2, "N"), (50, 2.5, "samples"),
        (50, True, "samples"), (50, math.nan, "samples")])
    def test_counts_must_be_integers(self, no_setup, cantor, uniform, kind, N, samples, bad):
        with pytest.raises(ValueError, match=f"^{bad}: .* is not an integer"):
            if kind == "shrink":
                shrinking_target_run(cantor, uniform, 0.0, PowerRadius(0.5, 0.5), N, samples, 1)
            elif kind == "pure":
                recurrence_pure_run(cantor, uniform, PowerRadius(0.5, 0.5), N, samples, 1)
            else:
                recurrence_modified_run(cantor, uniform, PowerRadius(0.5, 0.5), N, samples, 1)

    @pytest.mark.parametrize("seed", [5.0, np.float64(5.0)])
    def test_integral_float_seed_runs(self, cantor, weighted, seed):
        # a named example's seed follows the same count rule
        psi = PowerRadius(0.5, 0.5)
        assert (recurrence_pure_run(cantor, weighted, psi, 50, 3, seed)
                == recurrence_pure_run(cantor, weighted, psi, 50, 3, 5))

    def test_integral_float_counts_run(self, cantor, weighted):
        # a config's integer admits 50.0; the run is the integer one's
        psi = PowerRadius(0.5, 0.5)
        floats = recurrence_pure_run(cantor, weighted, psi, 50.0, np.float64(3.0), 1)
        assert floats == recurrence_pure_run(cantor, weighted, psi, 50, 3, 1)
        assert floats[0].checkpoints[-1].N == 50

    def test_largest_ids_run(self, cantor, weighted):
        top = 2 ** 64 - 1
        recs = recurrence_pure_run(cantor, weighted, ConstantRadius(0.1), 50, 0, top,
                                   sample_ids=[top, 0])
        assert [r.sample_id for r in recs] == [0, top]


# ---------------------------------------------------------------------------
# shrinking-target runs
# ---------------------------------------------------------------------------


class TestShrinkingTarget:
    def test_ball_covering_attractor_counts_every_step(self, cantor, uniform):
        recs = shrinking_target_run(cantor, uniform, 0.0, ConstantRadius(2.0), 500, 3, 1)
        for r in recs:
            assert r.final.count == 500
            assert r.final.psi_sum == pytest.approx(500.0, abs=1e-9)
            assert r.final.flagged == 0

    def test_rapidly_shrinking_radii_give_bounded_counts(self, cantor, uniform):
        recs = shrinking_target_run(
            cantor, uniform, 0.0, PowerRadius(1.0, 10.0), 10_000, 6, 17)
        for r in recs:
            counts = {cp.N: cp.count for cp in r.checkpoints}
            assert counts[10_000] <= 5
            assert counts[10_000] == counts[1000]  # no hits beyond tiny radii

    def test_exact_normalizer_for_cantor_scale_radii(self, cantor, uniform):
        # mu(B(0, 3^-k)) is exactly the leftmost depth-k cylinder mass 2^-k
        recs = shrinking_target_run(cantor, uniform, 0.0, PowerLogRadius(1.0), 5000, 1, 3)
        ns = np.arange(1, 5001)
        exact = np.cumsum(2.0 ** -np.floor(np.log(ns)))
        for cp in recs[0].checkpoints:
            assert cp.psi_sum == pytest.approx(exact[cp.N - 1], abs=1e-9)

    def test_counts_match_digit_formula_recomputation(self, cantor, uniform):
        N, S = 300, 4
        psi = PowerLogRadius(1.0)
        recs = shrinking_target_run(cantor, uniform, 0.0, psi, N, S, 23,
                                    checkpoints=list(range(1, N + 1)))
        hits = per_step_hits(recs)
        radii = psi.values(np.arange(1, N + 1))
        depth = 45
        block = sample_symbol_block(uniform, 23, range(S), N + depth)
        for i in range(S):
            for n in range(1, N + 1):
                pos = cantor_digits_position(block[i, n : n + depth])
                want = pos <= radii[n - 1]
                if abs(pos - radii[n - 1]) > 1e-4:  # outside band + work precision
                    assert bool(hits[i, n - 1]) == bool(want)

    def test_moving_targets_accepted_and_counted(self, cantor, uniform):
        N = 400
        targets = np.tile([0.0, 1.0], N // 2).reshape(N, 1)
        recs = shrinking_target_run(cantor, uniform, targets, ConstantRadius(2.0), N, 2, 5)
        assert all(r.final.count == N for r in recs)
        with pytest.raises(ValueError):
            shrinking_target_run(cantor, uniform, np.zeros((N + 1, 1)),
                                 ConstantRadius(0.5), N, 1, 5)

    def test_sample_mean_ratio_near_one_at_scale(self, cantor, uniform):
        # 100 samples at N = 1e5: individual ratios fluctuate by ~0.13, the
        # sample mean concentrates to ~0.014, so +-0.1 is a ~7 sigma band
        recs = shrinking_target_run(cantor, uniform, 0.0, PowerLogRadius(1.0),
                                    100_000, 100, 2024)
        ratios = np.array([r.final.count / r.final.psi_sum for r in recs])
        assert abs(ratios.mean() - 1.0) < 0.1
        # radii sit exactly at cylinder scales, so the hit boundary is a
        # Cantor point: the structurally ambiguous share of hits (distance
        # within 0.1% of the radius) is between 2^-7 and 2^-6
        flagged = sum(r.final.flagged for r in recs)
        hits = sum(r.final.count for r in recs)
        assert flagged < 0.02 * max(hits, 1)

    def test_input_validation(self, cantor, uniform):
        with pytest.raises(ValueError):
            shrinking_target_run(cantor, uniform, None, ConstantRadius(0.5), 100, 1, 1)
        with pytest.raises(ValueError):
            shrinking_target_run(cantor, uniform, 0.0, ConstantRadius(0.5), 100, 1, 1,
                                 checkpoints=[0, 50])
        assert shrinking_target_run(cantor, uniform, 0.0, ConstantRadius(0.5), 100, 0, 1) == []


# ---------------------------------------------------------------------------
# pure recurrence runs
# ---------------------------------------------------------------------------


class TestRecurrencePure:
    def test_spectral_run_reads_only_the_backend_table(self, quartet, monkeypatch):
        # the backend reads the report's table once; the run neither solves
        # nor interpolates again
        pot = ConformalPowerPotential(1.0)
        backend = SpectralBackend(quartet, eigen_solve(quartet, pot, 6), pot)

        def refuse(*args, **kwargs):
            raise AssertionError("went back to the collocated operator")

        for name in ("_collocate", "_lagrange"):
            monkeypatch.setattr(gibbs, name, refuse)
        recs = recurrence_pure_run(quartet, backend, ConstantRadius(0.05), 300, 3, 11,
                                   ball_budget=6)
        assert len(recs) == 3

    def test_ball_covering_attractor_counts_every_step(self, cantor, uniform):
        # radius 1 = 3^0 takes the exact prefix test; radius 3 (k = -1) must not
        for c in (2.0, 1.0, 3.0):
            recs = recurrence_pure_run(cantor, uniform, ConstantRadius(c), 400, 3, 2)
            for r in recs:
                assert r.final.count == 400
                assert r.final.ball_sum == pytest.approx(400.0, abs=1e-9)

    def test_counts_match_digit_formula_recomputation(self, cantor, uniform):
        N, S = 400, 4
        recs = recurrence_pure_run(cantor, uniform, ConstantRadius(5.0 / 9.0), N, S, 31,
                                   checkpoints=list(range(1, N + 1)))
        hits = per_step_hits(recs)
        depth = 45
        block = sample_symbol_block(uniform, 31, range(S), N + depth)
        for i in range(S):
            x0 = cantor_digits_position(block[i, :depth])
            # recorded start point carries the run's working precision, which
            # follows the flag band psi/1000
            assert abs(recs[i].x0.x - x0) < 2e-3
            for n in range(1, N + 1):
                pos = cantor_digits_position(block[i, n : n + depth])
                d = abs(pos - x0)
                if abs(d - 5.0 / 9.0) > 2e-3:
                    assert bool(hits[i, n - 1]) == (d <= 5.0 / 9.0)

    def test_density_ball_sum_matches_direct_cdf_sum(self, quartet, density):
        N, S = 2000, 6
        psi = PowerRadius(1.0, 0.5)
        recs = recurrence_pure_run(quartet, density, psi, N, S, 44)
        radii = psi.values(np.arange(1, N + 1))
        for r in recs:
            x0 = r.x0.x
            direct = float(np.sum(
                (np.log1p(np.clip(x0 + radii, 0, 1)) - np.log1p(np.clip(x0 - radii, 0, 1)))
                / LN2))
            assert r.final.ball_sum == pytest.approx(direct, abs=1e-9)

    def test_symbolic_and_distance_modes_agree(self, cantor, weighted):
        # radii 3^-floor(ln n) are powers of 1/3, so the run takes the exact
        # prefix test; a distance recount from the same symbols must agree
        # wherever the distance is clear of the flag band psi(n)/1000
        N, S = 3000, 8
        psi = PowerLogRadius(1.0)
        recs = recurrence_pure_run(cantor, weighted, psi, N, S, 88,
                                   checkpoints=list(range(1, N + 1)))
        hits = per_step_hits(recs)
        radii = psi.values(np.arange(1, N + 1))
        depth = 40
        block = sample_symbol_block(weighted, 88, range(S), N + depth)
        windows = np.lib.stride_tricks.sliding_window_view(block, depth, axis=1)
        pos = cantor_digits_position(windows[:, : N + 1])
        dist = np.abs(pos[:, 1:] - pos[:, [0]])
        clear = np.abs(dist - radii) > radii / 1000.0
        assert clear.mean() > 0.99
        np.testing.assert_array_equal(hits[clear], (dist <= radii)[clear])
        assert all(cp.flagged == 0 for r in recs for cp in r.checkpoints)

    def test_symbolic_hits_match_prefix_recomputation(self, cantor, weighted):
        N, S = 2000, 12
        alpha = 0.5 * sum(_staircase_alpha_window((0.3, 0.7)))
        psi = PowerLogRadius(alpha)
        recs = recurrence_pure_run(cantor, weighted, psi, N, S, 54,
                                   checkpoints=list(range(1, N + 1)))
        hits = per_step_hits(recs)
        ks = np.floor(alpha * np.log(np.arange(1, N + 1))).astype(int)
        block = sample_symbol_block(weighted, 54, range(S), N + int(ks.max()))
        probs = (0.3, 0.7)
        for i in range(S):
            ball = 0.0
            for n in range(1, N + 1):
                k = ks[n - 1]
                want = bool(np.array_equal(block[i, n : n + k], block[i, :k]))
                assert bool(hits[i, n - 1]) == want
                prod = 1.0
                for j in range(k):
                    prod *= probs[block[i, j] - 1]
                ball += prod
            assert recs[i].final.ball_sum == pytest.approx(ball, rel=1e-12)

    def test_deep_radii_decided_without_flags(self, cantor, weighted):
        # staircase radii reach 3^-15, far below coordinate resolution
        alpha = 0.5 * sum(_staircase_alpha_window((0.3, 0.7)))
        recs = recurrence_pure_run(cantor, weighted, PowerLogRadius(alpha), 50_000, 3, 66)
        assert PowerLogRadius(alpha).values(np.array([50_000]))[0] < 1e-6
        assert all(cp.flagged == 0 for r in recs for cp in r.checkpoints)
        assert all(r.final.count > 0 for r in recs)

    def test_determinism_and_id_block_splitting(self, cantor, uniform):
        a = recurrence_pure_run(cantor, uniform, ConstantRadius(5 / 9), 1500, 6, 7101)
        b = recurrence_pure_run(cantor, uniform, ConstantRadius(5 / 9), 1500, 6, 7101)
        assert a == b
        c = recurrence_pure_run(cantor, uniform, ConstantRadius(5 / 9), 1500, 0, 7101,
                                sample_ids=[0, 1, 2])
        d = recurrence_pure_run(cantor, uniform, ConstantRadius(5 / 9), 1500, 0, 7101,
                                sample_ids=[3, 4, 5])
        assert c + d == a
        t2 = recurrence_pure_run(cantor, uniform, ConstantRadius(5 / 9), 1500, 6, 7101,
                                 threads=2)
        assert t2 == a

    @pytest.mark.parametrize("chain", ["density", "spectral"])
    def test_sequential_chains_split_and_thread_identity(self, quartet, density, chain):
        # the sequential chains step all rows of a block together, so a block's
        # split must not change any row; 7 ids over 3 workers give uneven blocks
        if chain == "density":
            backend, budget = density, 45
        else:
            rep = eigen_solve(quartet, ConformalPowerPotential(1.0), 4)
            backend, budget = SpectralBackend(quartet, rep, ConformalPowerPotential(1.0)), 4

        def run(samples=7, **kw):
            return recurrence_pure_run(quartet, backend, ConstantRadius(0.05), 400, samples,
                                       7102, ball_budget=budget, **kw)

        a = run()
        assert run() == a
        assert run(0, sample_ids=[0, 1, 2]) + run(0, sample_ids=[3, 4, 5, 6]) == a
        for threads in (2, 3):
            assert run(threads=threads) == a

    def test_symbolic_runs_split_and_thread_identity(self, cantor):
        # ABB staircase radii take the exact prefix test; every id split and
        # worker count must give the same records, ball sums to the last bit
        probs = (0.2, 0.8)
        backend = BernoulliBackend(cantor, probs)
        psi = PowerLogRadius(0.5 * sum(_staircase_alpha_window(probs)))

        def run(samples=7, **kw):
            return recurrence_pure_run(cantor, backend, psi, 200_000, samples, 311, **kw)

        a = run()
        assert [r for i in range(7) for r in run(0, sample_ids=[i])] == a
        assert run(0, sample_ids=[0, 1, 2]) + run(0, sample_ids=[3, 4, 5, 6]) == a
        for threads in (2, 3):
            assert run(threads=threads) == a

    def test_pool_opens_one_worker_per_block(self, cantor, uniform, monkeypatch):
        # a stand-in pool records its size and maps in this process, so the
        # test starts no worker whatever size the engine asks for
        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, specs, blocks):
                blocks = list(blocks)
                opened.append((self.max_workers, len(blocks)))
                return [fn(spec, block) for spec, block in zip(specs, blocks)]

        # the engine imports the pool from concurrent.futures only when it opens one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)

        def run(**kw):
            return recurrence_pure_run(cantor, uniform, ConstantRadius(1 / 3), 100, 2, 5, **kw)

        serial = run()
        assert opened == []
        assert run(threads=16) == serial
        assert opened == [(2, 2)]  # max_workers == len(blocks) <= samples


# ---------------------------------------------------------------------------
# measure-equalized recurrence runs
# ---------------------------------------------------------------------------


class TestRecurrenceModified:
    def test_quota_above_one_counts_every_step(self, cantor, weighted):
        recs = recurrence_modified_run(cantor, weighted, ConstantRadius(2.0), 300, 3, 3)
        for r in recs:
            assert r.final.count == 300
            assert r.final.psi_sum == pytest.approx(300 * 2.0)
            assert r.final.flagged == 0

    @pytest.mark.parametrize("system_name, backend_name",
                             [("cantor", "weighted"), ("quartet", "density")])
    def test_hits_match_ball_measure_definition(self, request, system_name, backend_name):
        system = request.getfixturevalue(system_name)
        backend = request.getfixturevalue(backend_name)
        N, S = 200, 5
        psi = PowerRadius(1.0, 0.5)
        recs = recurrence_modified_run(system, backend, psi, N, S, 7,
                                       checkpoints=list(range(1, N + 1)))
        hits = per_step_hits(recs)
        depth = system.depth_for_diameter(1e-12)
        block = sample_symbol_block(backend, 7, range(S), N + depth)
        pos = project_windows(block, system, depth)
        quotas = psi.values(np.arange(1, N + 1))  # the quotas the engine reads
        for i in range(S):
            x0 = float(pos[i, 0])
            for n in range(1, N + 1):
                d = abs(float(pos[i, n]) - x0)
                br = ball_measure(backend, x0, d, 45)
                q = quotas[n - 1]
                if br.upper < q:
                    assert bool(hits[i, n - 1])
                elif br.lower >= q:
                    assert not bool(hits[i, n - 1])

    @pytest.mark.parametrize("system_name, backend_name",
                             [("cantor", "weighted"), ("quartet", "density")])
    def test_screened_decision_equals_three_pass_rule(self, request, system_name,
                                                      backend_name):
        # quotas on the observed mass times (1 +- eps) put many steps inside
        # the position uncertainty: the screen must leave every decision and
        # flag of the rule that refines every step
        system = request.getfixturevalue(system_name)
        backend = request.getfixturevalue(backend_name)
        N, S = 400, 10
        depth = system.depth_for_diameter(1e-12)
        prec = system.diameter_bound(depth)
        block = sample_symbol_block(backend, 11, range(S), N + depth)
        pos = project_windows(block, system, depth)
        x0s, dist = pos[:, 0], np.abs(pos[:, 1:] - pos[:, [0]])
        lo, hi = _radial_mass(backend, np.repeat(x0s, N), dist.reshape(-1), 45)
        rng = np.random.default_rng(12)
        eps = rng.choice([-1.0, 1.0], S * N) * 10.0 ** rng.uniform(-16, -3, S * N)
        quota = (0.5 * (lo + hi) * (1.0 + eps)).reshape(S, N)
        hit, flag = _quota_decider(backend, x0s, prec, float(quota.min()), depth, 45)(dist, quota)
        ref_hit, ref_flag = _three_pass_quota_hits(backend, prec, x0s, dist, quota)
        assert flag.any() and (~flag).any()
        assert np.array_equal(flag, ref_flag)
        assert np.array_equal(hit, ref_hit)

    @pytest.mark.parametrize("system_name, backend_name",
                             [("cantor", "weighted"), ("quartet", "density")])
    def test_each_ball_takes_only_the_steps_still_open(self, request, monkeypatch,
                                                       system_name, backend_name):
        # the inner ball takes only the steps the start points' radial tables
        # leave open, the outer ball those of them the inner one does not
        # miss, the ball at d only the flagged steps
        system = request.getfixturevalue(system_name)
        backend = request.getfixturevalue(backend_name)
        N, S = 400, 10
        depth = system.depth_for_diameter(1e-12)
        prec = system.diameter_bound(depth)
        pos = project_windows(sample_symbol_block(backend, 11, range(S), N + depth),
                              system, depth)
        x0s, dist = pos[:, 0], np.abs(pos[:, 1:] - pos[:, [0]])
        lo, hi = _radial_mass(backend, np.repeat(x0s, N), dist.reshape(-1), 45)
        rng = np.random.default_rng(12)
        eps = rng.choice([-1.0, 1.0], S * N) * 10.0 ** rng.uniform(-16, -3, S * N)
        quota = (0.5 * (lo + hi) * (1.0 + eps)).reshape(S, N)
        points = []

        def counted(backend, centers, radii, depth_budget):
            points.append(np.size(radii))
            return _radial_mass(backend, centers, radii, depth_budget)

        monkeypatch.setattr(measure, "_radial_mass", counted)
        hit, flag = _quota_decider(backend, x0s, prec, float(quota.min()), depth, 45)(dist, quota)
        tables = _radial_table(backend, x0s, prec, float(quota.min()), depth)
        still_open = np.array([
            (table_mass(table, dist[i] + 2.0 * prec)[1] >= quota[i])
            & (table_mass(table, np.maximum(dist[i] - 2.0 * prec, 0.0))[0] < quota[i])
            for i, table in enumerate(tables)])
        in_lo, _ = _radial_mass(backend, x0s[:, None], np.maximum(dist - 2.0 * prec, 0.0), 45)
        not_missed = int(np.count_nonzero(still_open & (in_lo < quota)))
        n_open = int(np.count_nonzero(still_open))
        assert points == [n_open, not_missed, int(np.count_nonzero(flag))]
        assert S * N > n_open > not_missed > np.count_nonzero(flag) > 0

    @pytest.mark.parametrize("system_name, backend_name",
                             [("cantor", "weighted"), ("cantor", "uniform"),
                              ("quartet", "density")])
    def test_table_screen_keeps_the_three_pass_decisions(self, request, monkeypatch,
                                                         system_name, backend_name):
        # quotas from 1e-16 to 1e0 relative to the observed masses: the table
        # decides the steps far from their quota, the oracle the rest, and no
        # decision or flag differs from the rule that takes every ball
        system = request.getfixturevalue(system_name)
        backend = request.getfixturevalue(backend_name)
        N, S = 400, 10
        depth = system.depth_for_diameter(1e-12)
        prec = system.diameter_bound(depth)
        pos = project_windows(sample_symbol_block(backend, 17, range(S), N + depth),
                              system, depth)
        x0s, dist = pos[:, 0], np.abs(pos[:, 1:] - pos[:, [0]])
        lo, hi = _radial_mass(backend, np.repeat(x0s, N), dist.reshape(-1), 45)
        rng = np.random.default_rng(18)
        eps = rng.choice([-0.5, 1.0], S * N) * 10.0 ** rng.uniform(-16, 0, S * N)
        quota = (0.5 * (lo + hi) * (1.0 + eps)).reshape(S, N)
        points = []

        def counted(backend, centers, radii, depth_budget):
            points.append(np.size(radii))
            return _radial_mass(backend, centers, radii, depth_budget)

        monkeypatch.setattr(measure, "_radial_mass", counted)
        hit, flag = _quota_decider(backend, x0s, prec, float(quota.min()), depth, 45)(dist, quota)
        monkeypatch.undo()
        ref_hit, ref_flag = _three_pass_quota_hits(backend, prec, x0s, dist, quota)
        assert 0 < points[0] < S * N  # table-decided and open steps both occur
        assert flag.any()
        assert np.array_equal(flag, ref_flag)
        assert np.array_equal(hit, ref_hit)

    def test_screen_reads_the_table_two_precisions_from_the_distance(self, monkeypatch,
                                                                     weighted):
        # one start point whose table holds two leaves of mass 1/2 with
        # widened ends [0.1, 0.2] and [0.3, 0.4]: the table decides a step
        # only when d + 2 prec, or max(d - 2 prec, 0), clears the leaf end
        prec = 1e-6
        table = (np.array([-np.inf, 0.1, 0.3, np.inf]), np.array([0.0, 0.5, 1.0]),
                 np.array([-np.inf, 0.2, 0.4, np.inf]), np.array([0.0, 0.5, 1.0]))
        dist = np.array([[0.3 - 3 * prec, 0.3 - prec, 0.2 + 3 * prec, 0.2 + prec]])
        quota = np.array([0.6, 0.6, 0.4, 0.4])
        radii = []

        def counted(backend, centers, r, depth_budget):
            radii.append(np.array(r, copy=True))
            return _radial_mass(backend, centers, r, depth_budget)

        monkeypatch.setattr(measure, "_radial_mass", counted)
        monkeypatch.setattr(measure, "_radial_table", lambda *args: [table])
        decide = _quota_decider(weighted, np.array([0.5]), prec, float(quota.min()), 13, 45)
        hit, flag = decide(dist, quota)
        # F_hi(0.3 - prec) = 1/2 < 0.6 hits; F_lo(0.2 + prec) = 1/2 >= 0.4 misses
        assert hit[0, 0] and not hit[0, 2] and not flag[0, [0, 2]].any()
        # the others straddle a leaf end within 2 prec: the oracle's inner balls take them
        assert np.array_equal(radii[0], dist[0, [1, 3]] - 2 * prec)

    @pytest.mark.parametrize("psi, at_most_open", [
        (PowerRadius(1.0, 0.5), 0.01), (ConstantRadius(1e-300), None),
        (PowerRadius(1.0, 3.0), None)])
    def test_table_work_is_bounded(self, monkeypatch, cantor, weighted, psi, at_most_open):
        # counts, not timings, at cantor_modified's shape with N cut to 1000:
        # the oracle takes under 1 % of the steps, and a table holds at most
        # 2000 leaves a center however small the quotas
        N, S = 1000, 50
        points, leaves = [], []

        def counted(backend, centers, radii, depth_budget):
            points.append(np.size(radii))
            return _radial_mass(backend, centers, radii, depth_budget)

        def tables(*args):
            built = _radial_table(*args)
            leaves.extend(table[1].size - 1 for table in built)
            return built

        monkeypatch.setattr(measure, "_radial_mass", counted)
        monkeypatch.setattr(measure, "_radial_table", tables)
        recurrence_modified_run(cantor, weighted, psi, N, S, 1)
        assert len(leaves) == S and max(leaves) <= 2000
        if at_most_open is not None:
            assert sum(points[::3]) < at_most_open * S * N  # each window's inner balls

    # a decision that took the ball at d for every step first, then screened
    # the steps near the quota, peaked at 86.6 B per step on the weighted
    # Cantor window and 64.0 on the quartet density one; this rule reads 78.6
    # and 56.0
    @pytest.mark.parametrize("system_name, backend_name, bytes_per_step",
                             [("cantor", "weighted", 83), ("quartet", "density", 60)])
    def test_window_decision_peak_memory(self, request, system_name, backend_name,
                                         bytes_per_step):
        system = request.getfixturevalue(system_name)
        backend = request.getfixturevalue(backend_name)
        rows = 50
        width = dynamics._window_width(rows)
        depth = system.depth_for_diameter(1e-12)
        prec = system.diameter_bound(depth)
        pos = project_windows(sample_symbol_block(backend, 3, range(rows), width + depth),
                              system, depth)
        x0s = pos[:, 0].copy()
        dist = np.abs(pos[:, 1:] - x0s[:, None])
        radii = PowerRadius(1.0, 0.5).values(np.arange(1, width + 1))
        del pos
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _quota_decider(backend, x0s, prec, float(radii.min()), depth, 45)(dist, radii)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bytes_per_step * dist.size

    def test_ahlfors_sandwich_between_pure_and_equalized_hits(self, cantor, uniform):
        # on the uniform Cantor set  r^tau/2 <= mu(B(x,r)) <= 6 r^tau,  so
        # equalized hits at quota psi^tau/6 imply distance hits at radius psi,
        # which imply equalized hits at quota 6 psi^tau
        N, S = 1000, 5

        class TauQuota:
            def __init__(self, c):
                self.c = c

            def value(self, n):
                return self.c * float(n) ** (-0.5 * TAU)

            def values(self, ns):
                return self.c * np.asarray(ns, dtype=float) ** (-0.5 * TAU)

        cps = list(range(1, N + 1))
        pure = recurrence_pure_run(cantor, uniform, PowerRadius(1.0, 0.5), N, S, 99,
                                   checkpoints=cps)
        low = recurrence_modified_run(cantor, uniform, TauQuota(1 / 6.0001), N, S, 99,
                                      checkpoints=cps)
        high = recurrence_modified_run(cantor, uniform, TauQuota(6.0001), N, S, 99,
                                       checkpoints=cps)
        hp, hl, hh = per_step_hits(pure), per_step_hits(low), per_step_hits(high)
        assert np.all(~hl | hp)
        assert np.all(~hp | hh)
        assert hl.sum() < hp.sum() < hh.sum()

    def test_per_sample_ratio_band_at_scale(self, cantor, weighted):
        # expected count equals sum psi exactly; ratio std ~0.045 at this
        # scale, so at least 90% of samples land within +-0.1 of 1
        N, S = 100_000, 100
        psi = PowerRadius(1.0, 0.5)
        recs = recurrence_modified_run(cantor, weighted, psi, N, S, 4242)
        exact = float(np.sum(psi.values(np.arange(1, N + 1))))
        assert recs[0].final.psi_sum == pytest.approx(exact, rel=1e-12)
        ratios = np.array([r.final.count / r.final.psi_sum for r in recs])
        assert np.mean(np.abs(ratios - 1.0) <= 0.1) >= 0.90
        flagged = sum(r.final.flagged for r in recs)
        assert flagged < 0.01 * sum(r.final.count for r in recs)

    def test_unsupported_backend_rejected(self, cantor):
        rep = eigen_solve(cantor, BernoulliPotential((0.3, 0.7)), depth=6)
        sb = SpectralBackend(cantor, rep, BernoulliPotential((0.3, 0.7)))
        with pytest.raises(CertificationError):
            recurrence_modified_run(cantor, sb, PowerRadius(1.0, 0.5), 100, 2, 1)


# ---------------------------------------------------------------------------
# residual normalization
# ---------------------------------------------------------------------------


_WINDOW_CASES = ("distance_line_pure", "distance_line_pure_every_step", "distance_line_shrink",
                 "distance_plane_shrink", "mass_cantor", "mass_uniform", "mass_density",
                 "symbolic_staircase", "density_chain", "spectral_chain")
# sparse checkpoints: some fall on window edges, and most segments span several
_WINDOW_CPS = [1, 2, 3, 5, 8, 21, 22, 64, 65, 100, 101, 211]


class TestWindowedEngine:
    """A run walks each worker block's time axis in windows of about
    ``dynamics._WINDOW_CELLS`` symbols; no record may depend on that size."""

    @pytest.fixture(scope="class")
    def run_case(self, cantor, uniform, weighted, quartet, density):
        tri = builtin_system("sierpinski_triangle")
        thirds = BernoulliBackend(tri, (1 / 3, 1 / 3, 1 / 3))
        staircase = BernoulliBackend(cantor, (0.2, 0.8))
        alpha = 0.5 * sum(_staircase_alpha_window((0.2, 0.8)))
        rep = eigen_solve(quartet, ConformalPowerPotential(1.0), 4)
        spectral = SpectralBackend(quartet, rep, ConformalPowerPotential(1.0))
        N = 300
        targets = np.random.default_rng(5).uniform(0.0, 1.0, N)
        cps = _WINDOW_CPS + [N]
        runs = {
            "distance_line_pure": lambda t: recurrence_pure_run(
                cantor, weighted, PowerRadius(0.5, 0.5), N, 3, 41, checkpoints=cps, threads=t),
            "distance_line_pure_every_step": lambda t: recurrence_pure_run(
                cantor, weighted, PowerRadius(0.5, 0.5), N, 3, 41,
                checkpoints=range(1, N + 1), threads=t),
            "distance_line_shrink": lambda t: shrinking_target_run(
                cantor, weighted, targets, PowerRadius(0.3, 0.5), N, 3, 42, checkpoints=cps,
                threads=t),
            "distance_plane_shrink": lambda t: shrinking_target_run(
                tri, thirds, (0.5, 0.0), ConstantRadius(0.1), N, 3, 43, checkpoints=cps,
                threads=t),
            "mass_cantor": lambda t: recurrence_modified_run(
                cantor, weighted, PowerRadius(1.0, 0.5), N, 3, 44, checkpoints=cps, threads=t),
            "mass_uniform": lambda t: recurrence_modified_run(
                cantor, uniform, PowerRadius(0.5, 0.5), N, 3, 49, checkpoints=cps, threads=t),
            "mass_density": lambda t: recurrence_modified_run(
                quartet, density, PowerRadius(1.0, 0.5), N, 3, 45, checkpoints=cps, threads=t),
            "symbolic_staircase": lambda t: recurrence_pure_run(
                cantor, staircase, PowerLogRadius(alpha), 2 * N, 3, 46, checkpoints=cps,
                threads=t),
            "density_chain": lambda t: recurrence_pure_run(
                quartet, density, ConstantRadius(0.05), N, 3, 47, checkpoints=cps, threads=t),
            "spectral_chain": lambda t: recurrence_pure_run(
                quartet, spectral, ConstantRadius(0.05), N, 3, 48, checkpoints=cps,
                ball_budget=4, threads=t),
        }
        defaults = {}

        def run(name, threads, cells=None):
            if cells is None:
                if name not in defaults:
                    defaults[name] = runs[name](1)
                return defaults[name]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dynamics, "_WINDOW_CELLS", cells)
                return runs[name](threads)
        return run

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("cells", [1, 7, 64])
    @pytest.mark.parametrize("name", _WINDOW_CASES)
    def test_records_do_not_depend_on_the_window(self, run_case, name, cells, threads):
        want = run_case(name, 1)
        assert all(r.final.count > 0 for r in want)
        assert run_case(name, threads, cells) == want


class TestCountingMemory:
    """Counting memory is O(rows x window + N): past the per-run step vectors
    (radii, Cantor levels, normalizers), it does not grow with N."""

    STEP_WORDS = 8  # float64 or int64 words per step the run may hold at once
    SLACK = 4 * 2 ** 20

    @staticmethod
    def _peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("mode", ["distance", "symbolic"])
    def test_peak_grows_only_by_step_vectors(self, cantor, weighted, mode):
        if mode == "distance":
            def run(N):
                return recurrence_pure_run(cantor, weighted, ConstantRadius(0.01), N, 4, 3)
        else:
            staircase = BernoulliBackend(cantor, (0.2, 0.8))
            psi = PowerLogRadius(0.5 * sum(_staircase_alpha_window((0.2, 0.8))))

            def run(N):
                return recurrence_pure_run(cantor, staircase, psi, N, 20, 311)
        small, large = 10 ** 5, 10 ** 6
        growth = self._peak(lambda: run(large)) - self._peak(lambda: run(small))
        assert growth <= self.STEP_WORDS * 8 * (large - small) + self.SLACK


class TestCantorLevels:
    def test_levels_exact_and_pass_memory(self, uniform):
        """The levels k with psi(n) = 3^-k, or None; at N = 10^6 the pass
        holds at most 12 bytes per radius above the radii themselves."""
        N = 10 ** 6
        ns = np.arange(1, N + 1)
        alpha = 0.5 * sum(_staircase_alpha_window((0.2, 0.8)))
        radii = PowerLogRadius(alpha).values(ns)
        tracemalloc.start()
        try:
            ks = _cantor_levels(uniform, radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * N + 2 ** 16
        assert ks.dtype == np.int16
        np.testing.assert_array_equal(ks, np.floor(alpha * np.log(ns)))
        for k in (0, 1, 5, 31):
            np.testing.assert_array_equal(
                _cantor_levels(uniform, ConstantRadius(3.0 ** -k).values(ns)), k)
        assert _cantor_levels(uniform, ConstantRadius(5.0 / 9.0).values(ns)) is None
        assert _cantor_levels(uniform, PowerRadius(1.0, 0.5).values(ns)) is None


def _record_with(counts_psi):
    cps = [Checkpoint(n, c, s) for n, c, s in counts_psi]
    return CountingRecord(0, cps, PointRd((0.0,)))


class TestBcResidual:
    def test_zero_when_count_equals_normalizer(self):
        rec = _record_with([(100, 50, 50.0), (1000, 400, 400.0)])
        assert all(v == 0.0 for _, v in bc_residual(rec))

    def test_doubled_count_follows_closed_form(self):
        rows = [(10**k, 2 * 10**k // 10, 10.0 ** (k - 1)) for k in range(2, 6)]
        rec = _record_with(rows)
        for (N, got), (_, c, s) in zip(bc_residual(rec, 0.1), rows):
            want = (c - s) / (math.sqrt(s) * math.log(s + 1.0) ** 1.6)
            assert got == pytest.approx(want, rel=1e-12)
        vals = [abs(v) for _, v in bc_residual(rec, 0.1)]
        assert vals == sorted(vals)  # grows like sqrt(S)/log^1.6

    def test_small_normalizers_skipped(self):
        rec = _record_with([(10, 1, 0.5), (100, 7, 8.0)])
        out = bc_residual(rec)
        assert [n for n, _ in out] == [100]

    def test_ball_sum_preferred_when_present(self):
        cps = [Checkpoint(100, 50, 40.0, 50.0)]
        rec = CountingRecord(0, cps, PointRd((0.0,)))
        assert bc_residual(rec)[0][1] == 0.0  # psi_sum would give a positive residual

    def test_epsilon_validation(self):
        rec = _record_with([(100, 7, 8.0)])
        for bad in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                bc_residual(rec, bad)

    @given(st.integers(2, 10**6), st.floats(2.0, 10**5))
    @settings(max_examples=40, deadline=None)
    def test_normalization_algebra(self, count, s):
        count = min(count, 10**6)
        rec = _record_with([(10**6, count, s)])
        (_, got), = bc_residual(rec, 0.25)
        assert got == pytest.approx(
            (count - s) / (math.sqrt(s) * math.log(s + 1.0) ** 1.75), rel=1e-12)


# ---------------------------------------------------------------------------
# pairwise quasi-independence
# ---------------------------------------------------------------------------


class TestPairwiseIndependence:
    def test_bernoulli_single_symbol_identity(self, cantor, weighted):
        # disjoint coordinate blocks: off-diagonal joints factor exactly, so
        # lhs = (sum mu)^2 - sum mu^2 + sum mu
        out = pairwise_independence_check(cantor, weighted, (1,), 1, 10)
        mu = 0.3
        S = 10 * mu
        want = S * S - 10 * mu * mu + S
        assert out["lhs"] == pytest.approx(want, abs=1e-12)
        assert out["rhs_main"] == pytest.approx(S * S, abs=1e-12)
        assert out["rhs_error"] == pytest.approx(S, abs=1e-12)
        assert out["satisfied"]

    def test_bernoulli_two_symbol_exclusion_closed_form(self, cantor, uniform):
        # word (1,2): adjacent events are mutually exclusive (joint 0), all
        # other pairs factor -- closed-form lhs
        a, b = 1, 12
        K = b - a + 1
        mu = 0.25
        out = pairwise_independence_check(cantor, uniform, (1, 2), a, b)
        pairs_far = K * (K - 1) // 2 - (K - 1)
        want = K * mu + 2 * pairs_far * mu * mu
        assert out["lhs"] == pytest.approx(want, abs=1e-12)
        assert out["satisfied"]

    def test_single_event_is_tight(self, cantor, weighted):
        out = pairwise_independence_check(cantor, weighted, (2, 1), 4, 4)
        mu = cylinder_measure(weighted, FiniteWord((2, 1), 2))
        assert out["lhs"] == pytest.approx(mu, abs=1e-15)
        assert out["rhs_error"] == pytest.approx(mu, abs=1e-15)
        assert out["satisfied"]

    def test_nested_events_hold_with_short_range_fitted_kappa(self, quartet, density):
        # deviations of the nested constant-word family decay geometrically;
        # kappa is fitted on gaps 1..6 only and then validated on ranges
        # whose longer-gap pairs never entered the fit
        w = FiniteWord((1,) * 21, 4)
        mu = cylinder_measure(density, w)
        devs = [(g, correlation(quartet, density, w, w, g) / mu) for g in range(1, 7)]
        fit = fit_exponential_rate(devs)
        assert fit.r_squared > 0.9999
        kappa = fit.amplitude * fit.gamma / (1.0 - fit.gamma)
        assert kappa == pytest.approx(1.0 / 3.0, rel=1e-6)
        for b in (10, 15, 20, 25):
            out = pairwise_independence_check(quartet, density, (1,) * 21, 5, b,
                                              kappa=kappa)
            assert out["satisfied"], (b, out)

    def test_ball_events_monte_carlo_mode(self, cantor, uniform):
        out = pairwise_independence_check(cantor, uniform, ((0.0,), 0.4), 2, 10,
                                          kappa=0.5, mc_samples=4000, seed=12)
        assert out["mc_samples"] == 4000
        assert out["satisfied"]
        assert out["lhs"] >= out["rhs_error"] - 0.1  # diagonal dominates the floor

    @pytest.mark.parametrize("radius, mc_samples, message", [
        (0.4, 0, "mc_samples"),
        (0.4, -3, "mc_samples"),
        (-0.4, 100, "radius"),
        (0.0, 100, "radius"),
        (math.nan, 100, "radius"),
        (math.inf, 100, "radius"),
    ])
    def test_ball_events_monte_carlo_inputs_refused_before_sampling(
            self, cantor, uniform, monkeypatch, radius, mc_samples, message):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before refusing the inputs")

        monkeypatch.setattr(experiments, "sample_symbol_block", refuse)
        with pytest.raises(ValueError, match=message):
            pairwise_independence_check(cantor, uniform, ((0.0,), radius), 2, 10,
                                        mc_samples=mc_samples)

    def test_range_validation(self, cantor, uniform):
        with pytest.raises(ValueError):
            pairwise_independence_check(cantor, uniform, (1,), 0, 5)
        with pytest.raises(ValueError):
            pairwise_independence_check(cantor, uniform, (1,), 6, 5)

    @pytest.mark.parametrize("a, b, mc_samples, bad", [
        (1.5, 5, None, "a"), (True, 5, None, "a"), (1, 5.5, None, "b"),
        (2, 10, 2.5, "mc_samples"), (2, 10, True, "mc_samples")])
    def test_counts_must_be_integers(self, cantor, uniform, a, b, mc_samples, bad):
        event = (1,) if mc_samples is None else ((0.0,), 0.4)
        with pytest.raises(ValueError, match=f"^{bad}: .* is not an integer"):
            pairwise_independence_check(cantor, uniform, event, a, b, mc_samples=mc_samples)

    def test_integral_float_counts_taken(self, cantor, weighted):
        assert (pairwise_independence_check(cantor, weighted, (1, 2), 2.0, np.float64(4.0))
                == pairwise_independence_check(cantor, weighted, (1, 2), 2, 4))


# ---------------------------------------------------------------------------
# product systems
# ---------------------------------------------------------------------------


class TestProductSystem:
    def test_cylinder_measures_multiply(self, cantor, uniform, weighted):
        ps, pb = product_system(cantor, uniform, cantor, weighted)
        got = pb.cylinder_measure([(1, 2), (2,)])
        assert got == pytest.approx(0.25 * 0.7, abs=1e-15)
        assert ps.dim == 2
        assert ps.branch_counts == (2, 2)

    def test_cube_joint_matches_hand_enumeration(self, cantor, uniform, weighted):
        _, pb = product_system(cantor, uniform, cantor, weighted)
        E = [(1,), (2, 1)]
        F = [(2,), (1,)]
        n = 3
        total = 1.0
        for backend, e, f in zip((uniform, weighted), E, F):
            probs = backend.probs
            acc = 0.0
            # mu([e] inter T^-n [f]) = sum over all middle words of length n-|e|
            free = n - len(e)
            for mid in np.ndindex(*([2] * free)):
                word = tuple(e) + tuple(m + 1 for m in mid) + tuple(f)
                p = 1.0
                for sym in word:
                    p *= probs[sym - 1]
                acc += p
            total *= acc
        assert pb.cube_joint(E, F, n) == pytest.approx(total, abs=1e-15)

    def test_bernoulli_product_mixing_vanishes(self, cantor, uniform, weighted):
        _, pu = product_system(cantor, uniform, cantor, BernoulliBackend(cantor, (0.5, 0.5)))
        assert product_cube_mixing(pu, 2, 3) == 0.0
        _, pw = product_system(cantor, uniform, cantor, weighted)
        for n in (2, 4):
            assert product_cube_mixing(pw, 2, n) <= 1e-12

    def test_interval_quartet_cross_cantor_within_envelope(self, quartet, density,
                                                           cantor, uniform):
        coeffs = [(n, mixing_coeff_cylinders(density, 8, n)) for n in range(2, 7)]
        fit = fit_exponential_rate(coeffs)
        _, pb = product_system(quartet, density, cantor, uniform)
        for n in range(2, 7):
            got = product_cube_mixing(pb, 2, n)
            bound = product_mixing_bound([(fit.amplitude, fit.gamma), (0.0, 0.0)], n)
            assert 0.0 < got <= bound, (n, got, bound)

    # criterion 09's products and the weighted one, at depth 2 for n = 2..6
    CUBE_PINS = {
        "uniform_uniform": [0.0, 0.0, 0.0, 0.0, 0.0],
        "uniform_weighted": [2.7755575615628914e-17, 2.7755575615628914e-17,
                             4.163336342344337e-17, 4.163336342344337e-17,
                             4.163336342344337e-17],
        "quartet_uniform": [0.0068151089475536955, 0.0006588914359674375,
                            3.8797645864899893e-05, 5.250347552946538e-06,
                            1.7844955798804185e-07],
    }

    def test_cube_mixing_is_pinned(self, cantor, uniform, weighted, quartet, density):
        products = {
            "uniform_uniform": (cantor, uniform, cantor, BernoulliBackend(cantor, (0.5, 0.5))),
            "uniform_weighted": (cantor, uniform, cantor, weighted),
            "quartet_uniform": (quartet, density, cantor, uniform),
        }
        for name, factors in products.items():
            _, pb = product_system(*factors)
            got = [product_cube_mixing(pb, 2, n) for n in range(2, 7)]
            assert np.allclose(got, self.CUBE_PINS[name], rtol=0.0, atol=1e-15), (name, got)

    def test_envelope_combination_form(self):
        assert product_mixing_bound([(0.5, 0.3), (0.2, 0.6)], 4) == pytest.approx(
            4.0 * 0.25 * 0.6**4)
        with pytest.raises(ValueError):
            product_mixing_bound([], 2)

    def test_max_metric(self, cantor, uniform, weighted):
        ps, _ = product_system(cantor, uniform, cantor, weighted)
        assert ps.distance((0.0, 0.5), (0.3, 0.1)) == pytest.approx(0.4)

    def test_validation(self, cantor, uniform, weighted, quartet, density):
        ps, _ = product_system(cantor, uniform, cantor, weighted)
        with pytest.raises(ValueError):
            ProductBackend(ps, (uniform, density))
        _, pb = product_system(cantor, uniform, cantor, weighted)
        with pytest.raises(ValueError):
            product_cube_mixing(pb, 3, 2)

    def test_cube_joint_refuses_negative_shifts(self, cantor, uniform, weighted):
        _, pb = product_system(cantor, uniform, cantor, weighted)
        for n in (-1, -2):
            with pytest.raises(ValueError, match="n must be >= 0"):
                pb.cube_joint([(1, 2), (1, 2)], [(1,), (1,)], n)

    def test_cube_joint_needs_one_word_per_factor(self, cantor, uniform, weighted):
        _, pb = product_system(cantor, uniform, cantor, weighted)
        with pytest.raises(ValueError, match="one word per factor"):
            pb.cube_joint([(1,)], [(1,), (2,)], 3)
        with pytest.raises(ValueError, match="one word per factor"):
            pb.cube_joint([(1,), (2,)], [(1,)], 3)


# ---------------------------------------------------------------------------
# exact pair masses stop at a spectral table
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quartet_spectral3(quartet):
    pot = ConformalPowerPotential(1.0)
    return SpectralBackend(quartet, eigen_solve(quartet, pot, depth=3), pot)


_ONE = FiniteWord((1,), 4)
# each call needs level 4, one past the depth-3 table; the arguments are the
# system, the spectral backend and its product with the uniform Cantor measure
PAST_THE_TABLE = {
    "correlation": lambda q, sb, pb: correlation(q, sb, _ONE, _ONE, 3),
    "pairwise_pair_level": lambda q, sb, pb: pairwise_independence_check(q, sb, (1, 2), 1, 3),
    "pairwise_long_event": lambda q, sb, pb: pairwise_independence_check(q, sb, (1, 2, 1, 2), 1, 1),
    "cube_joint": lambda q, sb, pb: pb.cube_joint([(1,), (1,)], [(1,), (1,)], 3),
    "mixing_coeff_cylinders": lambda q, sb, pb: mixing_coeff_cylinders(sb, 4, 2),
    "product_cube_mixing": lambda q, sb, pb: product_cube_mixing(pb, 2, 2),
}


@pytest.mark.parametrize("api", sorted(PAST_THE_TABLE))
def test_exact_pairs_refuse_past_a_spectral_table(api, quartet, quartet_spectral3, cantor, uniform):
    _, pb = product_system(quartet, quartet_spectral3, cantor, uniform)
    with pytest.raises(ValueError, match="level 4 is beyond the spectral table depth 3"):
        PAST_THE_TABLE[api](quartet, quartet_spectral3, pb)


# ---------------------------------------------------------------------------
# gasket doubling brackets
# ---------------------------------------------------------------------------


class TestGasketDoublingBracket:
    PROBS = (0.1, 0.8, 0.1)

    def test_bracket_ordering_and_scale_separation(self):
        for n in range(2, 9):
            row = gasket_tangency_doubling_bracket(self.PROBS, n)
            assert row["m"] >= n + 2
            assert 0 < row["small_ball"][0] <= row["small_ball"][1]
            assert 0 < row["large_ball"][0] <= row["large_ball"][1]
            assert row["ratio_lower"] <= row["ratio_mid"] <= row["ratio_upper"]
        with pytest.raises(ValueError):
            gasket_tangency_doubling_bracket(self.PROBS, 1)

    def test_exact_fraction_recomputation(self):
        p1, p2, p3 = Fraction(1, 10), Fraction(8, 10), Fraction(1, 10)
        for n in (2, 5, 8):
            row = gasket_tangency_doubling_bracket(self.PROBS, n)
            m = row["m"]
            geo = 1 / (1 - p3)
            s_lo = p2 * p1 ** (n - 1) * (p1 + p2) + p1 * p2 ** (m - 1)
            s_hi = p2 * p1 ** (n - 1) + p1 * p2 ** (m - 1) * geo + p2 * p2 * p1 ** (m - 2) * geo
            b_lo = p1 * p2**n + p2 * p1 ** (n - 1) * (1 + p2)
            b_hi = p1 * p2 ** (n - 1) * geo + p2 * (p1 ** (n - 2) * geo if n >= 3 else 1)
            assert row["small_ball"][0] == pytest.approx(float(s_lo), rel=1e-12)
            assert row["small_ball"][1] == pytest.approx(float(s_hi), rel=1e-12)
            assert row["ratio_lower"] == pytest.approx(float(b_lo / s_hi), rel=1e-12)
            assert row["ratio_upper"] == pytest.approx(float(b_hi / s_lo), rel=1e-12)

    def test_generic_pruner_confirms_brackets_at_small_n(self):
        # at n = 2 both routes are feasible: the adaptive-partition bracket
        # must land inside the analytic cascade bracket
        row = gasket_tangency_doubling_bracket(self.PROBS, 2)
        tri = builtin_system("sierpinski_triangle")
        b = BernoulliBackend(tri, self.PROBS)
        small = ball_measure(b, row["center"], row["radius"], 24)
        large = ball_measure(b, row["center"], 2 * row["radius"], 24)
        assert row["small_ball"][0] - 1e-12 <= small.lower
        assert small.upper <= row["small_ball"][1] + 1e-12
        assert row["large_ball"][0] - 1e-12 <= large.lower
        assert large.upper <= row["large_ball"][1] + 1e-12
        assert small.width < 1e-4 and large.width < 1e-4

    def test_ratio_blowup_along_sequence(self):
        rows = [gasket_tangency_doubling_bracket(self.PROBS, n) for n in range(2, 9)]
        mids = [r["ratio_mid"] for r in rows]
        assert all(b > a for a, b in zip(mids, mids[1:]))
        assert rows[-1]["ratio_lower"] > 100.0


# ---------------------------------------------------------------------------
# CSV and summaries
# ---------------------------------------------------------------------------


class TestCsvEmission:
    def test_row_layout_and_empty_cells(self, cantor, uniform):
        recs = recurrence_modified_run(cantor, uniform, PowerRadius(1.0, 0.5), 2000, 2, 6)
        rows = records_to_rows(recs)
        assert len(rows) == 2 * len(recs[0].checkpoints)
        sid, N, count, psi_sum, ball_sum, residual = rows[-1]
        assert (sid, N) == (1, 2000)
        assert ball_sum == ""  # undefined for equalized runs
        assert float(psi_sum) > 1.0 and residual != ""

    def test_byte_identical_reruns(self, cantor, uniform, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            recs = recurrence_pure_run(cantor, uniform, ConstantRadius(5 / 9), 3000, 5, 77)
            write_results_csv(p, recs)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            header = next(csv.reader(fh))
        assert header == ["sample_id", "N", "count", "psi_sum", "ball_sum", "residual"]

    def test_summary_structure(self, cantor, uniform):
        recs = recurrence_pure_run(cantor, uniform, ConstantRadius(5 / 9), 2000, 8, 13)
        s = summarize_records(recs)
        assert s["samples"] == 8 and s["N"] == 2000
        assert set(s["count"]) == {"min", "q25", "median", "q75", "max", "mean"}
        assert "count_over_ball_sum" in s
        assert s["flagged_fraction"] < 0.01
        json.dumps(s)
        assert summarize_records([]) == {"samples": 0}


# ---------------------------------------------------------------------------
# named examples
# ---------------------------------------------------------------------------


class TestNamedExamples:
    def test_registry_ids_stable(self):
        assert sorted(NAMED_EXAMPLES) == ["7.1", "7.2", "ABB", "B.2"]
        with pytest.raises(ValueError):
            run_named_example("nope")

    def test_constant_radius_report_small(self):
        rep = run_named_example("7.1", {"N": 4000, "samples": 30, "mc_samples": 2000})
        assert rep["regions"]["outer"]["band"] == [0.75, 0.85]
        assert rep["ball_brackets"]["outer_at_0"][0] == pytest.approx(0.5, abs=1e-9)
        assert rep["ball_brackets"]["middle_at_quarter"][1] == pytest.approx(0.75, abs=1e-9)
        assert abs(rep["mc_step30"]["z"]) < 4.0
        assert len(rep["records"]) == 30
        json.dumps({k: v for k, v in rep.items() if k != "records"})

    @pytest.mark.parametrize("overrides, message", [
        ({"N": 20000, "samples": 5}, "tail_split 100000 must be below N 20000"),
        ({"N": 50000, "samples": 3, "quadrature_samples": 16, "tail_points": 40,
          "tail_split": 10000}, "tail_points 40 must be at most quadrature_samples 16"),
    ])
    def test_staircase_refuses_tail_probe_overrides_before_running(
            self, monkeypatch, overrides, message):
        def refuse(*args, **kwargs):
            raise AssertionError("ran the recurrence before refusing the overrides")

        monkeypatch.setattr(experiments, "recurrence_pure_run", refuse)
        with pytest.raises(ValueError, match=message):
            run_named_example("ABB", overrides)

    @pytest.mark.parametrize("name, overrides", [
        ("7.1", {"samples": 0}),
        ("7.1", {"mc_samples": 0}),
        ("7.2", {"samples": 0}),
        ("ABB", {"quadrature_samples": 0}),
        ("7.2", {"mixing_depth": 6}),
    ])
    def test_override_below_its_floor_refused_before_running(
            self, monkeypatch, name, overrides):
        def refuse(*args, **kwargs):
            raise AssertionError("ran the recurrence before refusing the overrides")

        monkeypatch.setattr(experiments, "recurrence_pure_run", refuse)
        key, value = next(iter(overrides.items()))
        with pytest.raises(ValueError, match=f"override {key} must be >= .*, got {value}"):
            run_named_example(name, overrides)

    @pytest.mark.parametrize("overrides, key", [
        ({"samples": True, "N": 100}, "samples"), ({"N": 100.5, "samples": 2}, "N"),
        ({"samples": 2.5, "N": 100}, "samples"), ({"mc_samples": "20", "N": 100}, "mc_samples"),
    ])
    def test_non_integer_override_refused_by_key(self, monkeypatch, overrides, key):
        def refuse(*args, **kwargs):
            raise AssertionError("ran the recurrence before refusing the overrides")

        monkeypatch.setattr(experiments, "recurrence_pure_run", refuse)
        with pytest.raises(ValueError, match=f"example 7.1 override {key}: .* is not an integer"):
            run_named_example("7.1", overrides)

    @pytest.mark.parametrize("name", ["7.1", "B.2"])
    @pytest.mark.parametrize("seed", [7.9, True, -1, 2 ** 64])
    def test_bad_seed_refused_before_running(self, monkeypatch, name, seed):
        def refuse(*args, **kwargs):
            raise AssertionError("ran the example before refusing the seed")

        monkeypatch.setattr(experiments, "recurrence_pure_run", refuse)
        monkeypatch.setattr(experiments, "gasket_tangency_doubling_bracket", refuse)
        with pytest.raises(ValueError, match="^seed: "):
            run_named_example(name, seed=seed)

    def test_integral_float_seed_taken_as_int(self):
        small = {"N": 100, "samples": 3, "mc_samples": 50}
        rep = run_named_example("7.1", small, seed=7.0)
        assert rep["seed"] == 7 and type(rep["seed"]) is int
        assert rep["records"] == run_named_example("7.1", small, seed=7)["records"]

    def test_integral_float_override_taken_as_int(self):
        rep = run_named_example("7.1", {"N": 100.0, "samples": 3.0, "mc_samples": 50.0})
        assert (rep["N"], rep["samples"], rep["mc_step30"]["samples"]) == (100, 3, 50)
        assert all(type(v) is int for v in (rep["N"], rep["samples"]))
        assert len(rep["records"]) == 3

    def test_staircase_alpha_window_matches_high_precision(self):
        from mpmath import mp, mpf, log as mlog

        mp.dps = 30
        p1, p2 = mpf(1) / 5, mpf(4) / 5
        lo = float(1 / (-(p1 * mlog(p1) + p2 * mlog(p2))))
        hi = float(1 / (-mlog(p1 * p1 + p2 * p2)))
        got_lo, got_hi = _staircase_alpha_window((0.2, 0.8))
        assert got_lo == pytest.approx(lo, abs=1e-13)
        assert got_hi == pytest.approx(hi, abs=1e-13)
        rep = run_named_example("ABB", {"N": 4000, "samples": 10, "quadrature_samples": 256,
                                       "tail_points": 5, "tail_split": 1000})
        assert rep["alpha"] == pytest.approx(0.5 * (lo + hi), abs=1e-13)
        assert rep["alpha_window"] == [got_lo, got_hi]
        assert rep["integral_sum"]["increasing"]

    def test_gasket_probe_report(self):
        rep = run_named_example("B.2")
        assert rep["doubling_monotone"]
        assert rep["final_ratio_lower"] > 100.0
        assert rep["hyperplane"]["min_ratio_lower"] >= 0.4
        assert len(rep["hyperplane"]["series"]) == 8
        json.dumps({k: v for k, v in rep.items() if k != "records"})

    # 7.2 reads only lambda and h, on a fixed grid, so the table depth changes
    # nothing but the recorded depth, and no table is built
    @pytest.mark.parametrize("depth", [4, 5, 8])
    def test_interval_eigen_fields_match_the_grid_expression(self, quartet, monkeypatch, depth):
        def refuse(self):
            raise AssertionError("built the mass table")

        ref = eigen_solve(quartet, ConformalPowerPotential(1.0), depth)
        grid = np.linspace(0.0, 1.0, 1025)
        target_h = 1.0 / (math.log(2.0) * (1.0 + grid))
        monkeypatch.setattr(gibbs.EigenReport, "mu_table", property(refuse))
        rep = run_named_example("7.2", {"eigen_depth": depth, "N": 200, "samples": 4})
        assert rep["eigen"]["depth"] == depth and rep["eigen"]["nodes"] == ref.nodes
        assert rep["eigen"]["eigenvalue"] == ref.eigenvalue
        assert rep["eigen"]["density_sup_error"] == float(np.max(np.abs(ref.h_at(grid) - target_h)))
        assert rep["eigen"]["density_sup_error"] < 1e-12

    def test_reports_deterministic(self):
        small = {"N": 2000, "samples": 10, "mc_samples": 500}
        a = run_named_example("7.1", small)
        b = run_named_example("7.1", small)
        assert a["records"] == b["records"]
        assert a["regions"] == b["regions"]
        assert a["mc_step30"] == b["mc_step30"]


# ---------------------------------------------------------------------------
# Monte-Carlo consistency at stated scale
# ---------------------------------------------------------------------------


class TestMonteCarloConsistency:
    def test_cylinder_pullback_frequencies_within_four_sigma(self, cantor, weighted,
                                                             quartet, density):
        words = [(1,), (2, 1), (1, 2, 2)]
        for backend in (weighted, density):
            out = cylinder_event_crosscheck(backend.system, backend, words, 50, 10_000, 97)
            for row in out:
                assert abs(row["z"]) < 4.0, row

    def test_cylinder_event_crosscheck_validation(self, cantor, weighted):
        with pytest.raises(ValueError, match="samples"):
            cylinder_event_crosscheck(cantor, weighted, [(1,)], 5, 0, 1)
        with pytest.raises(ValueError, match="words"):
            cylinder_event_crosscheck(cantor, weighted, [], 5, 100, 1)
        with pytest.raises(ValueError, match="n must be >= 0"):
            cylinder_event_crosscheck(cantor, weighted, [(1,)], -1, 100, 1)

    @pytest.mark.parametrize("n, samples, bad", [
        (1.5, 100, "n"), (True, 100, "n"), (5, 2.5, "samples"), (5, True, "samples")])
    def test_cylinder_event_crosscheck_counts_must_be_integers(self, cantor, weighted,
                                                               n, samples, bad):
        with pytest.raises(ValueError, match=f"^{bad}: .* is not an integer"):
            cylinder_event_crosscheck(cantor, weighted, [(1,)], n, samples, 1)

    def test_cylinder_event_crosscheck_takes_integral_floats(self, cantor, weighted):
        assert (cylinder_event_crosscheck(cantor, weighted, [(1,)], 5.0, 100.0, 1)
                == cylinder_event_crosscheck(cantor, weighted, [(1,)], 5, 100, 1))

    def test_equalized_hit_probability_matches_quota_at_scale(self, cantor, weighted):
        # per-step hit frequency over 1e5 orbits must match the measure quota
        # psi(n) within 4 binomial sigmas for every n in [20, 60]
        N, S = 60, 100_000
        psi = PowerRadius(1.0, 0.5)
        depth = cantor.depth_for_diameter(1e-12)
        prec = cantor.diameter_bound(depth)
        radii = psi.values(np.arange(1, N + 1))
        freq = np.zeros(N)
        for i0 in range(0, S, 20_000):
            ids = range(i0, min(i0 + 20_000, S))
            block = sample_symbol_block(weighted, 424242, ids, N + depth)
            pos = project_windows(block, cantor, depth)
            dist = np.abs(pos[:, 1:] - pos[:, [0]])
            hit, _ = _quota_decider(weighted, pos[:, 0], prec, float(radii.min()), depth,
                                    45)(dist, radii)
            freq += hit.sum(axis=0)
        freq /= S
        for n in range(20, 61):
            p = radii[n - 1]
            sigma = math.sqrt(p * (1 - p) / S)
            assert abs(freq[n - 1] - p) < 4.0 * sigma, n

    def test_interval_quartet_hit_probability_matches_quadrature(self, quartet, density):
        # own-ball hit frequency vs an independent quadrature of the exact
        # ball-measure integrand over a separate sample namespace
        N, S, M = 60, 100_000, 20_000
        psi = PowerRadius(1.0, 0.5)
        radii = psi.values(np.arange(1, N + 1))
        depth = quartet.depth_for_diameter(float(radii.min()) / 1000.0)
        freq = np.zeros(N)
        for i0 in range(0, S, 20_000):
            ids = range(i0, min(i0 + 20_000, S))
            block = sample_symbol_block(density, 515151, ids, N + depth)
            pos = project_windows(block, quartet, depth)
            dist = np.abs(pos[:, 1:] - pos[:, [0]])
            freq += (dist <= radii[None, :]).sum(axis=0)
        freq /= S
        qblock = sample_symbol_block(density, 515151, range(1_000_000, 1_000_000 + M), depth)
        xs = project_windows(qblock, quartet, depth)[:, 0]
        for n in range(20, 61):
            r = radii[n - 1]
            vals = (np.log1p(np.clip(xs + r, 0, 1)) - np.log1p(np.clip(xs - r, 0, 1))) / LN2
            integral = float(vals.mean())
            sig_q = float(vals.std(ddof=1)) / math.sqrt(M)
            sig_mc = math.sqrt(max(integral * (1 - integral), 1e-12) / S)
            z = abs(freq[n - 1] - integral) / math.hypot(sig_mc, sig_q)
            assert z < 4.0, (n, z)
