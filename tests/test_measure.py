"""Tests for certified region measures, CDF fast paths, and inverse radii.

Oracle values are hand-derived:

* Middle-third Cantor CDF F(y) = mu([0, y]) obeys F = p1*F(3y) on [0, 1/3],
  F = p1 on the middle gap, and F = p1 + p2*F(3y - 2) on [2/3, 1]; balls whose
  endpoints land inside removed gaps therefore have exactly known measure.
* The interval family with CDF H(y) = log2(1 + y) gives closed-form ball
  measures H(min(1, x+r)) - H(max(0, x-r)).
* Sierpinski-gasket balls around the vertex (0, 0) of radius just under 0.5
  exclude the two far depth-1 pieces exactly, so the first branch weight
  bounds the measure from above.
"""

import functools
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfconformal import experiments, measure
from selfconformal.dynamics import project_windows, sample_symbol_block
from selfconformal.gibbs import (
    BernoulliBackend,
    ConformalPowerPotential,
    DensityBackend,
    SpectralBackend,
    eigen_solve,
)
from selfconformal.ifs import (_box_corners, _child_state, _initial_state, _state_apply,
                               _state_boxes, _to_coords, builtin_system, map_fixed_point,
                               system_from_json)
from selfconformal.measure import (
    INSIDE,
    OUTSIDE,
    STRADDLE,
    _classify_balls,
    AnnulusRegion,
    BallRegion,
    CertificationError,
    ConstantRadius,
    IntersectRegion,
    MeasureBracket,
    PowerLogRadius,
    PowerRadius,
    StripRegion,
    _CDF_WALK_CHUNK,
    annulus_measure,
    ball_measure,
    cantor_cdf_bracket,
    density_ratio_series,
    doubling_ratio,
    hyperplane_decay_probe,
    region_measure,
    t_n_radius,
)
from selfconformal.symbolic import as_point
from test_ifs import _ROTREF_SPEC

import exact_refs

LOG2 = math.log(2.0)


@pytest.fixture(scope="module")
def cantor_uniform():
    return BernoulliBackend(builtin_system("middle_third_cantor"), (0.5, 0.5))


@pytest.fixture(scope="module")
def cantor_weighted():
    return BernoulliBackend(builtin_system("middle_third_cantor"), (0.3, 0.7))


@pytest.fixture(scope="module")
def quartet_density():
    return DensityBackend(builtin_system("moebius_interval_quartet"), "reciprocal_log2")


@pytest.fixture(scope="module")
def quartet_spectral():
    system = builtin_system("moebius_interval_quartet")
    pot = ConformalPowerPotential(1.0)
    report = eigen_solve(system, pot, depth=8)
    return SpectralBackend(system, report, pot)


@pytest.fixture(scope="module")
def gasket_uniform():
    return BernoulliBackend(
        builtin_system("sierpinski_triangle"), (1 / 3, 1 / 3, 1 / 3)
    )


@pytest.fixture(scope="module")
def gasket_weighted():
    return BernoulliBackend(builtin_system("sierpinski_triangle"), (0.1, 0.8, 0.1))


# ---------------------------------------------------------------------------
# brackets and radius schedules
# ---------------------------------------------------------------------------


class TestBracketBasics:
    def test_width_midpoint_contains(self):
        br = MeasureBracket(0.25, 0.75)
        assert br.width == 0.5
        assert br.midpoint == 0.5
        assert br.contains(0.25) and br.contains(0.5) and br.contains(0.75)
        assert not br.contains(0.76)

    def test_inverted_bracket_rejected(self):
        with pytest.raises(ValueError):
            MeasureBracket(0.5, 0.2)

    def test_certification_error_carries_bracket(self):
        br = MeasureBracket(0.1, 0.9)
        err = CertificationError("too wide", br)
        assert err.bracket is br


class TestRadiusSchedules:
    def test_constant(self):
        psi = ConstantRadius(0.125)
        assert np.all(psi.values(np.array([1, 999])) == 0.125)
        assert np.all(psi.values(np.arange(1, 5)) == 0.125)

    def test_power_log_staircase(self):
        psi = PowerLogRadius(2.0)
        ns = np.arange(1, 200)
        vec = psi.values(ns)
        assert vec[0] == 1.0  # floor(2 ln 1) = 0
        assert vec[9] == 3.0 ** (-4)  # floor(2 ln 10) = floor(4.605..) = 4
        # exact powers of 3 that step down where 2 ln n crosses an integer
        steps = np.array([math.floor(2.0 * math.log(int(n))) for n in ns])
        np.testing.assert_array_equal(vec, 3.0 ** (-steps))

    def test_power(self):
        psi = PowerRadius(0.5, 1.5)
        np.testing.assert_allclose(
            psi.values(np.array([1, 4])), [0.5, 0.0625], atol=1e-15
        )


# ---------------------------------------------------------------------------
# region classification
# ---------------------------------------------------------------------------


def _one_box(lo, hi):
    return np.atleast_2d(np.asarray(lo, float)), np.atleast_2d(np.asarray(hi, float))


@pytest.mark.parametrize("call, message", [
    (lambda b: ball_measure(b, 0.2, math.nan), "radius must be positive"),
    (lambda b: doubling_ratio(b, 0.2, math.nan), "radius must be positive"),
    (lambda b: annulus_measure(b, 0.2, math.nan, 0.1), "r and rho must be positive"),
    (lambda b: annulus_measure(b, 0.2, 0.1, math.nan), "r and rho must be positive"),
    (lambda b: region_measure(b, BallRegion(as_point(0.2, 1), math.nan)),
     "radius must be positive"),
    (lambda b: AnnulusRegion(as_point(0.2, 1), math.nan, 0.1), "r and rho must be positive"),
    (lambda b: StripRegion((1.0,), 0.2, math.nan), "positive rho"),
    (lambda b: region_measure(b, StripRegion((1.0,), math.nan, 0.1)), "finite offset"),
    (lambda b: density_ratio_series(b, 0.2, ConstantRadius(math.nan), 1.0, 5),
     "radius must be positive"),
])
@pytest.mark.parametrize("system", ["middle_third_cantor", "moebius_interval_pair"])
def test_nan_radii_refused(call, message, system):
    # a NaN radius compares false against every box, so it would read as the
    # vacuous ball [0, 1]; the Cantor backend has a closed form, the pair
    # system goes through the pruner
    backend = BernoulliBackend(builtin_system(system), (0.3, 0.7))
    with pytest.raises(ValueError, match=message):
        call(backend)


class TestRegionClassify:
    def test_ball_inside_straddle_outside(self):
        from selfconformal.symbolic import as_point

        lo, hi = _one_box([0.0, 0.0], [0.1, 0.1])
        ball = BallRegion(as_point((0.0, 0.0), 2), 0.2)
        assert ball.classify(lo, hi)[0] == INSIDE  # far corner at dist ~0.1414
        ball = BallRegion(as_point((0.0, 0.0), 2), 0.1)
        assert ball.classify(lo, hi)[0] == STRADDLE
        ball = BallRegion(as_point((1.0, 1.0), 2), 0.5)
        assert ball.classify(lo, hi)[0] == OUTSIDE  # nearest corner at ~1.27

    def test_annulus_bands(self):
        from selfconformal.symbolic import as_point

        center = as_point((0.5,), 1)
        ann = AnnulusRegion(center, 0.3, 0.05)  # distance band (0.25, 0.35)
        lo, hi = _one_box([0.26], [0.34])  # distances in [0.16, 0.24]
        assert ann.classify(lo, hi)[0] == OUTSIDE
        lo, hi = _one_box([0.2], [0.3])  # distances in [0.2, 0.3]
        assert ann.classify(lo, hi)[0] == STRADDLE
        lo, hi = _one_box([0.16], [0.24])  # distances in [0.26, 0.34]
        assert ann.classify(lo, hi)[0] == INSIDE

    def test_strip_bands(self):
        strip = StripRegion((1.0, 0.0), 0.5, 0.1)
        lo, hi = _one_box([0.45, 0.0], [0.52, 1.0])
        assert strip.classify(lo, hi)[0] == INSIDE
        lo, hi = _one_box([0.55, 0.0], [0.7, 1.0])
        assert strip.classify(lo, hi)[0] == STRADDLE
        lo, hi = _one_box([0.75, 0.0], [0.9, 1.0])
        assert strip.classify(lo, hi)[0] == OUTSIDE

    def test_strip_normalizes_normal(self):
        # (2, 0) with offset 1.0 is the same strip as (1, 0) with offset 0.5
        a = StripRegion((2.0, 0.0), 1.0, 0.1)
        b = StripRegion((1.0, 0.0), 0.5, 0.1)
        lo, hi = _one_box([0.45, 0.0], [0.52, 1.0])
        assert a.classify(lo, hi)[0] == b.classify(lo, hi)[0] == INSIDE

    def test_intersection_votes(self):
        from selfconformal.symbolic import as_point

        ball = BallRegion(as_point((0.0, 0.0), 2), 0.2)
        strip = StripRegion((1.0, 0.0), 0.5, 0.1)
        region = IntersectRegion([ball, strip])
        lo, hi = _one_box([0.0, 0.0], [0.1, 0.1])
        # inside the ball but outside the strip -> outside the intersection
        assert region.classify(lo, hi)[0] == OUTSIDE

    def test_validation(self):
        from selfconformal.symbolic import as_point

        with pytest.raises(ValueError):
            BallRegion(as_point((0.0,), 1), 0.0)
        with pytest.raises(ValueError):
            AnnulusRegion(as_point((0.0,), 1), 0.3, -1.0)
        with pytest.raises(ValueError):
            StripRegion((0.0, 0.0), 0.1, 0.1)
        with pytest.raises(ValueError):
            IntersectRegion([])


# ---------------------------------------------------------------------------
# Cantor CDF walk
# ---------------------------------------------------------------------------


class TestCantorCdf:
    # (p1, p2, y, exact F(y)) from the self-similar recursion
    ORACLES = [
        (0.5, 0.5, 0.0, 0.0),
        (0.5, 0.5, 1.0, 1.0),
        (0.5, 0.5, 1 / 3, 0.5),
        (0.5, 0.5, 0.5, 0.5),
        (0.5, 0.5, 2 / 3, 0.5),
        (0.5, 0.5, 1 / 9, 0.25),
        (0.5, 0.5, 2 / 9, 0.25),
        (0.5, 0.5, 7 / 9, 0.75),
        (0.3, 0.7, 1 / 3, 0.3),
        (0.3, 0.7, 0.5, 0.3),
        (0.3, 0.7, 1 / 9, 0.09),
        (0.3, 0.7, 2 / 9, 0.09),
        (0.3, 0.7, 7 / 9, 0.51),
    ]

    @pytest.mark.parametrize("p1,p2,y,expected", ORACLES)
    def test_oracle_values(self, p1, p2, y, expected):
        lo, hi = cantor_cdf_bracket((p1, p2), y)
        assert lo[0] - 1e-15 <= expected <= hi[0] + 1e-15
        assert hi[0] - lo[0] < 1e-15

    def test_gap_point_has_zero_width(self):
        lo, hi = cantor_cdf_bracket((0.5, 0.5), 0.5)
        assert hi[0] - lo[0] == 0.0

    def test_vectorized_matches_scalar(self):
        ys = np.linspace(-0.1, 1.1, 57)
        lo, hi = cantor_cdf_bracket((0.3, 0.7), ys)
        for i, y in enumerate(ys):
            slo, shi = cantor_cdf_bracket((0.3, 0.7), y)
            assert lo[i] == slo[0] and hi[i] == shi[0]

    @given(
        a=st.floats(min_value=-0.1, max_value=1.1),
        b=st.floats(min_value=-0.1, max_value=1.1),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone(self, a, b):
        a, b = min(a, b), max(a, b)
        lo, hi = cantor_cdf_bracket((0.3, 0.7), np.array([a, b]))
        assert lo[0] <= hi[1] + 1e-15  # F(a) <= F(b) through the brackets


def _reference_cantor_cdf_bracket(probs, y):
    """The full-size masked digit walk, every point through every level: the
    chunked, compacting ``cantor_cdf_bracket`` must reproduce its bits."""
    p1, p2 = float(probs[0]), float(probs[1])
    y = np.atleast_1d(np.asarray(y, dtype=float))
    acc = np.zeros(y.shape)
    a = np.zeros(y.shape)
    s = np.ones(y.shape)
    w = np.ones(y.shape)
    active = np.ones(y.shape, dtype=bool)
    # y outside [0, 1]
    below = y <= 0.0
    above = y >= 1.0
    active &= ~(below | above)
    acc[above] = 1.0
    w[~active] = 0.0
    for _ in range(60):
        if not active.any():
            break
        rel = np.zeros(y.shape)
        rel[active] = (y[active] - a[active]) / s[active]
        right = active & (rel >= 2.0 / 3.0)
        gap = active & (rel >= 1.0 / 3.0) & (rel < 2.0 / 3.0)
        left = active & (rel < 1.0 / 3.0)
        acc[right] += w[right] * p1
        a[right] += 2.0 / 3.0 * s[right]
        w[right] *= p2
        acc[gap] += w[gap] * p1
        w[gap] = 0.0
        active &= ~gap
        w[left] *= p1
        s[active] /= 3.0
    return acc, acc + w


def _walk_inputs(probs):
    rng = np.random.default_rng(8)
    backend = BernoulliBackend(builtin_system("middle_third_cantor"), probs)
    points = project_windows(sample_symbol_block(backend, 8, range(40), 90),
                             backend.system, 40).ravel()
    radii = 10.0 ** rng.uniform(-14.0, -0.5, points.size)
    cylinder_ends = np.concatenate([np.arange(3 ** j + 1) / 3 ** j for j in range(1, 9)])
    return {
        "projected points +- radii": np.concatenate([points - radii, points + radii]),
        "cylinder endpoints k/3^j": cylinder_ends,
        "outside [0, 1] and infinities": np.array([-2.0, -1e-300, 0.0, -0.0, 1.0, 1.5,
                                                   -np.inf, np.inf]),
        "NaN": np.array([0.4, np.nan, 0.9, np.nan]),
        "0-d scalar": np.float64(0.25),
        "2-D array": rng.uniform(-0.1, 1.1, (37, 19)),
        "empty": np.empty(0),
        "chunk - 1": rng.random(_CDF_WALK_CHUNK - 1),
        "chunk": rng.random(_CDF_WALK_CHUNK),
        "chunk + 1": rng.random(_CDF_WALK_CHUNK + 1),
        "3 chunks + 5": rng.uniform(-0.1, 1.1, 3 * _CDF_WALK_CHUNK + 5),
    }


class TestCantorCdfWalkBits:
    @pytest.mark.parametrize("probs", [(0.3, 0.7), (0.5, 0.5), (0.2, 0.8)])
    def test_matches_full_size_walk_bit_for_bit(self, probs):
        for name, y in _walk_inputs(probs).items():
            lo, hi = cantor_cdf_bracket(probs, y)
            ref_lo, ref_hi = _reference_cantor_cdf_bracket(probs, y)
            assert lo.shape == ref_lo.shape and hi.shape == ref_hi.shape, name
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi), name
        lo, hi = cantor_cdf_bracket(probs, np.nan)
        assert lo[0] == 0.0 and hi[0] == 1.0  # vacuous, but still certified

    def test_peak_memory_is_bounded_by_the_output(self):
        # the two output arrays take 2 * y.nbytes; the walk's own temporaries
        # must stay a chunk's worth, whatever the input size
        y = np.random.default_rng(9).uniform(-0.05, 1.05, 2_000_000)
        tracemalloc.start()
        try:
            cantor_cdf_bracket((0.3, 0.7), y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * y.nbytes


def _reference_closed_form_mass(backend, centers, radii):
    """Every ball's closed-form bracket from one CDF call on all the ends."""
    radii = np.asarray(radii, dtype=float)
    centers = np.broadcast_to(np.asarray(centers, dtype=float), radii.shape)
    flo, fhi = measure._closed_form(backend)(
        np.concatenate([(centers - radii).ravel(), (centers + radii).ravel()]))
    half = radii.size
    lo = np.maximum(flo[half:] - fhi[:half], 0.0)
    hi = np.maximum(fhi[half:] - flo[:half], 0.0)
    return lo.reshape(radii.shape), hi.reshape(radii.shape)


def _window_balls(backend, rows=50, cols=2621):
    """An engine-sized window's inner balls: each row's start point as the
    center, the distances of its next ``cols`` orbit points as radii."""
    depth = 20
    pos = project_windows(sample_symbol_block(backend, 4, range(rows), cols + depth),
                          backend.system, depth)
    centers = pos[:, :1]
    return centers, np.maximum(np.abs(pos[:, 1:] - centers) - 1e-9, 0.0)


_ORACLE_BACKENDS = {
    "cantor": lambda: BernoulliBackend(builtin_system("middle_third_cantor"), (0.3, 0.7)),
    "density": lambda: DensityBackend(builtin_system("moebius_interval_quartet"),
                                      "reciprocal_log2"),
}


class TestClosedFormOracleBlocks:
    @pytest.mark.parametrize("name", sorted(_ORACLE_BACKENDS))
    def test_brackets_match_one_call_on_all_ends(self, name):
        backend = _ORACLE_BACKENDS[name]()
        rng = np.random.default_rng(6)
        centers, radii = _window_balls(backend, rows=7, cols=3 * _CDF_WALK_CHUNK // 4 + 5)
        cases = [
            (centers, radii),  # a broadcast column of centers over blocks and a tail
            (centers[0, 0], radii[0]),  # one center for many balls
            (rng.uniform(-0.1, 1.1, 300), rng.uniform(0.0, 0.4, 300)),
            (0.5, np.array([0.0, 1e-15, 0.25, 2.0])),
            (0.25, np.empty((0, 3))),
        ]
        for c, r in cases:
            lo, hi = measure._radial_mass(backend, c, r, 40)
            ref_lo, ref_hi = _reference_closed_form_mass(backend, c, r)
            assert lo.shape == ref_lo.shape and hi.shape == ref_hi.shape
            assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)

    @pytest.mark.parametrize("name, one_call_mib", [("cantor", 6.70), ("density", 4.00)])
    def test_window_temporaries_stay_within_half_of_one_call(self, name, one_call_mib):
        """Traced above the two output arrays, an engine-sized window's balls
        take at most half of what one CDF call on all their ends took."""
        backend = _ORACLE_BACKENDS[name]()
        centers, radii = _window_balls(backend)
        tracemalloc.start()
        try:
            lo, hi = measure._radial_mass(backend, centers, radii, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - lo.nbytes - hi.nbytes <= one_call_mib / 2 * 2 ** 20


# ---------------------------------------------------------------------------
# ball measures: gap-exact oracles through both routes
# ---------------------------------------------------------------------------

# Balls on the uniform middle-third Cantor measure whose endpoints fall in
# removed gaps, so the measure is an exact dyadic rational.
GAP_BALL_ORACLES = [
    (0.0, 5 / 9, 0.5),  # [.., 5/9), 5/9 in gap (1/3, 2/3): F = 1/2
    (1.0, 5 / 9, 0.5),  # (4/9, ..], 4/9 in gap: 1 - 1/2
    (0.25, 5 / 9, 0.75),  # right end 29/36 in gap (7/9, 8/9): F = 3/4
    (0.75, 5 / 9, 0.75),  # left end 7/36 in gap (1/9, 2/9): 1 - 1/4
    (0.25, 1 / 9, 0.25),  # ends 5/36 and 13/36 both in gaps: 1/2 - 1/4
    (0.75, 1 / 9, 0.25),  # ends 23/36 and 31/36 both in gaps: 3/4 - 1/2
]


class TestBallMeasureCantor:
    @pytest.mark.parametrize("x,r,expected", GAP_BALL_ORACLES)
    def test_fast_path_exact(self, cantor_uniform, x, r, expected):
        br = ball_measure(cantor_uniform, x, r)
        assert br.contains(expected)
        assert br.width < 1e-15

    @pytest.mark.parametrize("x,r,expected", GAP_BALL_ORACLES)
    def test_pruner_route_exact(self, cantor_uniform, x, r, expected):
        br = region_measure(cantor_uniform, BallRegion(as_point(x), r), 30)
        # gap endpoints separate from the attractor, so the straddle
        # frontier empties and the pruner terminates with an exact value
        assert br.width < 1e-12
        assert br.contains(expected)

    def test_whole_space_ball(self, cantor_uniform):
        br = ball_measure(cantor_uniform, 0.5, 2.0)
        assert br.contains(1.0) and br.width < 1e-12

    def test_disjoint_ball(self, cantor_uniform):
        br = region_measure(cantor_uniform, BallRegion(as_point(0.5), 0.05), 20)
        # (0.45, 0.55) sits inside the central gap
        assert br.lower == 0.0 and br.upper == 0.0

    def test_weighted_routes_agree(self, cantor_weighted):
        rng = np.random.default_rng(20260823)
        for _ in range(12):
            digits = rng.integers(0, 2, size=35)
            x = float(np.sum(2.0 * digits * 3.0 ** -np.arange(1, 36)))
            r = float(rng.uniform(0.02, 0.7))
            fast = ball_measure(cantor_weighted, x, r)
            prune = region_measure(cantor_weighted, BallRegion(as_point(x), r), 26)
            assert max(fast.lower, prune.lower) <= min(fast.upper, prune.upper) + 1e-12
            assert abs(fast.midpoint - prune.midpoint) < 1e-4


class TestBallMeasureDensity:
    def test_closed_form_center(self, quartet_density):
        # H(0.75) - H(0.25) with H(y) = log2(1 + y)
        br = ball_measure(quartet_density, 0.5, 0.25)
        assert br.width == 0.0
        assert br.midpoint == pytest.approx(0.48542682717024176, abs=1e-14)

    def test_closed_form_edge_clip(self, quartet_density):
        br = ball_measure(quartet_density, 0.0, 0.3)
        assert br.midpoint == pytest.approx(0.37851162325372981, abs=1e-14)

    def test_pruner_brackets_closed_form(self, quartet_density):
        br = region_measure(quartet_density, BallRegion(as_point(0.5), 0.25), 14)
        assert br.contains(0.48542682717024176)
        assert br.width < 1e-5

    def test_spectral_brackets_closed_form(self, quartet_spectral):
        br = ball_measure(quartet_spectral, 0.5, 0.25, depth_budget=8)
        assert br.contains(0.48542682717024176)
        assert br.width < 1e-3

    def test_spectral_depth_guard(self, quartet_spectral):
        from selfconformal.symbolic import as_point

        with pytest.raises(ValueError):
            region_measure(
                quartet_spectral, BallRegion(as_point((0.5,), 1), 0.25), depth_budget=9
            )

    def test_descent_past_the_table_takes_the_shared_refusal(self):
        # the descent and the level tables refuse a level past the table alike
        system = builtin_system("moebius_interval_quartet")
        pot = ConformalPowerPotential(1.0)
        shallow = SpectralBackend(system, eigen_solve(system, pot, depth=6), pot)
        with pytest.raises(ValueError, match=r"^level 7 is beyond the spectral table depth 6$"):
            region_measure(shallow, BallRegion(as_point(0.5), 0.25), depth_budget=7)

    @given(
        x=st.floats(min_value=-0.2, max_value=1.2),
        r=st.floats(min_value=0.02, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_fast_and_pruned_overlap(self, quartet_density, x, r):
        fast = ball_measure(quartet_density, x, r)
        prune = region_measure(quartet_density, BallRegion(as_point(x), r), 12)
        assert max(fast.lower, prune.lower) <= min(fast.upper, prune.upper) + 1e-12

    @given(
        r1=st.floats(min_value=0.01, max_value=1.0),
        r2=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_radius(self, quartet_density, r1, r2):
        r1, r2 = min(r1, r2), max(r1, r2)
        b1 = ball_measure(quartet_density, 0.4, r1)
        b2 = ball_measure(quartet_density, 0.4, r2)
        assert b1.upper <= b2.upper + 1e-15

    def test_deeper_budget_nests(self, cantor_weighted):
        ball = BallRegion(as_point(0.21), 0.17)
        shallow = region_measure(cantor_weighted, ball, 6)
        deep = region_measure(cantor_weighted, ball, 16)
        assert deep.lower >= shallow.lower - 1e-12
        assert deep.upper <= shallow.upper + 1e-12

    def test_validation(self, quartet_density):
        with pytest.raises(ValueError):
            ball_measure(quartet_density, 0.5, 0.0)


class TestBallMeasureGasket:
    def test_vertex_ball_excludes_far_pieces(self, gasket_uniform):
        # B((0,0), 0.49): the two far depth-1 pieces are at distance >= 0.5,
        # so the mass is at most the first branch weight 1/3, and all but a
        # sliver near that piece's far corners is inside.
        br = ball_measure(gasket_uniform, (0.0, 0.0), 0.49, depth_budget=14)
        assert br.upper <= 1 / 3 + 1e-12
        assert br.lower >= 1 / 3 - 5e-3
        assert br.width < 5e-3

    def test_vertex_ball_weighted(self, gasket_weighted):
        # The excluded sliver of the near piece hugs its far corner, whose
        # cell chain carries weight 0.8 per level here.  Hand bounds: the
        # depth-7 corner cell lies fully beyond 0.49 (mass 0.1 * 0.8^7
        # excluded), while everything outside the depth-4 corner cell and the
        # apex chain stays inside (exclusion at most 0.1 * (0.8^4 + 2e-3)).
        br = ball_measure(gasket_weighted, (0.0, 0.0), 0.49, depth_budget=14)
        assert br.upper <= 0.1 * (1.0 - 0.8**7) + 1e-12
        assert br.lower >= 0.1 * (1.0 - 0.8**4 - 2e-3)
        assert br.width < 1e-3

    def test_covering_ball_is_exact(self, gasket_uniform):
        br = ball_measure(gasket_uniform, (0.0, 0.0), 1.01, depth_budget=10)
        assert br.lower == 1.0 and br.upper == 1.0


# ---------------------------------------------------------------------------
# annuli
# ---------------------------------------------------------------------------


class TestAnnulus:
    @pytest.mark.parametrize("rho", [0.01, 0.03])
    def test_window_matches_shifted_ball(self, cantor_uniform, rho):
        # around x = 0.7 with r = 0.4 the outer window (1.1 - rho, 1.1 + rho)
        # misses [0, 1], so the annulus is exactly the ball B(0.3, rho)
        ann = annulus_measure(cantor_uniform, 0.7, 0.4, rho)
        ball = ball_measure(cantor_uniform, 0.3, rho)
        assert abs(ann.midpoint - ball.midpoint) < 1e-12
        assert ann.width < 1e-12

    def test_pruned_route_consistent(self, cantor_uniform):
        ann = annulus_measure(cantor_uniform, 0.7, 0.4, 0.03)
        pruned = region_measure(cantor_uniform, AnnulusRegion(as_point(0.7), 0.4, 0.03), 24)
        assert max(ann.lower, pruned.lower) <= min(ann.upper, pruned.upper) + 1e-12

    def test_fat_annulus_equals_outer_ball(self, cantor_uniform):
        # rho >= r: the inner constraint is vacuous for an atomless measure
        ann = annulus_measure(cantor_uniform, 0.5, 0.1, 0.5)
        ball = ball_measure(cantor_uniform, 0.5, 0.6)
        assert abs(ann.midpoint - ball.midpoint) < 1e-15

    def test_validation(self, cantor_uniform):
        with pytest.raises(ValueError):
            annulus_measure(cantor_uniform, 0.5, -0.1, 0.05)
        with pytest.raises(ValueError):
            annulus_measure(cantor_uniform, 0.5, 0.1, 0.0)


# ---------------------------------------------------------------------------
# inverse radius
# ---------------------------------------------------------------------------


class TestInverseRadius:
    # inf{r : mu(B(x, r)) >= target} from the CDF recursion
    CANTOR_CASES = [
        (0.5, 0.5, 0.0, 0.50, 1 / 3),
        (0.5, 0.5, 0.0, 0.25, 1 / 9),
        (0.5, 0.5, 0.0, 0.75, 7 / 9),
        (0.5, 0.5, 1.0, 0.50, 1 / 3),
        (0.3, 0.7, 0.0, 0.30, 1 / 3),
        (0.3, 0.7, 0.0, 0.09, 1 / 9),
        (0.3, 0.7, 0.0, 0.51, 7 / 9),
    ]

    @pytest.mark.parametrize("p1,p2,x,target,expected", CANTOR_CASES)
    def test_cantor_inverse_radii(self, p1, p2, x, target, expected):
        backend = BernoulliBackend(builtin_system("middle_third_cantor"), (p1, p2))
        t = t_n_radius(backend, x, target, tol=1e-3)
        assert abs(t - expected) < 1e-9

    def test_density_inverse_radius(self, quartet_density):
        # H(r) = 1/2 at r = sqrt(2) - 1
        t = t_n_radius(quartet_density, 0.0, 0.5, tol=1e-9)
        assert abs(t - 0.41421356237309505) < 1e-9
        t = t_n_radius(quartet_density, 0.0, 0.32192809488736235, tol=1e-9)
        assert abs(t - 0.25) < 1e-9

    def test_target_above_mass_returns_diameter(self, cantor_uniform):
        assert t_n_radius(cantor_uniform, 0.0, 1.0, tol=1e-6) == 1.0

    def test_bisection_guard_raises(self, cantor_uniform, monkeypatch):
        # pinning to 1e-12 needs about 40 halvings, so 3 steps hit the guard
        monkeypatch.setattr(measure, "_BISECTION_STEPS", 3)
        with pytest.raises(CertificationError, match="bisection exceeded 3 steps"):
            t_n_radius(cantor_uniform, 0.0, 0.5, tol=1e-3)

    def test_certified_measure_at_radius(self, cantor_weighted):
        t = t_n_radius(cantor_weighted, 0.1, 0.4, tol=1e-3)
        br = ball_measure(cantor_weighted, 0.1, t)
        assert br.lower >= 0.4 - 1e-3 and br.upper <= 0.4 + 1e-3

    def test_center_lipschitz(self, cantor_weighted):
        rng = np.random.default_rng(7)
        for _ in range(40):
            digits = rng.integers(0, 2, size=35)
            x = float(np.sum(2.0 * digits * 3.0 ** -np.arange(1, 36)))
            dx = float(rng.uniform(-1e-6, 1e-6))
            target = float(rng.uniform(0.05, 0.95))
            t0 = t_n_radius(cantor_weighted, x, target, tol=1e-3)
            t1 = t_n_radius(cantor_weighted, x + dx, target, tol=1e-3)
            assert abs(t0 - t1) <= abs(dx) + 1e-9

    def test_wide_bracket_raises(self, quartet_spectral):
        with pytest.raises(CertificationError):
            t_n_radius(quartet_spectral, 0.5, 0.431, tol=1e-9, depth_budget=8)

    def test_validation(self, cantor_uniform):
        with pytest.raises(ValueError):
            t_n_radius(cantor_uniform, 0.0, 0.5, tol=0.0)
        with pytest.raises(ValueError):
            t_n_radius(cantor_uniform, 0.0, -0.5, tol=1e-6)

    @pytest.mark.parametrize("target, tol, bad", [
        (math.nan, 1e-6, "target"), (0.5, math.nan, "tol"), (0.5, math.inf, "tol"),
    ])
    def test_non_finite_inputs_refused_before_bisection(self, cantor_uniform, monkeypatch,
                                                        target, tol, bad):
        def refuse(*args, **kwargs):
            raise AssertionError("bisected before refusing the input")

        monkeypatch.setattr(measure, "ball_measure", refuse)
        with pytest.raises(ValueError, match=bad):
            t_n_radius(cantor_uniform, 0.0, target, tol=tol)


# ---------------------------------------------------------------------------
# derived series and probes
# ---------------------------------------------------------------------------


class TestDerivedSeries:
    def test_density_ratio_tends_to_density_value(self, quartet_density):
        # mu(B(0, r)) / r = log2(1 + r) / r -> 1/ln 2 as r -> 0
        out = density_ratio_series(quartet_density, 0.0, PowerRadius(1.0, 0.5), 1.0, 400)
        assert out["n"][0] == 1 and out["n"][-1] == 400
        assert not out["flagged"].any()
        assert abs(out["values"][-1] - 1.4426950408889634) / 1.4426950408889634 < 0.03

    def test_staircase_radii_share_values(self, cantor_uniform):
        out = density_ratio_series(
            cantor_uniform, 0.0, PowerLogRadius(1.0), math.log(2) / math.log(3), 50
        )
        vals = out["values"]
        # n = 3 and n = 4 share floor(ln n) = 1, hence the same radius/value
        assert vals[2] == vals[3]
        assert np.isfinite(vals).all()

    def test_doubling_ratio_density(self, quartet_density):
        # H(0.4)/H(0.2)
        ratio = doubling_ratio(quartet_density, 0.0, 0.2)
        assert ratio == pytest.approx(1.8454879529219202, abs=1e-12)

    def test_doubling_ratio_cantor_scales(self, cantor_uniform):
        # F(10/27) = 1/2 and F(5/27) = 1/4: exact ratio 2
        assert doubling_ratio(cantor_uniform, 0.0, 5 / 27) == pytest.approx(2.0, abs=1e-12)
        # plateau: F(2/9) = F(1/9) = 1/4
        assert doubling_ratio(cantor_uniform, 0.0, 1 / 9) == pytest.approx(1.0, abs=1e-12)


class TestGasketStripAndProbe:
    def test_strip_measure_envelope(self, gasket_uniform):
        # mass with height < 0.05: words with no top symbol in the first five
        # positions all qualify ((2/3)^5), any top symbol in the first three
        # positions lifts the cell above 0.054 ((2/3)^3 upper bound)
        br = region_measure(gasket_uniform, StripRegion((0.0, 1.0), 0.0, 0.05), 12)
        assert br.lower >= (2 / 3) ** 5 - 1e-9
        assert br.upper <= (2 / 3) ** 3 + 1e-9
        assert br.width < 0.05

    def test_intersection_bounded_by_parts(self, gasket_uniform):
        from selfconformal.symbolic import as_point

        strip = StripRegion((0.0, 1.0), 0.0, 0.05)
        ball = BallRegion(as_point((0.0, 0.0), 2), 0.3)
        both = region_measure(gasket_uniform, IntersectRegion([strip, ball]), 12)
        only_strip = region_measure(gasket_uniform, strip, 12)
        only_ball = region_measure(gasket_uniform, ball, 12)
        assert both.upper <= min(only_strip.upper, only_ball.upper) + 1e-12

    def test_probe_ratio_ordering(self, gasket_uniform):
        out = hyperplane_decay_probe(
            gasket_uniform, (0.5, 0.0), 0.3, 0.1, (1.0, 0.0), 0.5, depth_budget=12
        )
        assert 0.0 <= out["ratio_low"] <= out["ratio_mid"] <= out["ratio_high"]
        assert out["numerator"].upper <= out["denominator"].upper + 1e-12

    def test_probe_empty_ball_raises(self, gasket_uniform):
        # (0.5, 0.02) is 0.02 above the bottom edge; a 0.005 ball misses K
        with pytest.raises(CertificationError):
            hyperplane_decay_probe(
                gasket_uniform, (0.5, 0.02), 0.005, 0.1, (1.0, 0.0), 0.5, depth_budget=12
            )

    def test_region_measure_depth_validation(self, gasket_uniform):
        with pytest.raises(ValueError):
            region_measure(gasket_uniform, StripRegion((0.0, 1.0), 0.0, 0.05), 0)


# ---------------------------------------------------------------------------
# the batched cylinder descent
# ---------------------------------------------------------------------------


def _per_ball_descent(backend, center, r, depth_budget):
    """The one-ball-at-a-time pruner the batched descent replaced: its
    brackets are the reference bits on the line."""
    system = backend.system
    ball = BallRegion(as_point(tuple(np.atleast_1d(center)), system.dim), float(r))
    box = system.attractor_box
    state = _initial_state(system)
    masses, idx = np.array([1.0]), np.array([0], dtype=np.int64)
    cls = ball.classify(*_state_boxes(system, state, box))[0]
    if cls != STRADDLE:
        return (1.0, 1.0) if cls == INSIDE else (0.0, 0.0)
    inside = 0.0
    for level in range(1, depth_budget + 1):
        parts = []
        for j in range(1, system.m + 1):
            cs = _child_state(system, state, j)
            ci = idx * system.m + (j - 1)
            lo, hi = _state_boxes(system, cs, box)
            cm = measure._child_masses(backend, masses, ci, level, j, lo, hi)
            c = ball.classify(lo, hi)
            inside += float(cm[c == INSIDE].sum())
            keep = c == STRADDLE
            parts.append(([col[keep] for col in cs], cm[keep], ci[keep]))
        state = [np.concatenate(cols) for cols in zip(*(p[0] for p in parts))]
        masses = np.concatenate([p[1] for p in parts])
        idx = np.concatenate([p[2] for p in parts])
        straddle = float(masses.sum())
        if masses.size > measure._NODE_CAP or straddle < 1e-18:
            break
    upper = min(max(inside + straddle, 0.0), 1.0)
    return min(min(max(inside, 0.0), 1.0), upper), upper


def _random_balls(system, n, seed):
    rng = np.random.default_rng(seed)
    box = system.attractor_box
    centers = np.column_stack([rng.uniform(lo - 0.1, hi + 0.1, n)
                               for lo, hi in zip(box.lo, box.hi)])
    radii = np.exp(rng.uniform(math.log(1e-4), math.log(0.5), n))
    return (centers[:, 0] if system.dim == 1 else centers), radii


def _reference_hull(system, state, box):
    """Each row's hull from all corner images at once: the hull before the
    corners were folded into ``lo`` and ``hi`` one at a time."""
    pts = [_to_coords(_state_apply(system, state, z)) for z in _box_corners(box)]
    lo, hi = functools.reduce(np.minimum, pts), functools.reduce(np.maximum, pts)
    return lo.reshape(len(lo), system.dim), hi.reshape(len(hi), system.dim)


def _reference_descend(backend, classify, n, depth_budget, log=None):
    """The descent that built each level whole before it retired regions:
    every branch's straddlers join one frontier, which is argsorted by
    owner, summed per owner and then cut to the regions that go on.  Its
    brackets are the reference bits.  ``log`` receives, per level, the rows
    built, the rows kept and the number of regions over the node cap."""
    system = backend.system
    lower, upper = np.zeros(n), np.zeros(n)
    root = _initial_state(system)
    lo, hi = _reference_hull(system, root, system.attractor_box)
    owner = np.arange(n)
    cls = classify(np.repeat(lo, n, axis=0), np.repeat(hi, n, axis=0), owner)
    lower[cls == INSIDE] = upper[cls == INSIDE] = 1.0
    owner = owner[cls == STRADDLE]
    inside, straddle, count = np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64)
    select = measure._select_rows
    groups = [([*(np.repeat(c, owner.size) for c in root), np.ones(owner.size),
                np.zeros(owner.size, dtype=np.int64), owner], 0)]
    while groups:
        frontier, level = groups.pop()
        while frontier[-1].size:
            *state, masses, idx, owner = frontier
            if system.m * owner.size > measure._NODE_CAP and owner[0] != owner[-1]:
                cut = measure._group_cut(owner)
                groups.append((select(frontier, slice(cut, None)), level))
                frontier = select(frontier, slice(cut))
                continue
            level += 1
            prev = owner[measure._owner_starts(owner)]
            parts = []
            for j in range(1, system.m + 1):
                cs = _child_state(system, state, j)
                ci = idx * system.m + (j - 1)
                lo, hi = _reference_hull(system, cs, system.attractor_box)
                cm = measure._child_masses(backend, masses, ci, level, j, lo, hi)
                cls = classify(lo, hi, owner)
                ins = cls == INSIDE
                if ins.any():
                    ids, _, sums = measure._segment_sums(cm[ins], owner[ins])
                    inside[ids] += sums
                parts.append(select([*cs, cm, ci, owner], cls == STRADDLE))
            frontier = [np.concatenate(cols) for cols in zip(*parts)]
            frontier = select(frontier, np.argsort(frontier[-1], kind="stable"))
            masses, owner = frontier[-3], frontier[-1]
            straddle[prev] = 0.0
            count[prev] = 0
            if owner.size:
                ids, counts, sums = measure._segment_sums(masses, owner)
                straddle[ids] = sums
                count[ids] = counts
            capped = count[prev] > measure._NODE_CAP
            done = prev[capped | (straddle[prev] < 1e-18) | (level >= depth_budget)]
            hi_done = np.clip(inside[done] + straddle[done], 0.0, 1.0)
            upper[done] = hi_done
            lower[done] = np.minimum(np.clip(inside[done], 0.0, 1.0), hi_done)
            built = owner.size
            if done.size:
                frontier = select(frontier, ~np.isin(owner, done))
            if log is not None:
                log.append((built, frontier[-1].size, int(capped.sum())))
    return lower, upper


def _balls(centers, radii):
    """``classify(lo, hi, owner)`` of the radial-mass oracle's balls."""
    c = np.asarray(centers, dtype=float).reshape(len(radii), -1)
    return lambda lo, hi, owner: _classify_balls(c[owner], radii[owner], lo, hi)


def _regions(regions):
    """``classify(lo, hi, owner)`` that sorts each owner's rows against its own region."""
    def classify(lo, hi, owner):
        out = np.empty(owner.size, dtype=np.int8)
        for k in np.unique(owner):
            rows = owner == k
            out[rows] = regions[k].classify(lo[rows], hi[rows])
        return out
    return classify


def _capped_gasket_ball():
    """The ball of ``test_capped_gasket_ball_keeps_a_certified_bracket``: its
    frontier passes the node cap before level 40."""
    row = experiments.gasket_tangency_doubling_bracket((0.1, 0.8, 0.1), 2)
    backend = BernoulliBackend(builtin_system("sierpinski_triangle"), (0.1, 0.8, 0.1))
    return backend, _balls(row["center"], np.array([row["radius"]]))


class TestBatchedDescent:
    @pytest.fixture(scope="class")
    def line_backends(self, quartet_spectral):
        pair = builtin_system("moebius_interval_pair")
        quartet = builtin_system("moebius_interval_quartet")
        return {
            "pair": (BernoulliBackend(pair, (0.3, 0.7)), 45),
            "quartet": (BernoulliBackend(quartet, (0.1, 0.2, 0.3, 0.4)), 45),
            "quartet_spectral": (quartet_spectral, 8),
        }

    @pytest.mark.parametrize("name", ["pair", "quartet", "quartet_spectral"])
    def test_line_batch_equals_per_ball_descent(self, line_backends, name):
        backend, budget = line_backends[name]
        centers, radii = _random_balls(backend.system, 60, 41)
        lo, hi = measure._radial_mass(backend, centers, radii, budget)
        for i in range(radii.size):
            ref = _per_ball_descent(backend, centers[i], radii[i], budget)
            assert (lo[i], hi[i]) == ref, (name, i)

    @pytest.mark.parametrize("name, budget", [("moebius_interval_pair", 45),
                                              ("sierpinski_triangle", 12)])
    def test_ball_alone_equals_ball_in_batch(self, name, budget, monkeypatch):
        system = builtin_system(name)
        backend = BernoulliBackend(system, np.full(system.m, 1.0 / system.m))
        centers, radii = _random_balls(system, 500, 43)
        # a small cap makes the batch cut its groups and stops some balls early
        monkeypatch.setattr(measure, "_NODE_CAP", 1 << 9)
        lo, hi = measure._radial_mass(backend, centers, radii, budget)
        for i in range(0, 500, 25):
            one_lo, one_hi = measure._radial_mass(backend, centers[i:i + 1], radii[i:i + 1],
                                                  budget)
            assert (one_lo[0], one_hi[0]) == (lo[i], hi[i]), i

    @pytest.mark.parametrize("name", ["moebius_interval_pair", "sierpinski_triangle"])
    def test_empty_batch_and_balls_decided_at_the_root(self, name):
        system = builtin_system(name)
        backend = BernoulliBackend(system, np.full(system.m, 1.0 / system.m))
        shape = (0,) if system.dim == 1 else (0, 2)
        lo, hi = measure._radial_mass(backend, np.zeros(shape), np.zeros(0), 45)
        assert lo.shape == hi.shape == (0,)
        far = np.full(system.dim, 100.0) if system.dim == 2 else 100.0
        near = np.zeros(system.dim) if system.dim == 2 else 0.0
        centers = np.array([far, near, far])
        lo, hi = measure._radial_mass(backend, centers, np.array([1.0, 10.0, 0.5]), 45)
        assert lo.tolist() == [0.0, 1.0, 0.0] and hi.tolist() == [0.0, 1.0, 0.0]

    def test_capped_gasket_ball_keeps_a_certified_bracket(self):
        # the frontier of this ball passes the node cap before level 40, so
        # budgets 40 and 45 stop at the same level with a nonzero straddle
        row = experiments.gasket_tangency_doubling_bracket((0.1, 0.8, 0.1), 2)
        backend = BernoulliBackend(builtin_system("sierpinski_triangle"), (0.1, 0.8, 0.1))
        capped = ball_measure(backend, row["center"], row["radius"], 45)
        assert capped == ball_measure(backend, row["center"], row["radius"], 40)
        assert capped.width > 0.0
        shallow = ball_measure(backend, row["center"], row["radius"], 20)
        assert shallow.lower <= capped.lower <= capped.upper <= shallow.upper
        small_lo, small_hi = row["small_ball"]
        assert max(small_lo, capped.lower) <= min(small_hi, capped.upper)

    def test_nonpositive_radius_rejected_by_the_pruner(self):
        backend = BernoulliBackend(builtin_system("moebius_interval_pair"), (0.5, 0.5))
        with pytest.raises(ValueError, match="radius must be positive"):
            measure._radial_mass(backend, np.array([0.3, 0.4]), np.array([0.1, 0.0]), 45)
        with pytest.raises(ValueError, match="radius must be positive"):
            measure._radial_mass(backend, np.array([0.3, 0.4]), np.array([0.1, np.nan]), 45)


class TestDescentMatchesReference:
    """The descent classifies a level, retires its regions and builds only
    what goes on; every bracket keeps the bits of ``_reference_descend``."""

    @pytest.fixture(scope="class")
    def cases(self, quartet_spectral, quartet_density):
        gasket = BernoulliBackend(builtin_system("sierpinski_triangle"), (0.2, 0.3, 0.5))
        reflecting = system_from_json(_ROTREF_SPEC)
        mirror = BernoulliBackend(reflecting, (0.5, 0.3, 0.2))
        pair = BernoulliBackend(builtin_system("moebius_interval_pair"), (0.3, 0.7))
        strip = StripRegion((1.0, 0.5), 0.4, 0.05)
        shapes = [BallRegion(as_point((0.5, 0.2), 2), 0.15),
                  AnnulusRegion(as_point((0.3, 0.1), 2), 0.2, 0.03), strip,
                  IntersectRegion([strip, BallRegion(as_point((0.5, 0.0), 2), 0.3)])]
        cases = {"gasket_shapes": (gasket, _regions(shapes), len(shapes), 12),
                 "reflecting_shapes": (mirror, _regions(
                     [BallRegion(as_point((0.2, -0.3), 2), 0.6),
                      AnnulusRegion(as_point((0.0, 0.0), 2), 1.0, 0.2)]), 2, 9)}
        for k, region in enumerate(shapes):
            cases[f"gasket_shape_{k}"] = (gasket, _regions([region]), 1, 12)
        for name, backend, budget in [("gasket", gasket, 12), ("reflecting", mirror, 9),
                                      ("pair", pair, 45), ("density", quartet_density, 20),
                                      ("spectral", quartet_spectral, 8)]:
            centers, radii = _random_balls(backend.system, 40, 53)
            cases[f"{name}_balls"] = (backend, _balls(centers, radii), radii.size, budget)
        return cases

    @pytest.mark.parametrize("name", [
        "gasket_shapes", "reflecting_shapes", *(f"gasket_shape_{k}" for k in range(4)),
        "gasket_balls", "reflecting_balls", "pair_balls", "density_balls", "spectral_balls"])
    def test_brackets_match(self, cases, name):
        backend, classify, n, budget = cases[name]
        lo, hi = measure._descend(backend, classify, n, budget)
        ref_lo, ref_hi = _reference_descend(backend, classify, n, budget)
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)

    @pytest.mark.parametrize("name, budget, hits_cap", [("moebius_interval_pair", 45, False),
                                                        ("sierpinski_triangle", 16, True)])
    def test_capped_batch_matches_and_builds_only_what_goes_on(self, name, budget, hits_cap,
                                                               monkeypatch):
        # a small cap cuts the batch into groups; on the gasket it stops
        # some balls too
        system = builtin_system(name)
        backend = BernoulliBackend(system, np.full(system.m, 1.0 / system.m))
        centers, radii = _random_balls(system, 500, 43)
        monkeypatch.setattr(measure, "_NODE_CAP", 1 << 9)
        log = []
        ref_lo, ref_hi = _reference_descend(backend, _balls(centers, radii), 500, budget, log)
        built = _record_builds(monkeypatch)
        lo, hi = measure._descend(backend, _balls(centers, radii), 500, budget)
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        assert (sum(capped for _, _, capped in log) > 0) == hits_cap
        assert sum(built) == sum(kept for _, kept, _ in log) < sum(rows for rows, _, _ in log)

    def test_capped_ball_matches_and_builds_no_capped_level(self, monkeypatch):
        backend, classify = _capped_gasket_ball()
        log = []
        ref_lo, ref_hi = _reference_descend(backend, classify, 1, 45, log)
        built = _record_builds(monkeypatch)
        lo, hi = measure._descend(backend, classify, 1, 45)
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        *levels, (rows, kept, capped) = log
        assert rows > measure._NODE_CAP and kept == 0 and capped == 1
        # every level before the cap is built once; the capped level never is
        assert built == [kept for _, kept, _ in levels]

    def test_capped_ball_traced_peak(self):
        # the gasket_shrink ball: a level past the node cap is classified
        # branch by branch and never built, so the descent holds one frontier
        backend = BernoulliBackend(builtin_system("sierpinski_triangle"), (1 / 3, 1 / 3, 1 / 3))
        tracemalloc.start()
        try:
            measure._radial_mass(backend, np.array([0.5, 0.0]), np.array([0.1]), 45)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2 ** 20

    @pytest.mark.parametrize("budget", [2.5, 3.0, True, "3", None, 0])
    @pytest.mark.parametrize("system, call", [
        pytest.param("sierpinski_triangle",
                     lambda b, d: ball_measure(b, (0.5, 0.0), 0.1, d), id="gasket-ball"),
        pytest.param("sierpinski_triangle",
                     lambda b, d: annulus_measure(b, (0.5, 0.0), 0.2, 0.05, d),
                     id="gasket-annulus"),
        pytest.param("sierpinski_triangle",
                     lambda b, d: region_measure(b, StripRegion((1.0, 0.0), 0.5, 0.1), d),
                     id="gasket-strip"),
        # the Cantor CDF walk never reads the budget; the oracle refuses it anyway
        pytest.param("middle_third_cantor", lambda b, d: ball_measure(b, 0.5, 0.1, d),
                     id="cantor-ball"),
        pytest.param("middle_third_cantor",
                     lambda b, d: annulus_measure(b, 0.5, 0.2, 0.05, d), id="cantor-annulus"),
        pytest.param("middle_third_cantor",
                     lambda b, d: region_measure(b, BallRegion(as_point(0.5, 1), 0.1), d),
                     id="cantor-region"),
    ])
    def test_non_integer_budget_refused_before_any_work(self, system, call, budget,
                                                        monkeypatch):
        weights = {"sierpinski_triangle": (0.2, 0.3, 0.5), "middle_third_cantor": (0.3, 0.7)}
        backend = BernoulliBackend(builtin_system(system), weights[system])
        built = _record_builds(monkeypatch)
        monkeypatch.setattr(measure, "_initial_state", None)  # any work would fail on this
        monkeypatch.setattr(measure, "cantor_cdf_bracket", None)
        message = "must be >= 1" if budget == 0 else "is not an integer"
        with pytest.raises(ValueError, match="depth_budget.*" + message):
            call(backend, budget)
        assert built == []


def _record_builds(monkeypatch):
    """The row counts of every next frontier ``measure`` builds: a
    ``_child_state`` call with one symbol per row."""
    built = []
    child_state = measure._child_state

    def recording(system, state, j):
        if np.ndim(j):
            built.append(np.size(j))
        return child_state(system, state, j)

    monkeypatch.setattr(measure, "_child_state", recording)
    return built


# ---------------------------------------------------------------------------
# radial tables
# ---------------------------------------------------------------------------


def table_mass(table, r):
    """``(F_lo(r), F_hi(r))`` of one center's radial table at the radii ``r``."""
    dmin, f_hi, dmax, f_lo = table
    return f_lo[np.searchsorted(dmax, r, side="right") - 1], f_hi[np.searchsorted(dmin, r) - 1]


def _run_precision(system):
    """The projection depth and position precision of a measure-equalized run."""
    depth = system.depth_for_diameter(1e-12)
    return depth, system.diameter_bound(depth)


def _within(x, prec):
    """The center and the points ``prec`` to either side of it, exactly."""
    return x, x - prec, x + prec


_CANTOR_WEIGHTS = [(0.3, 0.7), (0.5, 0.5), (0.2, 0.8)]
_TABLE_QUOTAS = [1e-300, 1e-6, 1e-2]


class TestRadialTable:
    """Every bracket of a start point's radial table holds the exact ball
    mass (``tests/exact_refs.py``) around the point and around the points
    ``prec`` to either side, where the true start point may lie, from radius
    1e-1 down to the run's position precision."""

    @staticmethod
    def _check_cantor(probs, centers, radii, least_quota):
        system = builtin_system("middle_third_cantor")
        depth, prec = _run_precision(system)
        radii = np.asarray(radii)
        tables = measure._radial_table(BernoulliBackend(system, probs), np.asarray(centers),
                                       prec, least_quota, depth)
        for x, table in zip(centers, tables):
            for y in _within(Fraction(x), Fraction(prec)):
                for r, lo, hi in zip(radii, *table_mass(table, radii)):
                    exact_lo, exact_hi = exact_refs.cantor_ball(probs, y, r)
                    assert lo <= exact_lo and exact_hi <= hi, (probs, x, y - x, r)

    @staticmethod
    def _check_quartet(centers, radii, least_quota):
        system = builtin_system("moebius_interval_quartet")
        depth, prec = _run_precision(system)
        radii = np.asarray(radii)
        backend = DensityBackend(system, "reciprocal_log2")
        tables = measure._radial_table(backend, np.asarray(centers), prec, least_quota, depth)
        for x, table in zip(centers, tables):
            for y in _within(Decimal(x), Decimal(prec)):
                for r, lo, hi in zip(radii, *table_mass(table, radii)):
                    exact = exact_refs.quartet_ball(y, r)
                    assert Decimal(lo) <= exact <= Decimal(hi), (x, y - x, r)

    @staticmethod
    def _ladder(system):
        return np.geomspace(1e-1, _run_precision(system)[1], 40)

    @pytest.mark.parametrize("least_quota", _TABLE_QUOTAS)
    @pytest.mark.parametrize("probs", _CANTOR_WEIGHTS)
    def test_cantor_corners(self, probs, least_quota):
        radii = self._ladder(builtin_system("middle_third_cantor"))
        self._check_cantor(probs, [0.0, 0.25, 0.75, 1.0], radii, least_quota)

    @pytest.mark.parametrize("least_quota", _TABLE_QUOTAS)
    def test_quartet_fixed_points_and_corners(self, least_quota):
        system = builtin_system("moebius_interval_quartet")
        fixed = [map_fixed_point(m, system.attractor_box).coords[0] for m in system.maps]
        self._check_quartet(fixed + [0.25, 0.75, 1.0], self._ladder(system), least_quota)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(probs=st.sampled_from(_CANTOR_WEIGHTS),
           x=st.floats(0.0, 1.0),
           exps=st.lists(st.floats(math.log10(_run_precision(
               builtin_system("middle_third_cantor"))[1]), -1.0), min_size=1, max_size=4),
           least_quota=st.sampled_from(_TABLE_QUOTAS))
    def test_cantor_drawn(self, probs, x, exps, least_quota):
        self._check_cantor(probs, [x], 10.0 ** np.array(exps), least_quota)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(x=st.floats(0.0, 1.0),
           exps=st.lists(st.floats(math.log10(_run_precision(
               builtin_system("moebius_interval_quartet"))[1]), -1.0), min_size=1, max_size=4),
           least_quota=st.sampled_from(_TABLE_QUOTAS))
    def test_quartet_drawn(self, x, exps, least_quota):
        self._check_quartet([x], 10.0 ** np.array(exps), least_quota)

    def test_a_center_table_does_not_depend_on_the_others(self):
        backend = BernoulliBackend(builtin_system("middle_third_cantor"), (0.3, 0.7))
        depth, prec = _run_precision(backend.system)
        centers = np.random.default_rng(4).uniform(0.0, 1.0, 7)
        together = measure._radial_table(backend, centers, prec, 1e-3, depth)
        for x, table in zip(centers, together):
            alone, = measure._radial_table(backend, [x], prec, 1e-3, depth)
            assert all(np.array_equal(a, b) for a, b in zip(table, alone))

    @pytest.mark.parametrize("probs", [(0.1, 0.9), (0.02, 0.98)])
    def test_every_column_is_sorted(self, probs):
        # a step reads the sums with searchsorted, so they must not decrease;
        # near the light end the leaves at the projection depth weigh less
        # than the rounding allowance each of them adds to the lower sum
        backend = BernoulliBackend(builtin_system("middle_third_cantor"), probs)
        depth, prec = _run_precision(backend.system)
        centers = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        for table in measure._radial_table(backend, centers, prec, 1e-300, depth):
            assert all((np.diff(column) >= 0).all() for column in table)

    def test_node_cap_cuts_a_table_short_and_keeps_it_certified(self, monkeypatch):
        probs = (0.3, 0.7)
        system = builtin_system("middle_third_cantor")
        depth, prec = _run_precision(system)
        backend = BernoulliBackend(system, probs)
        full, = measure._radial_table(backend, [0.25], prec, 1e-300, depth)
        monkeypatch.setattr(measure, "_NODE_CAP", 4)
        capped, = measure._radial_table(backend, [0.25], prec, 1e-300, depth)
        assert capped[0].size < full[0].size
        radii = self._ladder(system)
        for r, lo, hi in zip(radii, *table_mass(capped, radii)):
            exact_lo, exact_hi = exact_refs.cantor_ball(probs, 0.25, r)
            assert lo <= exact_lo and exact_hi <= hi
