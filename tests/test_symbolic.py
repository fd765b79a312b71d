"""Finite words, points, and the coding map on windows of symbol rows."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfconformal import dynamics
from selfconformal.dynamics import project_windows
from selfconformal.ifs import _child_state, _initial_state, _state_boxes, builtin_system, map_apply
from selfconformal.symbolic import FiniteWord, PointRd, as_point, word


def _periodic(prefix, period, n):
    """The first ``n`` symbols of ``prefix . (period)^inf``."""
    prefix, period = list(prefix), list(period)
    reps = max(0, n - len(prefix)) // len(period) + 1
    return np.array((prefix + period * reps)[:n])


def _pi(system, prefix, period, tol, shifts=0):
    """pi(sigma^k omega) for k = 0..shifts, omega = prefix . (period)^inf, to
    within ``tol``: the windows of the coding map truncated at the depth
    where cylinders are shorter than ``tol``."""
    depth = system.depth_for_diameter(tol)
    return project_windows(_periodic(prefix, period, depth + shifts), system, depth)


def test_finite_word_basics():
    w = word("1212", 2)
    assert len(w) == 4
    assert w[0] == 1 and w[3] == 2
    assert tuple(w) == (1, 2, 1, 2)
    assert w == FiniteWord((1, 2, 1, 2), 2)


def test_finite_word_validation():
    with pytest.raises(ValueError):
        FiniteWord((0, 1), 2)
    with pytest.raises(ValueError):
        FiniteWord((1, 3), 2)


def test_periodic_stream_read_and_shift():
    # omega = 12(21)^inf: sigma omega = 2(21)^inf, and from sigma^2 on the
    # orbit alternates pi((21)^inf) = 3/4 and pi((12)^inf) = 1/4
    sys_ = builtin_system("middle_third_cantor")
    vals = _pi(sys_, (1, 2), (2, 1), 1e-12, shifts=6)
    assert vals == pytest.approx([11 / 36, 11 / 12, 0.75, 0.25, 0.75, 0.25, 0.75], abs=2e-12)


def test_constant_stream():
    # (2)^inf is a fixed point of the shift: on the three-map gasket its
    # orbit stays at the fixed point of the second map
    sys_ = builtin_system("sierpinski_triangle")
    pts = _pi(sys_, (), (2,), 1e-12, shifts=4)
    fix = map_apply(sys_.maps[1], as_point(tuple(pts[0])))
    np.testing.assert_allclose(pts, np.broadcast_to(fix.coords, pts.shape), rtol=0, atol=1e-12)


@pytest.mark.parametrize("period", [(2,), (1, 2), (2, 1, 1, 2)])
@pytest.mark.parametrize("offset", range(6))
def test_shift_of_periodic_tail_drops_one_symbol(period, offset, monkeypatch):
    # sigma takes the period rotated by `offset` to the one rotated by
    # offset + 1, so the first orbit less its first point is the second
    # orbit, bit for bit; chunks of 5 windows put windows on chunk edges
    monkeypatch.setattr(dynamics, "_WINDOW_CHUNK", 5)
    sys_ = builtin_system("middle_third_cantor")

    def rotated(r):
        r %= len(period)
        return period[r:] + period[:r]

    a = _pi(sys_, (), rotated(offset), 1e-9, shifts=12)
    b = _pi(sys_, (), rotated(offset + 1), 1e-9, shifts=11)
    np.testing.assert_array_equal(a[1:], b)


def test_coding_map_cantor_values():
    sys_ = builtin_system("middle_third_cantor")
    # all-ones word -> 0; all-twos -> 1; (2,1,1,1,...) -> 2/3
    assert abs(_pi(sys_, (), (1,), 1e-12)[0] - 0.0) < 1e-12
    assert abs(_pi(sys_, (), (2,), 1e-12)[0] - 1.0) < 1e-12
    assert abs(_pi(sys_, (2,), (1,), 1e-12)[0] - 2.0 / 3.0) < 1e-12
    # (0.7)_3-style periodic point: (2,1,1,2)^infinity -> 0.7
    assert abs(_pi(sys_, (), (2, 1, 1, 2), 1e-13)[0] - 0.7) < 1e-12


def test_coding_map_commutes_with_shift():
    sys_ = builtin_system("middle_third_cantor")
    tol = 1e-10
    prefix = (1, 2)
    x, y = _pi(sys_, prefix, (2, 1, 2), tol, shifts=1)
    # phi_{first symbol}(pi(sigma omega)) == pi(omega) within 2*tol
    img = map_apply(sys_.maps[prefix[0] - 1], as_point(float(y)))
    assert abs(img.x - x) <= 2 * tol


def test_coding_map_matches_word_image():
    # the window projection agrees with composing the word's maps on the base
    # point, on the line and in the plane
    tol = 1e-10
    for name, prefix, period in [
        ("middle_third_cantor", (1, 2), (2, 1, 2)),
        ("moebius_interval_quartet", (3, 1, 4), (2, 4)),
        ("sierpinski_triangle", (3,), (1, 2, 3, 3)),
    ]:
        sys_ = builtin_system(name)
        depth = sys_.depth_for_diameter(tol)
        syms = _periodic(prefix, period, depth)
        ref = sys_.apply_word(FiniteWord(tuple(syms), sys_.m), sys_.base_point())
        got = np.atleast_1d(project_windows(syms, sys_, depth)[0])
        np.testing.assert_allclose(got, ref.coords, rtol=0, atol=1e-14)


@given(st.lists(st.integers(1, 2), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_coding_map_lands_in_cylinder(prefix):
    sys_ = builtin_system("middle_third_cantor")
    x = _pi(sys_, prefix, (1, 2), 1e-10)[0]
    state = _initial_state(sys_)
    for j in prefix:
        state = _child_state(sys_, state, j)
    lo, hi = _state_boxes(sys_, state, sys_.attractor_box)
    assert lo[0, 0] - 1e-9 <= x <= hi[0, 0] + 1e-9


def test_point_helpers():
    p = as_point(0.5)
    assert isinstance(p, PointRd) and p.d == 1 and p.x == 0.5
    q = as_point((1.0, 2.0))
    assert q.d == 2 and q.y == 2.0
    assert abs(p.dist(as_point(0.25)) - 0.25) < 1e-15
    assert abs(q.dist(as_point((1.0, 0.0))) - 2.0) < 1e-15
