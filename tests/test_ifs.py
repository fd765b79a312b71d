"""Conformal map families, the cylinder-state kernel, constants, stopping families."""

import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfconformal.ifs import (
    Affine1D,
    BUILTIN_SYSTEMS,
    Box,
    IfsSystem,
    Moebius1D,
    Similarity2D,
    _child_state,
    _children,
    _initial_state,
    _point_value,
    _state_boxes,
    _state_diameters,
    _to_coords,
    apply_word,
    builtin_system,
    check_osc,
    contraction_constants,
    lambda_rho,
    map_apply,
    system_from_json,
    system_to_json,
)
from selfconformal.symbolic import FiniteWord, PointRd, word


def _word_state(sys_, symbols):
    """The one-row cylinder state of a word, composed from the root."""
    state = _initial_state(sys_)
    for j in symbols:
        state = _child_state(sys_, state, j)
    return state


# ---------------------------------------------------------------------------
# map arithmetic oracles
# ---------------------------------------------------------------------------

def test_quartet_maps_tile_unit_interval():
    sys_ = builtin_system("moebius_interval_quartet")
    # phi_1[0,1]=[0,1/4], phi_2=[1/4,1/2], phi_3=[1/2,2/3], phi_4=[2/3,1]
    expected = [(0.0, 0.25), (0.25, 0.5), (0.5, 2.0 / 3.0), (2.0 / 3.0, 1.0)]
    for m, (lo, hi) in zip(sys_.maps, expected):
        img_lo = map_apply(m, PointRd((0.0,))).x
        img_hi = map_apply(m, PointRd((1.0,))).x
        a, b = min(img_lo, img_hi), max(img_lo, img_hi)
        assert abs(a - lo) < 1e-15 and abs(b - hi) < 1e-15


def test_quartet_map_values():
    sys_ = builtin_system("moebius_interval_quartet")
    x = 0.3
    vals = [x / 4.0, 1.0 / (2.0 * (1.0 + x)), (1.0 + x) / (2.0 + x), 2.0 / (2.0 + x)]
    for m, v in zip(sys_.maps, vals):
        assert abs(map_apply(m, PointRd((x,))).x - v) < 1e-15


def test_moebius_composition_associative():
    sys_ = builtin_system("moebius_interval_quartet")
    I = word((2, 3, 1, 4, 2, 3), 4)
    x = PointRd((0.37,))
    # compose via word_map matrix vs sequential application
    seq = apply_word(sys_, I, x)
    mat, _ = sys_.word_map(I)
    from selfconformal.ifs import _moebius_apply

    assert abs(_moebius_apply(mat, 0.37) - seq.x) < 1e-12


def test_fixed_points():
    sys_ = builtin_system("moebius_interval_quartet")
    assert abs(sys_.base_point().x - 0.0) < 1e-15
    c = builtin_system("middle_third_cantor")
    assert abs(c.base_point().x) < 1e-15
    g = builtin_system("sierpinski_triangle")
    assert np.allclose(g.base_point().coords, (0.0, 0.0))


def test_iterate_power_detection():
    assert builtin_system("moebius_interval_quartet").iterate_power == 1
    assert builtin_system("moebius_interval_pair").iterate_power == 2
    assert builtin_system("middle_third_cantor").iterate_power == 1


def test_iterate_power_is_computed_not_passed():
    cantor = builtin_system("middle_third_cantor")
    with pytest.raises(TypeError, match="iterate_power"):
        IfsSystem(maps=cantor.maps, dim=1, domain=cantor.domain,
                  attractor_box=cantor.attractor_box, iterate_power=3)


def test_pair_square_equals_quartet():
    """The four-branch system is the square of the two-branch one."""
    pair = builtin_system("moebius_interval_pair")
    quartet = builtin_system("moebius_interval_quartet")
    # depth-2 words of the pair, in image order, match quartet branches:
    # 11 -> x/4, 12 -> phi_1(1/(1+x)) = 1/(2(1+x)), 22 -> (1+x)/(2+x)? check
    xs = np.linspace(0.0, 1.0, 7)
    combos = {
        (1, 1): 0,  # x/4
        (1, 2): 1,  # 1/(2(1+x))
        (2, 2): 2,  # phi_2(phi_2 x) = 1/(1+1/(1+x)) = (1+x)/(2+x)
        (2, 1): 3,  # phi_2(x/2) = 1/(1+x/2) = 2/(2+x)
    }
    for combo, idx in combos.items():
        for x in xs:
            lhs = apply_word(pair, word(combo, 2), PointRd((x,))).x
            rhs = map_apply(quartet.maps[idx], PointRd((x,))).x
            assert abs(lhs - rhs) < 1e-14


def test_kappa_values():
    assert abs(builtin_system("middle_third_cantor").kappa - 1.0 / 3.0) < 1e-15
    # quartet: sup|phi'| per branch = 1/4, 1/2, 1/4, 1/2 -> kappa = 1/2
    assert abs(builtin_system("moebius_interval_quartet").kappa - 0.5) < 1e-15
    # pair: second branch has |phi'(0)| = 1
    assert abs(builtin_system("moebius_interval_pair").kappa - 1.0) < 1e-15
    assert abs(builtin_system("sierpinski_triangle").kappa - 0.5) < 1e-15


def test_cylinder_geometry_cantor():
    sys_ = builtin_system("middle_third_cantor")
    state = _word_state(sys_, (2, 1))
    # K_{21} = [2/3, 7/9], anchored at phi_21(0) = 2/3
    anchor = apply_word(sys_, word((2, 1), 2), sys_.base_point())
    assert abs(anchor.x - 2.0 / 3.0) < 1e-15
    assert abs(_state_diameters(sys_, state)[0] - 1.0 / 9.0) < 1e-15
    lo, hi = _state_boxes(sys_, state, sys_.attractor_box)
    assert abs(lo[0, 0] - 2.0 / 3.0) < 1e-15 and abs(hi[0, 0] - 7.0 / 9.0) < 1e-15


def test_cylinder_geometry_quartet_depth1():
    sys_ = builtin_system("moebius_interval_quartet")
    lens = [0.25, 0.25, 1.0 / 6.0, 1.0 / 3.0]
    level = _children(sys_, _initial_state(sys_))
    assert np.abs(_state_diameters(sys_, level) - lens).max() < 1e-15


def test_gasket_cylinder_diameter_exact():
    g = builtin_system("sierpinski_triangle")
    assert abs(_state_diameters(g, _word_state(g, (2, 1, 1)))[0] - 0.125) < 1e-15
    # anchor = phi_2 phi_1 phi_1 (0,0) = phi_2 phi_1 (0,0) = phi_2 (0,0) = (1/2, 0)
    anchor = apply_word(g, word((2, 1, 1), 3), g.base_point())
    assert np.allclose(anchor.coords, (0.5, 0.0))


def test_apply_word_outside_domain_raises():
    sys_ = builtin_system("middle_third_cantor")
    with pytest.raises(ValueError):
        apply_word(sys_, word((1,), 2), PointRd((2.0,)))


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_contraction_constants_cantor():
    sys_ = builtin_system("middle_third_cantor")
    c = contraction_constants(sys_, 4)
    assert abs(c["kappa"] - 1.0 / 3.0) < 1e-15
    assert abs(c["C1"] - 1.0) < 1e-12  # no distortion for affine maps
    assert abs(c["C3"] - 1.0) < 1e-12  # |K_I| = kappa^{|I|} exactly
    assert abs(c["C4"] - 1.0) < 1e-12  # exact multiplicativity


def test_contraction_constants_quartet_distortion():
    sys_ = builtin_system("moebius_interval_quartet")
    c = contraction_constants(sys_, 4)
    # branch 2 derivative 1/(2(1+x)^2): distortion on [0,1] is 4
    assert c["C1"] >= 4.0 - 1e-12
    assert c["C1"] < 50.0
    assert c["C4"] >= 1.0


def test_depth_for_diameter():
    sys_ = builtin_system("middle_third_cantor")
    d = sys_.depth_for_diameter(1e-6)
    assert (1.0 / 3.0) ** d < 1e-6
    assert d <= math.ceil(6 * math.log(10) / math.log(3)) + 1
    pair = builtin_system("moebius_interval_pair")
    d2 = pair.depth_for_diameter(1e-4)
    assert d2 % 2 == 0  # whole blocks of the contracting power
    assert _state_diameters(pair, _word_state(pair, (2,) * d2))[0] < 1e-4


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_diameter_bound_dominates_every_cylinder(name):
    sys_ = builtin_system(name)
    # a measured diameter is a difference of rounded endpoints, a few ulps of
    # the coordinates off; on the Cantor sets it equals the bound exactly
    ulps = 8.0 * np.finfo(float).eps
    state = _initial_state(sys_)
    for depth in range(1, 7):
        state = _children(sys_, state)
        assert len(state[0]) == sys_.m ** depth
        assert (_state_diameters(sys_, state) <= sys_.diameter_bound(depth) + ulps).all()
    for tol in (0.3, 1e-4, 1e-9):
        depth = sys_.depth_for_diameter(tol)
        assert sys_.diameter_bound(depth) < tol
        assert depth == 1 or sys_.diameter_bound(depth - sys_.iterate_power) >= tol


# ---------------------------------------------------------------------------
# stopping families
# ---------------------------------------------------------------------------

def test_lambda_rho_cantor_levels():
    sys_ = builtin_system("middle_third_cantor")
    fam = lambda_rho(sys_, 0.5)
    # diameters 1/3 < 0.5 <= 1 -> exactly the two depth-1 words
    assert sorted(w.symbols for w in fam) == [(1,), (2,)]
    fam2 = lambda_rho(sys_, 1.0 / 9.0 + 1e-9)
    assert all(len(w) == 2 for w in fam2) and len(fam2) == 4


def test_lambda_rho_root_and_errors():
    sys_ = builtin_system("middle_third_cantor")
    assert lambda_rho(sys_, 2.0)[0].symbols == ()
    with pytest.raises(ValueError):
        lambda_rho(sys_, 0.0)


def test_lambda_rho_quartet_mixed_depths():
    sys_ = builtin_system("moebius_interval_quartet")
    rho = 0.2
    fam = lambda_rho(sys_, rho)
    # antichain covering: no word a prefix of another, diameters < rho,
    # parents >= rho
    symbols = [w.symbols for w in fam]
    for a in symbols:
        for b in symbols:
            if a != b:
                assert a != b[: len(a)]
    for w in fam:
        assert _state_diameters(sys_, _word_state(sys_, w.symbols))[0] < rho
        assert _state_diameters(sys_, _word_state(sys_, w.symbols[:-1]))[0] >= rho


@given(st.floats(min_value=0.01, max_value=0.9))
@settings(max_examples=30, deadline=None)
def test_lambda_rho_masses_cover_interval(rho):
    """Stopping-family cylinders of the quartet tile [0,1] (total length 1)."""
    sys_ = builtin_system("moebius_interval_quartet")
    fam = lambda_rho(sys_, rho)
    total = sum(_state_diameters(sys_, _word_state(sys_, w.symbols))[0] for w in fam)
    assert abs(total - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# open set condition
# ---------------------------------------------------------------------------

def test_check_osc_builtins():
    for name in [
        "middle_third_cantor",
        "moebius_interval_quartet",
        "moebius_interval_pair",
        "sierpinski_triangle",
        "two_line_cantor",
    ]:
        rep = check_osc(builtin_system(name))
        assert rep["holds"], name
        assert rep["max_overlap"] < 1e-12


def test_check_osc_fails_on_overlapping_maps():
    from selfconformal.ifs import IfsSystem

    bad = IfsSystem(
        maps=[Affine1D(0.6, 0.0), Affine1D(0.6, 0.4)],
        dim=1,
        domain=Box((0.0,), (1.0,)),
        attractor_box=Box((0.0,), (1.0,)),
        osc_witness=Box((0.0,), (1.0,)),
    )
    rep = check_osc(bad)
    assert not rep["holds"]


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name",
    [
        "middle_third_cantor",
        "moebius_interval_quartet",
        "moebius_interval_pair",
        "sierpinski_triangle",
        "two_line_cantor",
    ],
)
def test_json_round_trip_bit_exact(name):
    sys_ = builtin_system(name)
    blob = json.dumps(system_to_json(sys_))
    sys2 = system_from_json(json.loads(blob))
    assert system_to_json(sys2) == system_to_json(sys_)
    # float fields preserved bit-exactly
    for m1, m2 in zip(sys_.maps, sys2.maps):
        assert type(m1) is type(m2)
        assert m1 == m2
    blob2 = json.dumps(system_to_json(sys2))
    assert blob == blob2


def test_validation_rejects_bad_maps():
    with pytest.raises(ValueError):
        Affine1D(1.5, 0.0)
    with pytest.raises(ValueError):
        Moebius1D(1.0, 0.0, 0.0, 0.0)  # p*s - q*r = 0... (1*0-0*0)=0
    with pytest.raises(ValueError):
        Similarity2D(1.2, 0.0, False, (0.0, 0.0))


def _middle_third(attractor_diameter):
    return IfsSystem(
        maps=[Affine1D(1 / 3, 0.0), Affine1D(1 / 3, 2 / 3)],
        dim=1,
        domain=Box((0.0,), (1.0,)),
        attractor_box=Box((0.0,), (1.0,)),
        attractor_diameter=attractor_diameter,
    )


@pytest.mark.parametrize("diam, reason", [
    ((0.0, 0.001), "is below"),  # would plan depth 5 for 1e-5: 3^-5 cylinders
    ((5.0, 0.2), "lower end above upper end"),
])
def test_attractor_diameter_off_the_attractor_is_refused(diam, reason):
    with pytest.raises(ValueError, match=f"attractor_diameter.*{reason}"):
        _middle_third(diam)


def test_attractor_diameter_at_or_above_the_attractor_is_accepted():
    # diam K = 1 exactly; the default is the attractor box's diameter
    for diam in ((1.0, 1.0), (0.0, 1.0), (0.5, 3.0), None):
        assert _middle_third(diam).depth_for_diameter(1e-5) >= 11
    for name in BUILTIN_SYSTEMS:
        system = builtin_system(name)
        assert system_from_json(system_to_json(system)).attractor_diameter == (
            system.attractor_diameter)


# ---------------------------------------------------------------------------
# rotated and reflecting plane similarities
# ---------------------------------------------------------------------------

_ROTREF_SPEC = {
    "dim": 2,
    "maps": [
        {"type": "sim2d", "scale": 0.25, "rotation": 0.7, "reflect": True,
         "translation": [-1.0, -1.0]},
        {"type": "sim2d", "scale": 0.25, "rotation": -1.1, "reflect": False,
         "translation": [1.0, -1.0]},
        {"type": "sim2d", "scale": 0.25, "rotation": 2.0, "reflect": True,
         "translation": [0.0, 1.0]},
    ],
    "domain": [[-3.0, -3.0], [3.0, 3.0]],
    "attractor_box": [[-2.0, -2.5], [2.5, 2.0]],
}


def _explicit_affine(spec):
    """(A, t) of x |-> scale * R(rotation) * diag(1, -1)^reflect * x + t."""
    c, s = math.cos(spec["rotation"]), math.sin(spec["rotation"])
    A = spec["scale"] * np.array([[c, -s], [s, c]])
    if spec["reflect"]:
        A = A @ np.diag([1.0, -1.0])
    return A, np.asarray(spec["translation"])


def _explicit_word(maps, word, x):
    for sym in reversed(word):
        A, t = maps[sym - 1]
        x = A @ x + t
    return x


def test_rotated_reflecting_sim2d_matches_explicit_formula():
    from selfconformal.dynamics import project_windows, t_apply
    from selfconformal.ifs import _moebius_apply, map_fixed_point

    sys_ = system_from_json(_ROTREF_SPEC)
    maps = [_explicit_affine(m) for m in _ROTREF_SPEC["maps"]]
    rng = np.random.default_rng(5)
    xs = rng.uniform(-2.0, 2.0, (6, 2))
    tol = 1e-14

    for m, (A, t) in zip(sys_.maps, maps):
        expected = xs @ A.T + t
        assert np.abs(map_apply(m, xs) - expected).max() < tol
        for x, e in zip(xs, expected):
            assert np.abs(np.subtract(map_apply(m, PointRd(tuple(x))).coords, e)).max() < tol
        fp = map_fixed_point(m, sys_.domain).coords
        assert np.abs(np.subtract(fp, np.linalg.solve(np.eye(2) - A, t))).max() < tol

    base = np.linalg.solve(np.eye(2) - maps[0][0], maps[0][1])
    for symbols in [(1,), (3, 1), (2, 3, 1, 1), (3, 3, 2, 1, 2)]:
        I = FiniteWord(symbols, 3)
        for x in xs:
            e = _explicit_word(maps, symbols, x)
            got = apply_word(sys_, I, PointRd(tuple(x))).coords
            assert np.abs(np.subtract(got, e)).max() < tol
            mat, flip = sys_.word_map(I)
            z = _moebius_apply(mat, complex(*x), flip)
            assert abs(z - complex(*e)) < tol
        # the kernel's box bounds the word's images of the box's vertices
        (x0, y0), (x1, y1) = _ROTREF_SPEC["attractor_box"]
        img = np.array([_explicit_word(maps, symbols, np.array([a, b]))
                        for a in (x0, x1) for b in (y0, y1)])
        lo, hi = _state_boxes(sys_, _word_state(sys_, symbols), sys_.attractor_box)
        assert np.abs(lo[0] - img.min(axis=0)).max() < tol
        assert np.abs(hi[0] - img.max(axis=0)).max() < tol

    block = rng.integers(1, 4, (3, 14)).astype(np.int8)
    depth = 6
    pts = project_windows(block, sys_, depth)
    assert pts.shape == (3, 14 - depth + 1, 2)
    for i in range(3):
        assert np.array_equal(project_windows(block[i], sys_, depth), pts[i])
        for n in range(14 - depth + 1):
            e = _explicit_word(maps, tuple(block[i, n : n + depth]), base)
            assert np.abs(pts[i, n] - e).max() < tol

    # the induced map inverts each branch on its own piece (pieces are disjoint)
    for j, (A, t) in enumerate(maps, start=1):
        for x in xs:
            y = A @ x + t
            back = t_apply(sys_, PointRd(tuple(y))).coords
            assert np.abs(np.subtract(back, x)).max() < tol

    consts = contraction_constants(sys_, 3)
    assert abs(consts["kappa"] - 0.25) < tol
    assert abs(consts["C1"] - 1.0) < 1e-12 and abs(consts["C2"] - 1.0) < 1e-12
    assert check_osc(system_from_json({**_ROTREF_SPEC, "osc_witness": _ROTREF_SPEC["attractor_box"]}))["holds"]


def test_pruner_nodes_follow_reflecting_words():
    # each cylinder-tree node's box bounds the composed word's images of the
    # attractor box's vertices
    sys_ = system_from_json(_ROTREF_SPEC)
    maps = [_explicit_affine(m) for m in _ROTREF_SPEC["maps"]]
    (x0, y0), (x1, y1) = _ROTREF_SPEC["attractor_box"]
    corners = np.array([[a, b] for a in (x0, x1) for b in (y0, y1)])
    for symbols in itertools.product(range(1, 4), repeat=3):
        lo, hi = _state_boxes(sys_, _word_state(sys_, symbols), sys_.attractor_box)
        img = np.array([_explicit_word(maps, symbols, c) for c in corners])
        assert np.abs(lo[0] - img.min(axis=0)).max() < 1e-14
        assert np.abs(hi[0] - img.max(axis=0)).max() < 1e-14


# ---------------------------------------------------------------------------
# the depth plan and the cylinder boxes of every system
# ---------------------------------------------------------------------------

def _kernel_systems():
    out = {name: builtin_system(name) for name in sorted(BUILTIN_SYSTEMS)}
    out["rotref"] = system_from_json(_ROTREF_SPEC)
    return out


# repr of (iterate_power, kappa, kappa_eff) and depth_for_diameter at the
# tolerances below: these set every run's projection depth and precision
_DEPTH_TOLS = (0.3, 1e-4, 1e-9, 1e-12)
_DEPTH_PLAN = {
    "middle_third_cantor": ("1", "0.3333333333333333", "0.3333333333333333", [2, 9, 19, 26]),
    "moebius_interval_pair": ("2", "1.0", "0.7071067811865476", [4, 28, 60, 80]),
    "moebius_interval_quartet": ("1", "0.5", "0.5", [2, 14, 30, 40]),
    "sierpinski_triangle": ("1", "0.5", "0.5", [2, 14, 30, 40]),
    "two_line_cantor": ("1", "0.3333333333333333", "0.3333333333333333", [2, 10, 20, 26]),
    "rotref": ("1", "0.25", "0.25", [3, 8, 17, 22]),
}


@pytest.mark.parametrize("name", sorted(_DEPTH_PLAN))
def test_depth_plan_is_pinned(name):
    sys_ = _kernel_systems()[name]
    got = (repr(sys_.iterate_power), repr(sys_.kappa), repr(sys_.kappa_eff),
           [sys_.depth_for_diameter(t) for t in _DEPTH_TOLS])
    assert got == _DEPTH_PLAN[name]


@st.composite
def _word_and_tail(draw):
    name = draw(st.sampled_from(sorted(_DEPTH_PLAN)))
    m = _kernel_systems()[name].m
    symbols = st.integers(1, m)
    return (name, draw(st.lists(symbols, min_size=1, max_size=6)),
            draw(st.lists(symbols, max_size=8)))


@given(_word_and_tail())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_level_boxes_hold_their_words_and_meet_the_diameter_bound(case):
    name, symbols, tail = case
    sys_ = _kernel_systems()[name]
    state = _word_state(sys_, symbols)
    lo, hi = _state_boxes(sys_, state, sys_.attractor_box)
    x = apply_word(sys_, FiniteWord(tuple(symbols + tail), sys_.m), sys_.base_point())
    slack = 1e-12
    assert (lo[0] - slack <= x.coords).all() and (np.array(x.coords) <= hi[0] + slack).all()
    ulps = 8.0 * np.finfo(float).eps
    assert _state_diameters(sys_, state)[0] <= sys_.diameter_bound(len(symbols)) + ulps


def _pin_system(name):
    return system_from_json(_ROTREF_SPEC) if name == "rotref" else builtin_system(name)


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("name, block_digest, row_digest", [
    ("moebius_interval_quartet",
     "29e69f75b75dcd599f99279ae81f0cf214694397ee325af8c38c7245f2852c60",
     "a10e18bcbf9029b9e8b6f34890a566c5a0a740bcccc13dcc85e34c1be38abe25"),
    ("middle_third_cantor",
     "6e976a6c1c6d06915fe082d5ab49f55e5cdd5e58d432690a0d0903b5c0de5ea1",
     "a7f323e2c0a6b7c08b5f487ab366f1f9e12cee61af331076867749fe157708c6"),
    ("rotref",
     "af88074d0a600319eb6b7b0a2dd7ec311986ff56d9142cf9e3a9774f23a31fe9",
     "ec8d628344fb3d58c728e9427669dd58ea819d4aac6c468ef1ddadbf6b2b01f9"),
])
def test_window_projection_is_pinned(name, block_digest, row_digest):
    from selfconformal.dynamics import project_windows

    sys_ = _pin_system(name)
    syms = np.random.default_rng(7).integers(1, sys_.m + 1, size=(5, 300)).astype(np.int8)
    assert _digest(project_windows(syms, sys_, 40)) == block_digest
    assert _digest(project_windows(syms[0], sys_, 25)) == row_digest


def _reference_map_points(sys_, j, z):
    """Map ``z`` in place through the maps of the symbols ``j``, one column
    of coefficients gathered at a time."""
    if sys_._flips is not None:
        z[...] = np.where(sys_._flips[j], z.conjugate(), z)
    c = sys_._coeffs
    if len(c) == 2:
        return np.add(np.multiply(z, c[0][j], out=z), c[1][j], out=z)
    num = c[0][j] * z
    num += c[1][j]
    den = c[2][j] * z
    den += c[3][j]
    return np.divide(num, den, out=z)


def _reference_projection(syms, sys_, depth):
    """The block's window points in one pass, map by map innermost first,
    every map's columns gathered anew; a block needs two points or more (a
    lone point goes by another rounding path)."""
    count = syms.shape[-1] - depth + 1
    rows = syms.reshape(-1, syms.shape[-1])
    assert rows.shape[0] * count >= 2
    X = np.empty((rows.shape[0], count), dtype=sys_.dtype)
    X[...] = _point_value(sys_.base_point())
    for j in range(depth - 1, -1, -1):
        _reference_map_points(sys_, rows[:, j : j + count], X)
    return _to_coords(X.reshape(syms.shape[:-1] + (count,)))


@pytest.mark.parametrize("chunk", [None, 5, 7, 64])
@pytest.mark.parametrize("name", sorted(_kernel_systems()))
def test_window_projection_matches_the_per_map_loop(name, chunk, monkeypatch):
    from selfconformal import dynamics

    if chunk is not None:  # passes of a few windows, cut across rows and windows
        monkeypatch.setattr(dynamics, "_WINDOW_CHUNK", chunk)
    sys_ = _kernel_systems()[name]
    rng = np.random.default_rng(11)
    for rows, cols, depth in [(6, 90, 20), (3, 40, 9), (1, 120, 25), (1, 26, 25),
                              (4, 12, 12), (1, 7, 1)]:
        syms = rng.integers(1, sys_.m + 1, size=(rows, cols)).astype(np.int8)
        ref = _reference_projection(syms, sys_, depth)
        assert np.array_equal(dynamics.project_windows(syms, sys_, depth), ref)
        if rows == 1:
            assert np.array_equal(dynamics.project_windows(syms[0], sys_, depth), ref[0])
        # each column window alone, as the counting engine projects a time axis
        for c0 in range(0, cols - depth + 1, 11):
            part = dynamics.project_windows(syms[:, c0 : c0 + depth + 1], sys_, depth)
            assert np.array_equal(part, ref[:, c0 : c0 + 2])


@pytest.mark.parametrize("chunk", [None, 1])
def test_a_lone_window_projects_as_inside_its_row(chunk, monkeypatch):
    """One window in all (rows x windows = 1) and a single row cut into the
    smallest passes give the row's points: no pass holds one point, not even
    the last one of a row whose windows leave one over."""
    from selfconformal import dynamics

    if chunk is not None:
        monkeypatch.setattr(dynamics, "_WINDOW_CHUNK", chunk)
    sys_ = system_from_json(_ROTREF_SPEC)
    depth = 20
    row = np.random.default_rng(5).integers(1, 4, size=depth + 299).astype(np.int8)
    ref = _reference_projection(row, sys_, depth)
    assert np.array_equal(dynamics.project_windows(row, sys_, depth), ref)
    for n in range(ref.shape[0]):
        window = row[n : n + depth]
        assert np.array_equal(dynamics.project_windows(window, sys_, depth)[0], ref[n])
        assert np.array_equal(dynamics.project_windows(window[None], sys_, depth)[0, 0], ref[n])
    # the smallest passes hold `depth` windows of a row, so these leave one over
    for count in range(depth + 1, ref.shape[0], depth):
        head = row[: count + depth - 1]
        assert np.array_equal(dynamics.project_windows(head, sys_, depth), ref[:count])


@pytest.mark.parametrize("name, rows, cols, depth, today_mib", [
    ("moebius_interval_quartet", 100, 1342, 17, 1.56),
    ("middle_third_cantor", 50, 2633, 12, 0.62),
])
def test_window_projection_peak_stays_within_the_per_map_loop(name, rows, cols, depth, today_mib):
    """The traced peak above the output stays within that of the loop that
    gathered each map's columns anew, 65536 windows a pass."""
    from selfconformal.dynamics import project_windows

    sys_ = builtin_system(name)
    syms = np.random.default_rng(3).integers(1, sys_.m + 1, size=(rows, cols)).astype(np.int8)
    tracemalloc.start()
    try:
        out = project_windows(syms, sys_, depth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= today_mib * 2 ** 20


@pytest.mark.parametrize("name, digest", [
    ("moebius_interval_quartet", "22c45eedbb558eebdb5349a21c3c2137b45a910f9ae466a9da8a2c04d8c908e9"),
    ("moebius_interval_pair", "e29190fe82549884787427e2d9e9395a535e81be74061ac57a80a7de8c69ece3"),
    ("middle_third_cantor", "8476222eed165e52d194548babb35ad8bcf074f5f6b0bb863ed62c0ad087108e"),
    ("rotref", "417e3daaeabc7efe6529468ded3fc5ec20d1df9eb725cde026f3413a77044b7f"),
])
def test_apply_word_is_pinned(name, digest):
    sys_ = _pin_system(name)
    m = sys_.m
    pts = [apply_word(sys_, FiniteWord(tuple((i * k + L) % m + 1 for i in range(L)), m),
                      PointRd((x,) if sys_.dim == 1 else (x, -x / 2))).coords
           for L in range(0, 30, 3) for k in range(1, 4) for x in (0.0, 0.3, 1.0)]
    assert _digest(np.array(pts)) == digest
