"""Transfer-operator eigendata and measure backends."""

import gc
import hashlib
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfconformal import gibbs
from selfconformal.dynamics import _pick_symbols
from selfconformal.gibbs import (
    DENSITY_CATALOG,
    BernoulliBackend,
    BernoulliPotential,
    ClosedFormDensityPotential,
    ConformalPowerPotential,
    DensityBackend,
    SpectralBackend,
    conditional_next,
    cylinder_measure,
    eigen_solve,
    mixing_coeff_cylinders,
    verify_gibbs_property,
    word_index,
    _cell_arrays,
)
from selfconformal.ifs import (Affine1D, Box, IfsSystem, Moebius1D, _abs_det, _child_state,
                               _compose_states, _denominators, _initial_state, _moebius_apply,
                               _rescaled_state, _state_apply, builtin_system)
from selfconformal.symbolic import word

LOG2 = math.log(2.0)

# Frozen oracles: depth-1 masses of the reciprocal-density measure on the
# four-branch interval system, mu([a,b]) = log(1+b)/log2 - log(1+a)/log2.
#   branch 1 -> [0, 1/4]   : log(5/4)/log2
#   branch 2 -> [1/4, 1/2] : log(6/5)/log2
#   branch 3 -> [1/2, 2/3] : log(10/9)/log2
#   branch 4 -> [2/3, 1]   : log(6/5)/log2
DEPTH1_ORACLE = [
    0.32192809488736235,
    0.2630344058337938,
    0.15200309344504997,
    0.2630344058337938,
]


def test_depth1_oracle_against_mpmath():
    vals = [
        mpmath.log(mpmath.mpf(5) / 4) / mpmath.log(2),
        mpmath.log(mpmath.mpf(6) / 5) / mpmath.log(2),
        mpmath.log(mpmath.mpf(10) / 9) / mpmath.log(2),
        mpmath.log(mpmath.mpf(6) / 5) / mpmath.log(2),
    ]
    for frozen, exact in zip(DEPTH1_ORACLE, vals):
        assert abs(frozen - float(exact)) < 1e-15


@pytest.fixture(scope="module")
def quartet():
    return builtin_system("moebius_interval_quartet")


@pytest.fixture(scope="module")
def cantor():
    return builtin_system("middle_third_cantor")


@pytest.fixture(scope="module")
def density_backend(quartet):
    return DensityBackend(quartet, "reciprocal_log2")


# ---------------------------------------------------------------------------
# density backend
# ---------------------------------------------------------------------------

def test_density_depth1_masses(density_backend):
    for j, oracle in enumerate(DEPTH1_ORACLE, start=1):
        assert abs(cylinder_measure(density_backend, word((j,), 4)) - oracle) < 1e-14


def test_density_level_tables_sum_to_one(density_backend):
    for k in range(1, 7):
        assert abs(density_backend.level_table(k).sum() - 1.0) < 1e-11


def test_density_additivity(density_backend):
    w = word((2, 4, 1), 4)
    parent = cylinder_measure(density_backend, w)
    kids = sum(
        cylinder_measure(density_backend, word((2, 4, 1, j), 4)) for j in range(1, 5)
    )
    assert abs(parent - kids) < 1e-13


def test_density_conditional_next(density_backend):
    w = word((3, 1), 4)
    cond = conditional_next(density_backend, w)
    assert abs(cond.sum() - 1.0) < 1e-12
    for j in range(1, 5):
        direct = cylinder_measure(density_backend, word((3, 1, j), 4)) / cylinder_measure(
            density_backend, w
        )
        assert abs(cond[j - 1] - direct) < 1e-12


def test_density_conditional_next_deep_word_exact(quartet, density_backend):
    """At depth 30 CDF differences cancel; the law must still be exact.

    The quartet's coefficients are dyadic, so the children phi_w o phi_j([0,1])
    have exact rational endpoints [a_j, b_j], and mu of each is
    log1p((b_j - a_j) / (1 + a_j)) / log 2.
    """
    w = (2, 3) * 15

    def compose(m1, m2):
        p1, q1, r1, s1 = m1
        p2, q2, r2, s2 = m2
        return (p1 * p2 + q1 * r2, p1 * q2 + q1 * s2, r1 * p2 + s1 * r2, r1 * q2 + s1 * s2)

    exact = [tuple(Fraction(c) for c in m.matrix) for m in quartet.maps]
    mat = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    for s in w:
        mat = compose(mat, exact[s - 1])
    weights = []
    for child in exact:
        p, q, r, s = compose(mat, child)
        a, b = sorted((q / s, (p + q) / (r + s)))
        weights.append(math.log1p(float((b - a) / (1 + a))))
    ref = np.asarray(weights) / sum(weights)
    cond = conditional_next(density_backend, word(w, 4))
    assert np.max(np.abs(cond - ref)) < 1e-12


def test_density_shift_invariance(density_backend):
    """mu(sigma^{-1}[J]) = sum_j mu([j.J]) equals mu([J])."""
    for J in [(1,), (2, 3), (4, 4, 1)]:
        target = cylinder_measure(density_backend, word(J, 4))
        total = sum(
            cylinder_measure(density_backend, word((j,) + J, 4)) for j in range(1, 5)
        )
        assert abs(total - target) < 1e-12


def test_density_pair_system_shares_density():
    pair = builtin_system("moebius_interval_pair")
    b = DensityBackend(pair, "reciprocal_log2")
    # depth-1: [0,1/2] and [1/2,1]
    assert abs(cylinder_measure(b, word((1,), 2)) - math.log(1.5) / LOG2) < 1e-14
    assert abs(cylinder_measure(b, word((2,), 2)) - (1.0 - math.log(1.5) / LOG2)) < 1e-14
    # the four depth-2 pair-cylinders carry the quartet's depth-1 masses
    # (image order 11,12,22,21 <-> branches 1,2,3,4)
    combos = {(1, 1): 0, (1, 2): 1, (2, 2): 2, (2, 1): 3}
    for combo, idx in combos.items():
        assert abs(cylinder_measure(b, word(combo, 2)) - DEPTH1_ORACLE[idx]) < 1e-14


def test_density_rejects_attractor_off_the_catalog_support():
    # {x/2 - 1/2, x/2} on [-1/2, 1/2]: the catalog CDF would give a level-1
    # table summing to 2.32 and a ball mass of 1.585
    half = IfsSystem(
        maps=[Affine1D(0.5, -0.5), Affine1D(0.5, 0.0)],
        dim=1,
        domain=Box((-0.5,), (0.5,)),
        attractor_box=Box((-0.5,), (0.5,)),
    )
    assert DENSITY_CATALOG["reciprocal_log2"]["support"] == (0.0, 1.0)
    with pytest.raises(ValueError, match="support"):
        DensityBackend(half, "reciprocal_log2")


def test_density_rejects_a_system_it_is_not_invariant_for():
    # the catalog density lives on the Cantor set's interval, but the Cantor
    # maps' images of [0, y] carry a different mass (off by up to 0.32)
    with pytest.raises(ValueError, match="not invariant"):
        DensityBackend(builtin_system("middle_third_cantor"), "reciprocal_log2")


# ---------------------------------------------------------------------------
# Bernoulli backend
# ---------------------------------------------------------------------------

def test_bernoulli_products(cantor):
    b = BernoulliBackend(cantor, (0.3, 0.7))
    assert abs(cylinder_measure(b, word((1, 2, 2), 2)) - 0.3 * 0.7 * 0.7) < 1e-15
    table = b.level_table(3)
    assert abs(table.sum() - 1.0) < 1e-12
    assert abs(table[word_index(word((1, 2, 2), 2))] - 0.147) < 1e-15


def test_bernoulli_validation(cantor):
    with pytest.raises(ValueError):
        BernoulliBackend(cantor, (0.5, 0.4))
    with pytest.raises(ValueError):
        BernoulliBackend(cantor, (0.5, 0.5, 0.0))


@pytest.mark.parametrize("probs", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)])
def test_bernoulli_weights_refuse_nan(probs):
    # NaN passes both `p <= 0` and `abs(sum - 1) > tol` unless the test is negated
    with pytest.raises(ValueError, match="weights must be positive"):
        BernoulliPotential(probs)


# ---------------------------------------------------------------------------
# branch weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tau", [1.0, 0.5, 0.73])
def test_branch_weights_match_the_derivative(quartet, tau):
    y = np.array([0.0, 0.2, 0.45, 1.0])
    got = gibbs._branch_weights(quartet, ConformalPowerPotential(tau), y)
    for row, m in zip(got, quartet.maps):
        p, q, r, s = m.matrix
        exact = [abs(mpmath.diff(lambda t: (p * t + q) / (r * t + s), v)) ** tau for v in y]
        assert np.max(np.abs(row - np.array(exact, dtype=float))) < 1e-14, m


def test_branch_weights_affine(quartet):
    got = gibbs._branch_weights(quartet, ConformalPowerPotential(0.9), np.array([0.1, 0.7]))[0]
    assert np.max(np.abs(got - 0.25 ** 0.9)) < 1e-15


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_eigen_solve_bernoulli_exact(cantor):
    rep = eigen_solve(cantor, BernoulliPotential((0.3, 0.7)), depth=8)
    assert abs(rep.eigenvalue - 1.0) < 1e-12
    exact = BernoulliBackend(cantor, (0.3, 0.7)).level_table(8)
    assert np.max(np.abs(rep.mu_table - exact)) < 1e-9
    assert rep.converged


def test_eigen_solve_quartet_leading_eigenvalue(quartet):
    rep = eigen_solve(quartet, ConformalPowerPotential(1.0), depth=6)
    assert abs(rep.eigenvalue - 1.0) < 1e-9
    assert rep.residual < 1e-9
    assert rep.converged


def test_eigen_solve_quartet_is_exact(quartet):
    # the Galerkin solve on depth-6 cells missed the catalog masses by up to 7.4e-5
    # (relative); collocation leaves only the catalog's own rounding
    rep = eigen_solve(quartet, ConformalPowerPotential(1.0), depth=6)
    assert abs(rep.eigenvalue - 1.0) <= 1e-13
    exact = DensityBackend(quartet, "reciprocal_log2").level_table(6)
    assert np.max(np.abs(rep.mu_table / exact - 1.0)) <= 1e-10


def _e2():
    """The continued-fraction set with digits 1 and 2: x -> 1/(1+x), 1/(2+x)."""
    unit = Box((0.0,), (1.0,))
    return IfsSystem(maps=[Moebius1D(0.0, 1.0, 1.0, 1.0), Moebius1D(0.0, 1.0, 1.0, 2.0)],
                     dim=1, domain=unit, attractor_box=unit)


def test_eigen_solve_e2_eigenvalue_is_one_at_its_dimension():
    # the pressure of E2 vanishes at its Hausdorff dimension (Jenkinson &
    # Pollicott); the depth-12 Galerkin solve missed 1 by 5.4e-8
    rep = eigen_solve(_e2(), ConformalPowerPotential(0.5312805062772051), depth=4)
    assert rep.converged
    assert abs(rep.eigenvalue - 1.0) <= 1e-13


def test_eigen_solve_cantor_bernoulli_is_the_product_measure(cantor):
    rep = eigen_solve(cantor, BernoulliPotential((0.3, 0.7)), depth=12)
    assert np.max(np.abs(rep.h_values - 1.0)) <= 1e-12
    assert np.max(np.abs(rep.h_at(np.linspace(0.0, 1.0, 101)) - 1.0)) <= 1e-12
    exact = BernoulliBackend(cantor, (0.3, 0.7)).level_table(12)
    assert np.max(np.abs(rep.mu_table / exact - 1.0)) <= 1e-12


def test_eigen_solve_pair_system_power_two():
    pair = builtin_system("moebius_interval_pair")
    rep = eigen_solve(pair, ConformalPowerPotential(1.0), depth=8)
    assert abs(rep.eigenvalue - 1.0) < 1e-9
    exact = DensityBackend(pair, "reciprocal_log2").level_table(8)
    assert np.max(np.abs(rep.mu_table - exact)) < 1e-4


def _concatenated_cell_arrays(system, depth):
    """``_cell_arrays`` written plainly: each level is every map's image of
    the previous level, joined in map order."""
    lo = np.array([system.attractor_box.lo[0]])
    hi = np.array([system.attractor_box.hi[0]])
    for _ in range(depth):
        images = [(_moebius_apply(m.matrix, lo), _moebius_apply(m.matrix, hi)) for m in system.maps]
        lo = np.concatenate([np.minimum(a, b) for a, b in images])
        hi = np.concatenate([np.maximum(a, b) for a, b in images])
    return lo, hi


@pytest.mark.parametrize("name, depth", [
    ("moebius_interval_quartet", 10),
    ("moebius_interval_pair", 12),
    ("middle_third_cantor", 16),
    ("nine", 4),
])
def test_cell_arrays_bit_identical_to_concatenated_levels(name, depth):
    system = _nine_map_system() if name == "nine" else builtin_system(name)
    for got, ref in zip(_cell_arrays(system, depth), _concatenated_cell_arrays(system, depth)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def _nine_map_system():
    maps = [Affine1D(0.1, 0.11 * k) for k in range(9)]
    unit = Box((0.0,), (1.0,))
    return IfsSystem(maps=maps, dim=1, domain=unit, attractor_box=unit)


@pytest.mark.parametrize("system, potential, depth", [
    pytest.param("quartet", ConformalPowerPotential(1.0), 6, id="quartet-tau1"),
    pytest.param("quartet", ConformalPowerPotential(0.7), 5, id="quartet-tau0.7"),
    pytest.param("cantor", BernoulliPotential((0.3, 0.7)), 8, id="cantor-bernoulli"),
    pytest.param("quartet", ClosedFormDensityPotential("reciprocal_log2"), 5,
                 id="quartet-reciprocal_log2"),
    pytest.param("nine", BernoulliPotential((0.1,) * 8 + (0.2,)), 3, id="nine-bernoulli"),
    pytest.param("nine", BernoulliPotential((0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.12, 0.18, 0.10)),
                 3, id="nine-bernoulli-distinct"),
    pytest.param("nine", ConformalPowerPotential(0.7), 3, id="nine-tau0.7"),
])
def test_eigen_solve_table_matches_word_by_word_products(quartet, cantor, system, potential,
                                                         depth):
    """The table against ``u . A_{a_d} ... A_{a_1} h`` written plainly, one
    word and one branch matrix at a time, and the eigenpair against the
    branch matrices: ``sum_j A_j`` fixes h on the right and u on the left."""
    system = {"quartet": quartet, "cantor": cantor, "nine": _nine_map_system()}[system]
    rep = eigen_solve(system, potential, depth)
    assert rep.converged
    h, u, ops = rep.h_values, rep.nu_weights, rep.operators
    assert ops.shape == (system.m, rep.nodes, rep.nodes)
    assert abs(u.sum() - 1.0) < 1e-14 and abs(u @ h - 1.0) < 1e-14
    assert np.max(np.abs(ops.sum(axis=0) @ h - h)) < 1e-13 * np.max(np.abs(h))
    assert np.max(np.abs(u @ ops.sum(axis=0) - u)) < 1e-13 * np.max(np.abs(u))
    expected = []
    for w in itertools.product(range(system.m), repeat=depth):
        v = h
        for a in w:
            v = ops[a] @ v
        expected.append(u @ v)
    np.testing.assert_allclose(rep.mu_table, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("level", ["first", "last"])
@pytest.mark.parametrize("system, potential, depth", [
    pytest.param("quartet", ConformalPowerPotential(1.0), 4, id="quartet-tau1"),
    pytest.param("quartet", ConformalPowerPotential(0.7), 4, id="quartet-tau0.7"),
    pytest.param("nine", BernoulliPotential((0.1,) * 8 + (0.2,)), 3, id="nine-bernoulli"),
    pytest.param("nine", BernoulliPotential((0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.12, 0.18, 0.10)),
                 3, id="nine-bernoulli-distinct"),
    pytest.param("nine", ConformalPowerPotential(0.7), 3, id="nine-tau0.7"),
])
def test_eigen_solve_tables_of_two_depths_agree(quartet, system, potential, depth, level):
    # the table is built from both ends of a word, split at half its length,
    # so a shallower table splits its words elsewhere; its masses are still
    # the deeper table's marginals, to rounding
    system = {"quartet": quartet, "nine": _nine_map_system()}[system]
    k = 1 if level == "first" else depth - 1
    deep = eigen_solve(system, potential, depth).mu_table
    shallow = eigen_solve(system, potential, k).mu_table
    np.testing.assert_allclose(deep.reshape(system.m ** k, -1).sum(axis=1), shallow,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("probs", [(0.5, 0.5), (0.2,) * 5])
def test_eigen_solve_refuses_a_weight_count_before_allocating(quartet, monkeypatch, probs):
    def refuse(*args):
        raise AssertionError("computed branch weights before checking their count")

    monkeypatch.setattr(gibbs, "_branch_weights", refuse)
    with pytest.raises(ValueError, match=f"got {len(probs)} weights for 4 maps"):
        eigen_solve(quartet, BernoulliPotential(probs), depth=10)


def test_unsupported_potential_is_a_type_error(quartet):
    pot = ConformalPowerPotential(1.0)
    sb = SpectralBackend(quartet, eigen_solve(quartet, pot, depth=3), pot)
    sb.potential = "not a potential"
    for call in (lambda: eigen_solve(quartet, "not a potential", depth=3),
                 lambda: verify_gibbs_property(sb, depth=2)):
        with pytest.raises(TypeError, match="unsupported potential"):
            call()


def _solve_peak_tables(system, potential, depth):
    """The traced peak of ``eigen_solve`` and a read of its mass table, in
    depth-k tables."""
    tracemalloc.start()
    try:
        eigen_solve(system, potential, depth).mu_table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (system.m ** depth * 8)


def test_eigen_solve_peak_memory(quartet):
    # the table, then its two halves of 4^5 and 4^4 nodal rows: about 1.2
    # tables at depth 9 (the Galerkin solve held about 7.1)
    assert _solve_peak_tables(quartet, ConformalPowerPotential(1.0), 9) <= 1.5


def test_eigen_solve_peak_memory_bernoulli(quartet):
    assert _solve_peak_tables(quartet, BernoulliPotential((0.1, 0.2, 0.3, 0.4)), 9) <= 1.5


@pytest.mark.parametrize("name", ["moebius_interval_quartet", "moebius_interval_pair"])
def test_mu_table_is_built_on_first_read(name):
    system = builtin_system(name)
    rep = eigen_solve(system, ConformalPowerPotential(1.0), depth=6)
    assert "mu_table" not in vars(rep)  # the solve builds no table
    table = rep.mu_table
    assert rep.mu_table is table  # built once
    exact = DensityBackend(system, "reciprocal_log2").level_table(6)
    assert np.max(np.abs(table / exact - 1.0)) <= 1e-10


@pytest.mark.parametrize("s, detail", [
    (1e6, r"from 0 to 0\)"),  # every weight underflows
    (400.0, "from 0 to [1-9]"),  # some weights underflow
    (-1e6, r"to inf\)"),  # every weight overflows
])
def test_eigen_solve_refuses_weights_float64_cannot_hold(quartet, monkeypatch, s, detail):
    def refuse(*args):
        raise AssertionError("collocated the operator")

    monkeypatch.setattr(gibbs, "_collocate", refuse)
    with pytest.raises(ValueError, match=rf"s = {s} .*\[0.0, 1.0\].*{detail}"):
        eigen_solve(quartet, ConformalPowerPotential(s), depth=10)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_conformal_power_refuses_a_non_finite_exponent(tau):
    with pytest.raises(ValueError, match="tau must be finite"):
        ConformalPowerPotential(tau)


def test_spectral_backend_refuses_an_unconverged_report(quartet, monkeypatch):
    # 4 and 8 nodes leave lambda moving by 1e-6: the ladder ends first
    monkeypatch.setattr(gibbs, "_NODE_LADDER", (4, 8))
    pot = ConformalPowerPotential(1.0)
    rep = eigen_solve(quartet, pot, depth=6)
    assert not rep.converged and rep.iterations == 2 and rep.nodes == 8
    with pytest.raises(ValueError, match="depth-6 .* 2 solves, up to 8 nodes"):
        SpectralBackend(quartet, rep, pot)


def test_spectral_backend_refuses_a_report_of_another_system(quartet):
    # the quartet's 256-cell table would otherwise answer the pair's level-1
    # masses and feed the pair's sampler
    pot = ConformalPowerPotential(1.0)
    rep = eigen_solve(quartet, pot, depth=4)
    pair = builtin_system("moebius_interval_pair")
    with pytest.raises(ValueError, match="report was solved for a different system"):
        SpectralBackend(pair, rep, pot)


# ---------------------------------------------------------------------------
# spectral backend
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def spectral_quartet(quartet):
    rep = eigen_solve(quartet, ConformalPowerPotential(1.0), depth=8)
    return SpectralBackend(quartet, rep, ConformalPowerPotential(1.0))


def test_spectral_marginalization_consistency(spectral_quartet, density_backend):
    for k in [1, 2, 4, 8]:
        got = spectral_quartet.level_table(k)
        exact = density_backend.level_table(k)
        assert np.max(np.abs(got - exact)) < 2e-5


def test_spectral_conditional_below_depth(spectral_quartet):
    w = word((2, 3), 4)
    cond = conditional_next(spectral_quartet, w)
    assert abs(cond.sum() - 1.0) < 1e-12
    assert np.all(cond > 0)


def test_spectral_extension_beyond_depth_bernoulli(cantor):
    """For a product measure the sliding-context extension is exact."""
    rep = eigen_solve(cantor, BernoulliPotential((0.3, 0.7)), depth=6)
    sb = SpectralBackend(cantor, rep, BernoulliPotential((0.3, 0.7)))
    w = word((1, 2, 2, 1, 2, 1, 1, 2, 2, 2), 2)
    exact = BernoulliBackend(cantor, (0.3, 0.7)).cylinder_measure(w)
    assert abs(sb.cylinder_measure(w) - exact) < 1e-9
    with pytest.raises(ValueError):
        sb.level_table(7)


def test_spectral_extension_matches_sliding_context_loop(quartet):
    """Past the table the law is T_d[ctx.s] / T_{d-1}[ctx], ctx = last d-1 symbols."""
    pot = ConformalPowerPotential(1.0)
    sb = SpectralBackend(quartet, eigen_solve(quartet, pot, depth=3), pot)
    deep, ctx_table = sb.level_table(3), sb.level_table(2)
    w = (2, 4, 1, 3, 3, 2, 1, 4, 4)
    mass = deep[word_index(word(w[:3], 4))]
    for i in range(3, len(w)):
        ctx = word_index(word(w[i - 2 : i], 4))
        cond = deep[ctx * 4 : ctx * 4 + 4] / ctx_table[ctx]
        assert np.max(np.abs(conditional_next(sb, word(w[:i], 4)) - cond)) < 1e-15
        mass *= cond[w[i] - 1]
    assert abs(sb.cylinder_measure(word(w, 4)) / mass - 1.0) < 1e-13


def test_skewed_weights_keep_relative_precision(cantor):
    """A tiny conditional keeps its relative precision, in the law and in deep masses."""
    probs = (1 - 1e-9, 1e-9)
    got = conditional_next(BernoulliBackend(cantor, probs), word((2, 1, 2), 2))
    assert np.max(np.abs(got / np.array(probs) - 1.0)) < 1e-15
    pot = BernoulliPotential(probs)
    sb = SpectralBackend(cantor, eigen_solve(cantor, pot, depth=4), pot)
    deep, ctx_table = sb.level_table(4), sb.level_table(3)
    w = (1, 2, 1, 1, 2, 2, 1, 2, 1, 1, 1, 2, 1, 2)
    mass = deep[word_index(word(w[:4], 2))]
    for i in range(4, len(w)):
        ctx = word_index(word(w[i - 3 : i], 2))
        cond = deep[ctx * 2 : ctx * 2 + 2] / ctx_table[ctx]
        assert np.max(np.abs(conditional_next(sb, word(w[:i], 2)) / cond - 1.0)) < 1e-15
        mass *= cond[w[i] - 1]
    assert abs(sb.cylinder_measure(word(w, 2)) / mass - 1.0) < 2e-15


@pytest.mark.parametrize("name, pot, digest", [
    ("moebius_interval_quartet", ConformalPowerPotential(1.0),
     "eaf2ced432a73a57dee32c2d15ec361b2de771fa820c7d071963e85c558dfe01"),
    ("middle_third_cantor", BernoulliPotential((1 - 1e-9, 1e-9)),
     "4a8ff6413dfb29fc94b97b09d0a4bff9fe6ed5f52136e4f06c172a778bd13324"),
])
def test_spectral_extension_bits_are_pinned(name, pot, digest):
    """Masses of words of length 5-15 past a depth-4 table, bit for bit."""
    system = builtin_system(name)
    sb = SpectralBackend(system, eigen_solve(system, pot, depth=4), pot)
    m = system.m
    masses = np.array([
        sb.cylinder_measure(word(tuple((i * i + k * i + L) % m + 1 for i in range(L)), m))
        for L in range(5, 16) for k in range(3)
    ])
    assert hashlib.sha256(masses.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("moebius_interval_quartet", "395128f93b35b9b243cf6d2ac67df8c3f690d8871b490c181d1c200b1023d9ce"),
    ("moebius_interval_pair", "51d7adc45b18974af9d4210972931328dbc311bc0835dbb9a4064781303b4531"),
])
def test_density_conditional_after_a_long_word_is_pinned(name, digest):
    backend = DensityBackend(builtin_system(name), "reciprocal_log2")
    m = backend.system.m
    w = word(tuple((i * i + 3 * i) % m + 1 for i in range(40)), m)
    got = conditional_next(backend, w)
    assert hashlib.sha256(got.tobytes()).hexdigest() == digest
    # the same law from the reference chain, and from a chain that reads its
    # rows before every step and so gathers each child
    reference, gathered = _ReferenceDensityChain(backend, 1), backend.chain(1)
    for s in w:
        gathered.rows()
        for chain in (reference, gathered):
            chain.advance(np.array([s]))
    for chain in (reference, gathered):
        row = chain.rows()[0]
        assert np.array_equal(row / row.sum(), got)


# ---------------------------------------------------------------------------
# the chains against their straightforward forms
# ---------------------------------------------------------------------------

class _ReferenceDensityChain:
    """The density chain recomposed at every step: the two-regime law from
    the children of each row, then the chosen child composed anew."""

    def __init__(self, backend, n_rows):
        system = self.system = backend.system
        self.cdf, self.density, self.root = backend.cdf, backend.density, backend._root
        root = _initial_state(system)
        self.maps = _child_state(system, root, np.arange(1, system.m + 1)[:, None])
        self.dets = _abs_det(system, self.maps)
        self.state = [np.repeat(c, n_rows) for c in root]

    def rows(self):
        a0, b0 = self.root
        kids = _compose_states(self.system, self.state, self.maps)
        e1, e2 = _state_apply(self.system, kids, a0), _state_apply(self.system, kids, b0)
        lo, hi = np.minimum(e1, e2), np.maximum(e1, e2)
        diffs = np.maximum(self.cdf(hi) - self.cdf(lo), 0.0)
        linear = self.dets / np.abs(_denominators(self.system, kids, a0, b0)) * self.density(lo)
        narrow = diffs.sum(axis=0, keepdims=True) < gibbs._DENSITY_LINEAR_CUTOVER
        return np.where(narrow, linear, diffs).T

    def cum_rows(self):
        return gibbs._normalized_cumsum(self.rows())

    def advance(self, symbols):
        self.state = _rescaled_state(self.system, _child_state(self.system, self.state, symbols))


class _ReferenceSpectralChain:
    """The spectral chain on a normalized copy of the deepest table."""

    def __init__(self, backend, n_rows):
        self.m, self.depth = backend.system.m, backend.max_depth
        self.tables = [backend.level_table(k) for k in range(self.depth + 1)]
        deep = self.tables[-1].reshape(-1, self.m)
        self.cond = deep / deep.sum(axis=1, keepdims=True)
        self.t, self.idx = 0, np.zeros(n_rows, dtype=np.int64)

    def cum_rows(self):
        if self.t < self.depth:
            child, parent = self.tables[self.t + 1], self.tables[self.t]
            rows = child[self.idx[:, None] * self.m + np.arange(self.m)] / parent[self.idx][:, None]
        else:
            rows = self.cond[self.idx]
        return gibbs._normalized_cumsum(rows)

    def advance(self, symbols):
        self.idx = self.idx * self.m + (symbols - 1)
        self.t += 1
        if self.t >= self.depth:
            self.idx %= self.m ** (self.depth - 1)


def _step_alike(chain, reference, n_rows, steps, seed):
    """Step both chains on the same symbols, drawn from the chain's law, and
    check their cumulative rows bit for bit at every step."""
    rng = np.random.default_rng(seed)
    symbols = np.empty(n_rows, dtype=np.int8)
    for _ in range(steps):
        cum = chain.cum_rows()
        assert np.array_equal(cum, reference.cum_rows())
        _pick_symbols(cum, rng.random(n_rows), symbols)
        chain.advance(symbols)
        reference.advance(symbols)


@pytest.mark.parametrize("name", ["moebius_interval_quartet", "moebius_interval_pair"])
def test_density_chain_matches_its_reference_across_the_cutover(name):
    backend = DensityBackend(builtin_system(name), "reciprocal_log2")
    chain = backend.chain(3)
    assert not chain._narrow
    _step_alike(chain, _ReferenceDensityChain(backend, 3), 3, 2000, seed=5)
    assert chain._narrow  # the CDF law was retired on the way


@pytest.mark.parametrize("name", ["moebius_interval_quartet", "moebius_interval_pair"])
def test_density_chain_matches_its_reference_at_sampler_scale(name):
    """100 rows over 3000 steps: the chain that reads its rows every step, and
    one advanced without them (``conditional_next``'s way), hold the
    reference's states bit for bit."""
    backend = DensityBackend(builtin_system(name), "reciprocal_log2")
    rows = 100
    chain, blind = backend.chain(rows), backend.chain(rows)
    reference = _ReferenceDensityChain(backend, rows)

    def advance(symbols):  # the child composed anew, then a copy rescaled
        mats = np.array(_child_state(reference.system, reference.state, symbols))
        mats /= np.abs(mats).max(axis=0)
        reference.state = list(mats)

    reference.advance = advance
    rng = np.random.default_rng(12)
    symbols = np.empty(rows, dtype=np.int8)
    for _ in range(3000):
        cum = chain.cum_rows()
        assert np.array_equal(cum, reference.cum_rows())
        _pick_symbols(cum, rng.random(rows), symbols)
        for c in (chain, blind, reference):
            c.advance(symbols)
        assert np.array_equal(chain.state, np.asarray(reference.state))
        assert np.array_equal(blind.state, chain.state)
    assert chain._narrow
    assert np.array_equal(blind.cum_rows(), reference.cum_rows())


def test_density_advance_gathers_the_composed_child(density_backend, monkeypatch):
    chain = density_backend.chain(3)
    chain.rows()

    def composes(*args, **kwargs):
        raise AssertionError("advance composed a child after rows()")

    monkeypatch.setattr(gibbs, "_child_state", composes)
    monkeypatch.setattr(gibbs, "_compose_states", composes)
    chain.advance(np.array([1, 4, 2], dtype=np.int8))


def test_spectral_chain_matches_its_reference_past_the_table(quartet):
    pot = ConformalPowerPotential(1.0)
    backend = SpectralBackend(quartet, eigen_solve(quartet, pot, depth=4), pot)
    _step_alike(backend.chain(3), _ReferenceSpectralChain(backend, 3), 3, 204, seed=6)


def test_spectral_law_keeps_no_copy_of_the_table(quartet):
    """The table, its level tables and a sampler's and a deep mass's working
    set fit in 2 MiB beyond the two: no normalized copy of the table."""
    pot = ConformalPowerPotential(1.0)
    report = eigen_solve(quartet, pot, depth=10)
    tracemalloc.start()
    try:
        backend = SpectralBackend(quartet, report, pot)
        chain = backend.chain(20)
        for t in range(12):
            chain.cum_rows()
            chain.advance((np.arange(20) + t) % 4 + 1)
        backend.cylinder_measure(word(tuple(i % 4 + 1 for i in range(14)), 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = 4 ** 10 * 8
    levels = sum(4 ** k for k in range(10)) * 8
    assert peak <= table + levels + 2 * 2 ** 20


@pytest.mark.parametrize("name, digest", [
    ("moebius_interval_quartet", "2b832defc14425b071195bdaea4eb1fd30c453559eb3175aab93de12de166b0f"),
    ("moebius_interval_pair", "5c95c27eab726391b4a5713ba54f2d2c5114b53d98ab5c8d5573f72f792f497c"),
])
def test_density_cylinder_masses_are_pinned(name, digest):
    backend = DensityBackend(builtin_system(name), "reciprocal_log2")
    m = backend.system.m
    masses = np.array([
        backend.cylinder_measure(word(tuple((i * k + L) % m + 1 for i in range(L)), m))
        for L in range(1, 40) for k in range(1, 5)
    ])
    assert hashlib.sha256(masses.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("kind", ["bernoulli", "density", "spectral"])
def test_words_over_another_alphabet_rejected(quartet, density_backend, spectral_quartet, kind):
    backend = {
        "bernoulli": BernoulliBackend(quartet, (0.1, 0.2, 0.3, 0.4)),
        "density": density_backend,
        "spectral": spectral_quartet,
    }[kind]
    short, deep = word((1, 2), 2), word((1, 2) * 6, 2)  # deep: past the spectral table
    for call in (cylinder_measure, conditional_next):
        with pytest.raises(ValueError, match="alphabet"):
            call(backend, short)
    for w in (short, deep):
        with pytest.raises(ValueError, match="alphabet"):
            backend.cylinder_measure(w)
    # words over the system alphabet, and bare symbol tuples, still serve
    assert cylinder_measure(backend, (1, 2)) == backend.cylinder_measure(word((1, 2), 4))


# ---------------------------------------------------------------------------
# Gibbs property
# ---------------------------------------------------------------------------

def test_verify_gibbs_bernoulli_ratio_one(cantor):
    b = BernoulliBackend(cantor, (0.25, 0.75))
    rep = verify_gibbs_property(b, depth=6)
    assert abs(rep["max_ratio"] - 1.0) < 1e-10
    assert abs(rep["min_ratio"] - 1.0) < 1e-10


def test_verify_gibbs_density_bounded_distortion(density_backend):
    rep = verify_gibbs_property(density_backend, depth=5)
    # distortion of the quartet is at most 4 per branch; anchored products
    # stay well inside a generous bracket and bracket 1
    assert 0.2 < rep["min_ratio"] <= 1.000001
    assert 1.0 - 1e-6 <= rep["max_ratio"] < 5.0


def test_verify_gibbs_spectral_bounded_distortion(quartet, density_backend):
    pot = ConformalPowerPotential(1.0)
    sb = SpectralBackend(quartet, eigen_solve(quartet, pot, depth=6), pot)
    rep = verify_gibbs_property(sb, depth=6)
    assert rep["count"] == sum(4 ** k for k in range(1, 7))
    # the collocated density and masses are the exact ones to rounding, so
    # both extreme ratios are the exact density's
    assert 0.2 < rep["min_ratio"] <= 1.0
    assert 1.0 <= rep["max_ratio"] < 5.0
    exact = verify_gibbs_property(density_backend, depth=6)
    assert abs(rep["min_ratio"] - exact["min_ratio"]) < 1e-10
    assert abs(rep["max_ratio"] - exact["max_ratio"]) < 1e-10


def _gibbs_pin_backend(name):
    cantor = builtin_system("middle_third_cantor")
    quartet = builtin_system("moebius_interval_quartet")
    pair = builtin_system("moebius_interval_pair")

    def spectral(system, pot, depth):
        return SpectralBackend(system, eigen_solve(system, pot, depth=depth), pot)

    return {
        "weighted_cantor": lambda: BernoulliBackend(cantor, (0.3, 0.7)),
        "density_quartet": lambda: DensityBackend(quartet, "reciprocal_log2"),
        "density_pair": lambda: DensityBackend(pair, "reciprocal_log2"),
        "spectral_quartet": lambda: spectral(quartet, ConformalPowerPotential(1.0), 8),
        "spectral_pair": lambda: spectral(pair, ConformalPowerPotential(0.7), 10),
        "spectral_cantor": lambda: spectral(cantor, BernoulliPotential((0.3, 0.7)), 8),
    }[name]()


# the exact extreme ratios of the walk, pinned bit for bit
GIBBS_PINS = {
    "weighted_cantor": {
        4: (1.0000000000000002, 0.9999999999999997, 30),
        6: (1.0000000000000004, 0.9999999999999997, 126),
    },
    "density_quartet": {
        4: (1.4398845936327953, 0.7227491035895058, 340),
        6: (1.4425189593130077, 0.7214355469075673, 5460),
    },
    "density_pair": {
        4: (1.3994054600054304, 0.7421594417277568, 30),
        6: (1.4315400338210886, 0.7268681088899644, 126),
    },
    # collocated eigendata: the quartet's ratios are the density's to 3e-15
    "spectral_quartet": {
        4: (1.4398845936327973, 0.7227491035895048, 340),
        6: (1.4425189593130054, 0.7214355469075657, 5460),
    },
    "spectral_pair": {
        4: (1.2673840607980162, 0.8062845103559504, 30),
        6: (1.286944636013467, 0.7940921431382244, 126),
    },
    "spectral_cantor": {
        4: (1.0000000000000093, 1.000000000000004, 30),
        6: (1.0000000000000093, 1.0000000000000007, 126),
    },
}


@pytest.mark.parametrize("depth", [0, -1])
def test_verify_gibbs_property_refuses_depth_below_one(depth):
    backend = BernoulliBackend(builtin_system("middle_third_cantor"), (0.3, 0.7))
    with pytest.raises(ValueError, match="depth must be >= 1"):
        verify_gibbs_property(backend, depth)


@pytest.mark.parametrize("name", sorted(GIBBS_PINS))
def test_verify_gibbs_property_is_pinned(name):
    backend = _gibbs_pin_backend(name)
    for depth, (hi, lo, count) in GIBBS_PINS[name].items():
        expected = {"max_ratio": hi, "min_ratio": lo, "depth": depth, "count": count}
        assert repr(verify_gibbs_property(backend, depth)) == repr(expected), (name, depth)


@pytest.mark.parametrize("name", ["moebius_interval_quartet", "moebius_interval_pair"])
def test_spectral_h_at_is_the_density(name):
    system = builtin_system(name)
    pot = ConformalPowerPotential(1.0)
    sb = SpectralBackend(system, eigen_solve(system, pot, depth=4), pot)
    xs = np.linspace(0.0, 1.0, 1999)
    assert np.max(np.abs(sb.h_at(xs) - 1.0 / (LOG2 * (1.0 + xs)))) <= 1e-12
    assert np.max(np.abs(sb.h_at(xs.reshape(-1, 1))[:, 0] - sb.h_at(xs))) <= 1e-15
    for x in xs[::97]:
        value = sb.h_at(x)
        assert isinstance(value, float) and abs(value - 1.0 / (LOG2 * (1.0 + x))) <= 1e-12


@pytest.mark.parametrize("name", ["moebius_interval_quartet", "moebius_interval_pair"])
def test_spectral_backend_frees_the_report_and_keeps_h_at(name):
    system = builtin_system(name)
    pot = ConformalPowerPotential(1.0)
    rep = eigen_solve(system, pot, depth=5)
    xs = np.linspace(0.0, 1.0, 257)
    expected = rep.h_at(xs)
    sb = SpectralBackend(system, rep, pot)
    alive = weakref.ref(rep)
    del rep
    gc.collect()
    assert alive() is None
    assert np.array_equal(sb.h_at(xs), expected)


# ---------------------------------------------------------------------------
# mixing coefficients
# ---------------------------------------------------------------------------

def test_mixing_bernoulli_zero(cantor):
    b = BernoulliBackend(cantor, (0.3, 0.7))
    for n in range(1, 9):
        assert mixing_coeff_cylinders(b, 8, n) < 1e-12
    assert abs(mixing_coeff_cylinders(b, 8, 0) - (1.0 - 0.3 ** 8)) < 1e-12


def test_mixing_density_positive_decreasing(density_backend):
    vals = [mixing_coeff_cylinders(density_backend, 8, n) for n in range(2, 7)]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mixing_guards(density_backend):
    with pytest.raises(ValueError):
        mixing_coeff_cylinders(density_backend, 8, 9)
    with pytest.raises(ValueError):
        mixing_coeff_cylinders(density_backend, 0, 0)
    assert mixing_coeff_cylinders(density_backend, 5, 5) == 0.0


@pytest.mark.parametrize("level, shown", [(-1, "-1"), (True, "True"), (2.5, "2.5"),
                                          (np.float64(1.5), "1.5")])
@pytest.mark.parametrize("name", ["bernoulli", "density", "spectral"])
def test_level_table_refuses_a_bad_level(name, level, shown, cantor, density_backend,
                                         spectral_quartet):
    backend = {"bernoulli": BernoulliBackend(cantor, (0.3, 0.7)), "density": density_backend,
               "spectral": spectral_quartet}[name]
    with pytest.raises(ValueError, match="^level") as err:
        backend.level_table(level)
    assert shown in str(err.value)
    np.testing.assert_array_equal(backend.level_table(2.0), backend.level_table(2))


def test_mixing_refuses_a_fractional_depth(cantor):
    # the joint masses read the level-2.5 table
    with pytest.raises(ValueError, match="level: 2.5 is not an integer"):
        mixing_coeff_cylinders(BernoulliBackend(cantor, (0.3, 0.7)), 2.5, 1)


@pytest.mark.parametrize("depth, message", [(2.5, "depth: 2.5 is not an integer"),
                                            (True, "depth: True is not an integer"),
                                            (-1, "depth must be >= 1, got -1")])
def test_eigen_solve_refuses_a_bad_depth(quartet, depth, message):
    with pytest.raises(ValueError, match=message):
        eigen_solve(quartet, ConformalPowerPotential(1.0), depth)


@pytest.mark.parametrize("name", ["density_quartet", "spectral_quartet", "weighted_cantor"])
def test_joint_masses_match_the_pair_identity(name, quartet, cantor, density_backend):
    pot = ConformalPowerPotential(1.0)
    backend = {
        "density_quartet": lambda: density_backend,
        "spectral_quartet": lambda: SpectralBackend(quartet, eigen_solve(quartet, pot, 6), pot),
        "weighted_cantor": lambda: BernoulliBackend(cantor, (0.3, 0.7)),
    }[name]()
    m = backend.system.m

    def words(k):
        return list(itertools.product(range(1, m + 1), repeat=k))

    for head, tail in ((1, 2), (2, 1)):
        for gap in range(4):
            got = gibbs._joint_masses(backend, head, gap, tail)
            pairs = np.array([
                [gibbs._pair_mass(backend, word(I, m), word(J, m), head + gap) for J in words(tail)]
                for I in words(head)
            ])
            # independent reference: the cylinders [I g J] summed over gap words g
            expected = np.array([
                [sum(backend.cylinder_measure(word(I + g + J, m)) for g in words(gap))
                 for J in words(tail)]
                for I in words(head)
            ])
            assert got.shape == (m ** head, m ** tail)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
            np.testing.assert_allclose(pairs, expected, rtol=1e-12, atol=0)


def test_mixing_spectral_depth_guard(spectral_quartet):
    with pytest.raises(ValueError):
        mixing_coeff_cylinders(spectral_quartet, 9, 2)


@given(st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_mixing_matches_bruteforce(n):
    """Independent brute-force evaluation of the coefficient at small depth."""
    quartet = builtin_system("moebius_interval_quartet")
    b = DensityBackend(quartet, "reciprocal_log2")
    depth_k = 5
    if n > depth_k:
        n = depth_k
    got = mixing_coeff_cylinders(b, depth_k, n)
    worst = 0.0
    if n == depth_k:
        expected = 0.0
    else:
        from itertools import product

        for I in product(range(1, 5), repeat=n):
            mi = cylinder_measure(b, word(I, 4))
            for J in product(range(1, 5), repeat=depth_k - n):
                mj = cylinder_measure(b, word(J, 4))
                mij = cylinder_measure(b, word(I + J, 4))
                worst = max(worst, abs(mij / mj - mi))
        expected = worst
    assert abs(got - expected) < 1e-11
