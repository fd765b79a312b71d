"""Tests for the induced map, window orbits, block sampling, and correlations.

Oracles:

* On the ternary Cantor system the induced map is y -> 3y mod the piece
  layout, so pi((12)^inf) = 1/4 maps to 3/4 and back.
* On the four-branch interval family the second branch is y = 1/(2(1+x)),
  whose inverse at y = 0.3 is 1/0.6 - 1 = 2/3.
* Product measures make symbols i.i.d., so every correlation with a gap
  factorizes to zero and empirical symbol frequencies obey binomial CIs.
* The block sampler is checked row by row against ``_reference_row``, which
  draws one symbol per step from its own Philox generator.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from selfconformal import dynamics
from selfconformal.dynamics import (
    correlation,
    project_windows,
    sample_symbol_block,
    t_apply,
)
from selfconformal.gibbs import (
    BernoulliBackend,
    BernoulliPotential,
    ConformalPowerPotential,
    DensityBackend,
    SpectralBackend,
    eigen_solve,
)
from selfconformal.ifs import builtin_system
from selfconformal.symbolic import FiniteWord


def _reference_row(backend, master_seed, sample_id, length):
    """Row ``sample_id`` drawn one symbol at a time: uniform ``t`` of the
    Philox stream keyed ``(master_seed, sample_id)`` picks the first symbol
    whose cumulative weight exceeds it (the last one past a short sum), then
    the chain advances."""
    gen = np.random.Generator(np.random.Philox(key=[master_seed, sample_id]))
    chain = backend.chain(1)
    row = []
    for _ in range(length):
        cum = chain.cum_rows()[0]
        symbol = min(int((gen.random() >= cum).sum()), cum.size - 1) + 1
        chain.advance(np.array([symbol]))
        row.append(symbol)
    return tuple(row)


def _orbit(system, period, N, tol, prefix=()):
    """pi(sigma^n omega), n = 0..N, for omega = prefix . (period)^inf."""
    depth = system.depth_for_diameter(tol)
    n = N + depth
    syms = (list(prefix) + list(period) * (n // len(period) + 1))[:n]
    return project_windows(np.array(syms), system, depth)


@pytest.fixture(scope="module")
def cantor():
    return builtin_system("middle_third_cantor")


@pytest.fixture(scope="module")
def quartet():
    return builtin_system("moebius_interval_quartet")


@pytest.fixture(scope="module")
def gasket():
    return builtin_system("sierpinski_triangle")


@pytest.fixture(scope="module")
def cantor_weighted(cantor):
    return BernoulliBackend(cantor, (0.3, 0.7))


@pytest.fixture(scope="module")
def quartet_density(quartet):
    return DensityBackend(quartet, "reciprocal_log2")


@pytest.fixture(scope="module")
def cantor_spectral(cantor):
    pot = BernoulliPotential((0.3, 0.7))
    report = eigen_solve(cantor, pot, depth=6)
    return SpectralBackend(cantor, report, pot)


@pytest.fixture(scope="module")
def quartet_spectral_depth1(quartet):
    # the shallowest table the schema allows: past the first symbol the
    # context is empty and every row reads the one depth-1 conditional
    pot = ConformalPowerPotential(1.0)
    return SpectralBackend(quartet, eigen_solve(quartet, pot, depth=1), pot)


# ---------------------------------------------------------------------------
# induced map
# ---------------------------------------------------------------------------


class TestInducedMap:
    def test_cantor_quarter_swaps(self, cantor):
        y = t_apply(cantor, 0.25)
        assert y.coords[0] == pytest.approx(0.75, abs=1e-14)
        assert t_apply(cantor, y).coords[0] == pytest.approx(0.25, abs=1e-14)

    def test_cantor_fixed_point(self, cantor):
        assert t_apply(cantor, 0.0).coords[0] == 0.0

    def test_quartet_second_branch(self, quartet):
        # x = 0.3 lies in [1/4, 1/2): 1/(2x) - 1
        assert t_apply(quartet, 0.3).coords[0] == pytest.approx(2 / 3, abs=1e-14)

    def test_boundary_takes_lowest_branch(self, quartet):
        # 1/4 closes both the first and second piece hulls; branch 1 wins
        assert t_apply(quartet, 0.25).coords[0] == pytest.approx(1.0, abs=1e-14)

    def test_gasket_vertex_piece(self, gasket):
        y = t_apply(gasket, (0.25, 0.0))
        assert y.coords == pytest.approx((0.5, 0.0), abs=1e-14)

    def test_point_off_attractor_raises(self, cantor):
        with pytest.raises(ValueError):
            t_apply(cantor, 0.5)

    def test_depth_hint_sharpens_membership(self, cantor):
        # 0.15 sits in the level-2 gap (1/9, 2/9): the depth-1 hull accepts
        # it but the depth-2 hulls reject it
        assert t_apply(cantor, 0.15).coords[0] == pytest.approx(0.45, abs=1e-14)
        with pytest.raises(ValueError):
            t_apply(cantor, 0.15, depth_hint=2)

    def test_depth_hint_validation(self, cantor):
        with pytest.raises(ValueError):
            t_apply(cantor, 0.25, depth_hint=0)


# ---------------------------------------------------------------------------
# symbolic orbits
# ---------------------------------------------------------------------------


class TestOrbits:
    def test_period_two_orbit(self, cantor):
        vals = _orbit(cantor, (1, 2), 3, 1e-9)
        assert vals == pytest.approx([0.25, 0.75, 0.25, 0.75], abs=2e-9)

    def test_constant_orbit_at_fixed_point(self, cantor):
        assert np.all(_orbit(cantor, (1,), 5, 1e-9) == 0.0)

    def test_prefix_consumed(self, cantor):
        vals = _orbit(cantor, (1,), 2, 1e-9, prefix=(2,))
        assert vals == pytest.approx([2 / 3, 0.0, 0.0], abs=2e-9)

    def test_quartet_branch2_fixed_point(self, quartet):
        # 1/(2(1+x)) = x at x = (sqrt(3) - 1)/2
        pts = _orbit(quartet, (2,), 4, 1e-10)
        fix = (math.sqrt(3.0) - 1.0) / 2.0
        np.testing.assert_allclose(pts, fix, atol=2e-10)

    def test_gasket_orbit_shape(self, gasket):
        pts = _orbit(gasket, (1,), 4, 1e-8)
        assert pts.shape == (5, 2)
        np.testing.assert_allclose(pts, 0.0, atol=1e-8)

    def test_projection_matches_coding_map(self, quartet, quartet_density):
        # each window equals its word's maps composed on the base point, at
        # the depth where cylinders are shorter than tol
        depth = quartet.depth_for_diameter(1e-10)
        row = sample_symbol_block(quartet_density, 11, [0], 30 + depth)[0]
        pts = project_windows(row, quartet, depth)
        for n in [0, 7, 30]:
            word = FiniteWord(tuple(row[n : n + depth]), 4)
            x = quartet.apply_word(word, quartet.base_point())
            assert abs(pts[n] - x.coords[0]) <= 2e-10

    def test_conjugacy_with_induced_map(self, quartet, quartet_density):
        depth = quartet.depth_for_diameter(1e-11)
        row = sample_symbol_block(quartet_density, 5, [0], 40 + depth)[0]
        pts = project_windows(row, quartet, depth)
        for n in range(40):
            stepped = t_apply(quartet, float(pts[n]), tol=1e-8)
            assert abs(stepped.coords[0] - pts[n + 1]) < 1e-8

    def test_window_count(self, cantor):
        out = project_windows(np.array([1, 2, 1, 2, 2]), cantor, 3)
        assert out.shape == (3,)
        with pytest.raises(ValueError):
            project_windows(np.array([1, 2]), cantor, 3)

    def test_negative_N_raises(self, cantor):
        # a row one symbol short of a window has N = -1 orbit steps
        depth = cantor.depth_for_diameter(1e-9)
        with pytest.raises(ValueError):
            project_windows(np.ones(depth - 1, np.int8), cantor, depth)
        with pytest.raises(ValueError):
            project_windows(np.array([1, 2]), cantor, 0)

    def test_empty_block(self, cantor, gasket):
        out = project_windows(np.empty((0, 10), np.int8), cantor, 3)
        assert out.shape == (0, 8)
        assert project_windows(np.empty((0, 10), np.int8), gasket, 3).shape == (0, 8, 2)

    @pytest.mark.parametrize("bad", [0, -1, 3])
    def test_symbol_outside_alphabet_raises(self, cantor, bad):
        with pytest.raises(ValueError, match=r"1\.\.2"):
            project_windows(np.array([bad, 1, 2, 1]), cantor, 3)
        with pytest.raises(ValueError, match=r"1\.\.2"):
            project_windows(np.array([[1, 2, 1, 2], [1, bad, 1, 2]], np.int8), cantor, 2)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class TestSampling:
    def test_fixed_seed_reproducible(self, cantor_weighted):
        a = sample_symbol_block(cantor_weighted, 99, [3], 200)
        b = sample_symbol_block(cantor_weighted, 99, [3], 200)
        np.testing.assert_array_equal(a, b)
        c = sample_symbol_block(cantor_weighted, 99, [4], 200)
        assert not np.array_equal(a, c)

    def test_incremental_reads_match_bulk(self, quartet_density):
        # a shorter block is a prefix of a longer one
        a = sample_symbol_block(quartet_density, 13, [0], 10)
        b = sample_symbol_block(quartet_density, 13, [0], 25)
        np.testing.assert_array_equal(a, b[:, :10])

    @pytest.mark.parametrize(
        "backend_name",
        ["bernoulli", "bernoulli_m3", "bernoulli_m4", "bernoulli_short_sum", "density",
         "spectral", "spectral_depth1"],
    )
    def test_block_matches_streams(
        self, backend_name, monkeypatch, cantor, gasket, quartet, cantor_weighted,
        quartet_density, cantor_spectral, quartet_spectral_depth1,
    ):
        # a weight row whose cumulative sum ends at 0.5: half the uniforms
        # land past it and both samplers give them the last symbol
        short_sum = BernoulliBackend(cantor, (0.3, 0.7))
        short_sum.probs = np.array([0.2, 0.3])
        backend = {
            "bernoulli": cantor_weighted,
            "bernoulli_m3": BernoulliBackend(gasket, (0.2, 0.3, 0.5)),
            "bernoulli_m4": BernoulliBackend(quartet, (0.1, 0.2, 0.3, 0.4)),
            "bernoulli_short_sum": short_sum,
            "density": quartet_density,
            "spectral": cantor_spectral,
            "spectral_depth1": quartet_spectral_depth1,
        }[backend_name]
        # windows of 7 // 3 = 2 columns then start at uniforms 2, 4, 6, ...:
        # inside a Philox block; a 2-column Bernoulli window maps its rows in
        # batches of 5 // 2 = 2, the last one partial
        monkeypatch.setattr(dynamics, "_WINDOW_CELLS", 7)
        monkeypatch.setattr(dynamics, "_DRAW_CELLS", 5)
        ids = [5, 0, 2]  # unsorted
        for length in (1, 3, 4, 5, 60, dynamics._WINDOW_CELLS + 1):
            expected = {sid: _reference_row(backend, 42, sid, length) for sid in set(ids)}
            block = sample_symbol_block(backend, 42, ids, length)
            assert block.shape == (len(ids), length)
            for row, sid in zip(block, ids):
                assert tuple(int(v) for v in row) == expected[sid], (length, sid)

    @pytest.mark.parametrize("backend_name", ["bernoulli", "density", "spectral"])
    def test_block_with_no_ids_is_empty(
        self, backend_name, cantor_weighted, quartet_density, cantor_spectral
    ):
        backend = {"bernoulli": cantor_weighted, "density": quartet_density,
                   "spectral": cantor_spectral}[backend_name]
        for length in (0, 1, 7):
            block = sample_symbol_block(backend, 42, [], length)
            assert block.shape == (0, length) and block.dtype == np.int8

    def test_bernoulli_block_after_chain_block(self, cantor_weighted, quartet_density):
        sample_symbol_block(quartet_density, 42, [3, 1], 9)
        block = sample_symbol_block(cantor_weighted, 42, [1, 3], 9)
        for row, sid in zip(block, [1, 3]):
            assert tuple(int(v) for v in row) == _reference_row(cantor_weighted, 42, sid, 9)

    def test_block_chunking_invariant(self, quartet_density, monkeypatch):
        monkeypatch.setattr(dynamics, "_WINDOW_CELLS", 7)
        a = sample_symbol_block(quartet_density, 3, [0, 1], 50)
        monkeypatch.setattr(dynamics, "_WINDOW_CELLS", 100)
        b = sample_symbol_block(quartet_density, 3, [0, 1], 50)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("backend_name", ["bernoulli", "density", "spectral"])
    @pytest.mark.parametrize("widths", [[1] * 9, [2, 3, 4], [4, 1, 4], [9]])
    def test_source_windows_concatenate_to_the_block(
        self, backend_name, widths, cantor_weighted, quartet_density, cantor_spectral
    ):
        # a source's consecutive windows are the columns of one block, with
        # window edges inside and on Philox blocks
        backend = {"bernoulli": cantor_weighted, "density": quartet_density,
                   "spectral": cantor_spectral}[backend_name]
        ids = [4, 1, 7]
        source = dynamics.SymbolSource(backend, 21, ids)
        windows = [sample_symbol_block(backend, 21, ids, w, source=source) for w in widths]
        np.testing.assert_array_equal(np.concatenate(windows, axis=1),
                                      sample_symbol_block(backend, 21, ids, sum(widths)))
        assert source.drawn == sum(widths)

    def test_source_of_other_arguments_refused(self, cantor_weighted, quartet_density):
        source = dynamics.SymbolSource(cantor_weighted, 21, [4, 1])
        for backend, seed, ids in ((quartet_density, 21, [4, 1]), (cantor_weighted, 22, [4, 1]),
                                   (cantor_weighted, 21, [1, 4])):
            with pytest.raises(ValueError, match="source was opened"):
                sample_symbol_block(backend, seed, ids, 3, source=source)

    @pytest.mark.parametrize("seed, ids, bad", [
        (1, [-1, 0], "sample_ids"), (1, [2 ** 64], "sample_ids"), (1, [1.5], "sample_ids"),
        (1, [True], "sample_ids"), (1, [3, 3], "sample_ids"), (-1, [0], "master_seed"),
        (2 ** 64, [0], "master_seed"), (2.0, [0], "master_seed"),
    ])
    def test_bad_keys_refused(self, cantor_weighted, quartet_density, seed, ids, bad):
        for backend in (cantor_weighted, quartet_density):
            with pytest.raises(ValueError, match=bad):
                sample_symbol_block(backend, seed, ids, 4)

    def test_largest_keys_accepted(self, cantor_weighted):
        top = 2 ** 64 - 1
        block = sample_symbol_block(cantor_weighted, top, [top, np.uint64(0)], 5)
        assert tuple(int(v) for v in block[0]) == _reference_row(cantor_weighted, top, top, 5)

    def test_spectral_of_bernoulli_samples_identically(self, cantor, cantor_weighted, cantor_spectral):
        # the spectral table of a product potential reproduces the product
        # conditionals to float precision, hence identical symbol picks
        a = sample_symbol_block(cantor_weighted, 8, [0, 1], 120)
        b = sample_symbol_block(cantor_spectral, 8, [0, 1], 120)
        np.testing.assert_array_equal(a, b)

    def test_uniform_symbol_frequency(self, cantor):
        backend = BernoulliBackend(cantor, (0.5, 0.5))
        syms = sample_symbol_block(backend, 2026, [0], 100_000)[0]
        freq = float((syms == 1).mean())
        assert 0.497 <= freq <= 0.503

    def test_weighted_depth2_frequencies(self, cantor_weighted):
        block = sample_symbol_block(cantor_weighted, 9, range(4000), 2)
        expected = {(1, 1): 0.09, (1, 2): 0.21, (2, 1): 0.21, (2, 2): 0.49}
        for pair, p in expected.items():
            freq = float(((block[:, 0] == pair[0]) & (block[:, 1] == pair[1])).mean())
            sigma = math.sqrt(p * (1 - p) / 4000)
            assert abs(freq - p) <= 3.5 * sigma

    def test_density_first_symbol_marginal(self, quartet_density):
        # depth-1 masses log2(5/4), log2(6/5), log2(10/9), log2(6/5)
        block = sample_symbol_block(quartet_density, 77, range(4000), 1)
        masses = [
            math.log(5 / 4) / math.log(2),
            math.log(6 / 5) / math.log(2),
            math.log(10 / 9) / math.log(2),
            math.log(6 / 5) / math.log(2),
        ]
        for j, p in enumerate(masses, start=1):
            freq = float((block[:, 0] == j).mean())
            sigma = math.sqrt(p * (1 - p) / 4000)
            assert abs(freq - p) <= 4 * sigma

    def test_density_depth2_joint_law(self, quartet_density):
        block = sample_symbol_block(quartet_density, 123, range(3000), 2)
        for s1, s2 in itertools.product(range(1, 5), repeat=2):
            p = quartet_density.cylinder_measure(FiniteWord((s1, s2), 4))
            freq = float(((block[:, 0] == s1) & (block[:, 1] == s2)).mean())
            sigma = math.sqrt(p * (1 - p) / 3000)
            assert abs(freq - p) <= 4.5 * sigma

    def test_deep_density_stream_stays_nondegenerate(self, quartet_density):
        # beyond ~55 symbols the running cell outruns float CDF subtraction;
        # the chain must keep sampling the conditional law via its linear
        # fallback instead of collapsing to a constant symbol
        block = sample_symbol_block(quartet_density, 55, range(40), 400)
        deep = block[:, 100:]
        freq1 = float((deep == 1).mean())
        assert 0.2 < freq1 < 0.45  # stationary value is near log2(5/4) ~ 0.32
        assert all(len(np.unique(row)) > 1 for row in deep)

    def test_deep_density_block_matches_stream(self, quartet_density):
        block = sample_symbol_block(quartet_density, 55, [2], 400)
        assert tuple(int(v) for v in block[0]) == _reference_row(quartet_density, 55, 2, 400)

    def test_birkhoff_average(self, cantor_weighted):
        syms = sample_symbol_block(cantor_weighted, 31, [0], 100_000)[0]
        avg = float((syms == 1).mean())
        slack = 3.0 * math.sqrt(0.3 * 0.7 / 100_000) * 10.0
        assert abs(avg - 0.3) <= slack

    @pytest.mark.parametrize("name, rows, length, digest", [
        ("moebius_interval_quartet", 3, 5000,
         "3e6fa2a7bb29d1cade7c82bda425a1db7a70180f64c08cb76d403917658b193c"),
        ("moebius_interval_quartet", 200, 300,
         "f8e8d08147309af95593f0841a7a550af9f3c7cdb057a413fbd1a2d6a4f00b3c"),
        ("moebius_interval_pair", 3, 5000,
         "eaf302f73d761c46068367111daf7bff9fc9e2f61ef92cc2b399648735603a2f"),
        ("moebius_interval_pair", 200, 300,
         "6a6bc90283d6e3644f8832d770774450bab05a5a3e10a2d38fc6838224b1571d"),
    ])
    def test_density_symbols_are_pinned(self, name, rows, length, digest):
        """The density chain's symbols bit for bit: 5000 steps run far past
        the cell mass where it switches to its length-ratio law."""
        backend = DensityBackend(builtin_system(name), "reciprocal_log2")
        block = sample_symbol_block(backend, 2024, range(rows), length)
        assert hashlib.sha256(block.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name, probs, rows, length, digest", [
        ("middle_third_cantor", (0.3, 0.7), 3, 100_000,
         "475f81ebc0bde376f1c175cd795f0ed9d5cc3af22e08b8afa1f3cadad499fc76"),
        ("middle_third_cantor", (0.3, 0.7), 1000, 300,
         "bc763a36f8fa9f16830e8416d070781b68e1d5f4da2be818df4552dc3beedb56"),
        ("sierpinski_triangle", (0.2, 0.3, 0.5), 3, 100_000,
         "572e06a54df87c24c6d621be129db53d7e2a0fb34f822d8397234e7dcd2be1a2"),
        ("sierpinski_triangle", (0.2, 0.3, 0.5), 1000, 300,
         "ead5b82f53bda50739f4f42cb651dbb7e8e9ba09fc4af6a7c162e530368e2144"),
        ("moebius_interval_quartet", (0.1, 0.2, 0.3, 0.4), 3, 100_000,
         "515777bfec2343b61b340d2c19fd8de98233ef0e6142fb96fa2c5c758f853063"),
        ("moebius_interval_quartet", (0.1, 0.2, 0.3, 0.4), 1000, 300,
         "221329b367c325e21da67ba220ad1eafb8adbe4612b4bb060bd476e8ca04f0e4"),
    ])
    def test_bernoulli_symbols_are_pinned(self, name, probs, rows, length, digest):
        """The i.i.d. symbols bit for bit: 3 long rows span several windows,
        1000 short rows more than one row batch of a window."""
        assert length > dynamics._window_width(rows) or (
            rows > dynamics._DRAW_CELLS // dynamics._window_width(rows))
        backend = BernoulliBackend(builtin_system(name), probs)
        block = sample_symbol_block(backend, 2024, range(rows), length)
        assert hashlib.sha256(block.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


class TestCorrelation:
    def test_product_measure_decorrelates(self, cantor):
        backend = BernoulliBackend(cantor, (0.5, 0.5))
        w1 = FiniteWord((1,), 2)
        w2 = FiniteWord((2,), 2)
        assert correlation(cantor, backend, w1, w2, 5) == 0.0

    def test_zero_gap_is_indicator_variance(self, cantor, cantor_weighted):
        w = FiniteWord((1,), 2)
        out = correlation(cantor, cantor_weighted, w, w, 0)
        assert out == pytest.approx(0.3 - 0.09, abs=1e-15)

    def test_overlap_merge(self, cantor, cantor_weighted):
        # [12] and sigma^{-1}[21] intersect in [121]
        out = correlation(
            cantor, cantor_weighted, FiniteWord((1, 2), 2), FiniteWord((2, 1), 2), 1
        )
        assert out == pytest.approx(0.3 * 0.7 * 0.3 - 0.21 * 0.21, abs=1e-15)

    def test_overlap_mismatch_gives_empty_joint(self, cantor, cantor_weighted):
        out = correlation(
            cantor, cantor_weighted, FiniteWord((1, 1), 2), FiniteWord((2, 2), 2), 1
        )
        assert out == pytest.approx(-0.09 * 0.49, abs=1e-15)

    def test_full_union_is_constant_function(self, cantor, cantor_weighted):
        whole = [FiniteWord((1,), 2), FiniteWord((2,), 2)]
        out = correlation(cantor, cantor_weighted, whole, FiniteWord((1,), 2), 4)
        assert abs(out) < 1e-14

    def test_density_matches_brute_force(self, quartet, quartet_density):
        w = FiniteWord((1,), 4)
        series = []
        for n in range(1, 7):
            fast = correlation(quartet, quartet_density, w, w, n)
            brute = 0.0
            for gap in itertools.product(range(1, 5), repeat=n - 1):
                brute += quartet_density.cylinder_measure(
                    FiniteWord((1,) + gap + (1,), 4)
                )
            brute -= quartet_density.cylinder_measure(w) ** 2
            assert fast == pytest.approx(brute, abs=1e-12)
            series.append(abs(fast))
        # exponential memory loss: strictly shrinking from n = 2 on
        assert all(series[i + 1] < series[i] for i in range(1, 5))
        slope = np.polyfit(np.arange(2, 7), np.log(series[1:]), 1)[0]
        assert slope < -0.5

    def test_spectral_beyond_table_route(self, cantor, cantor_spectral, cantor_weighted):
        # within the depth-6 table the pair masses are the Bernoulli ones;
        # one level past it the exact joint is refused, not extrapolated
        w = FiniteWord((1,), 2)
        for n in range(6):
            near = correlation(cantor, cantor_spectral, w, w, n)
            assert near == pytest.approx(correlation(cantor, cantor_weighted, w, w, n), abs=1e-12)
        with pytest.raises(ValueError, match="level 10 is beyond the spectral table depth 6"):
            correlation(cantor, cantor_spectral, w, w, 9)

    def test_spectral_gap_words_match_cylinder_loop(self, quartet):
        # within a depth-8 table the joint is one table read; the loop over
        # cylinder_measure is the reference (gaps of 0 to 4 free symbols)
        pot = ConformalPowerPotential(1.0)
        sb = SpectralBackend(quartet, eigen_solve(quartet, pot, depth=8), pot)
        I, J = FiniteWord((1, 2), 4), FiniteWord((4, 1), 4)
        mu = sb.cylinder_measure(I) * sb.cylinder_measure(J)
        for n in range(2, 7):
            loop = sum(
                sb.cylinder_measure(FiniteWord(I.symbols + gap + J.symbols, 4))
                for gap in itertools.product(range(1, 5), repeat=n - 2)
            )
            assert correlation(quartet, sb, I, J, n) + mu == pytest.approx(loop, rel=1e-12)
        with pytest.raises(ValueError, match="level 9 is beyond the spectral table depth 8"):
            correlation(quartet, sb, I, J, 7)

    def test_invariance_under_preimage(self, quartet_density):
        # summing mu([iJ]) over first symbols recovers mu([J])
        rng = np.random.default_rng(4)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            J = FiniteWord(tuple(rng.integers(1, 5, size=k)), 4)
            total = sum(
                quartet_density.cylinder_measure(FiniteWord((i,) + J.symbols, 4))
                for i in range(1, 5)
            )
            assert total == pytest.approx(quartet_density.cylinder_measure(J), abs=1e-10)

    def test_validation(self, cantor, cantor_weighted):
        w = FiniteWord((1,), 2)
        with pytest.raises(ValueError):
            correlation(cantor, cantor_weighted, w, w, -1)
        with pytest.raises(ValueError):
            correlation(
                cantor, cantor_weighted, [w, FiniteWord((1, 2), 2)], w, 1
            )  # nested cylinders
        other = builtin_system("moebius_interval_pair")
        with pytest.raises(ValueError):
            correlation(other, cantor_weighted, w, w, 1)
