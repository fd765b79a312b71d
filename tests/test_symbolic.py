"""Symbol streams, finite words, and the coding map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfconformal.symbolic import (
    FiniteWord,
    PeriodicTail,
    PointRd,
    SymbolStream,
    as_point,
    coding_map_pi,
    constant_stream,
    periodic_stream,
    shift,
    symbolic_dist,
    word,
)
from selfconformal.ifs import builtin_system


def test_finite_word_basics():
    w = word("1212", 2)
    assert len(w) == 4
    assert w[0] == 1 and w[3] == 2
    assert w.prefix(2) == word("12", 2)
    assert w.suffix(2) == word("12", 2)
    assert word("12", 2).is_prefix_of(w)
    assert w.concat(word("1", 2)) == word("12121", 2)
    assert w.append(2) == word("12122", 2)


def test_finite_word_validation():
    with pytest.raises(ValueError):
        FiniteWord((0, 1), 2)
    with pytest.raises(ValueError):
        FiniteWord((1, 3), 2)


def test_periodic_stream_read_and_shift():
    s = periodic_stream("12", "21", 2)
    assert s.read(7) == (1, 2, 2, 1, 2, 1, 2)
    t = shift(s)
    assert t.read(6) == (2, 2, 1, 2, 1, 2)
    assert t.is_periodic()


def test_constant_stream():
    s = constant_stream(2, 3)
    assert s.read(5) == (2, 2, 2, 2, 2)
    assert shift(s).read(3) == (2, 2, 2)


def test_symbolic_dist_prefix_rule():
    a = periodic_stream("", "12", 2)
    b = periodic_stream("", "11", 2)
    # streams agree on the first symbol only: distance 2^{-1}
    assert symbolic_dist(a, b, 64) == 0.5
    c = periodic_stream("1", "12", 2)  # 1,1,2,1,2...
    d = periodic_stream("11", "21", 2)  # 1,1,2,1,2,1...
    # c: 1 1 2 1 2 1 2... d: 1 1 2 1 2 1... equal forever -> distance 0
    assert symbolic_dist(c, d, 64) == 0.0


def test_symbolic_dist_equal_periodic_is_zero_and_mismatch_raises():
    a = periodic_stream("", "121", 2)
    b = periodic_stream("121", "121", 2)
    assert symbolic_dist(a, b, 32) == 0.0
    with pytest.raises(ValueError):
        symbolic_dist(a, periodic_stream("", "12", 3), 32)


@given(st.integers(2, 4), st.lists(st.integers(1, 4), min_size=1, max_size=8),
       st.lists(st.integers(1, 4), min_size=1, max_size=8),
       st.lists(st.integers(1, 4), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_symbolic_dist_ultrametric(m, pa, pb, pc):
    pa = [1 + (s - 1) % m for s in pa]
    pb = [1 + (s - 1) % m for s in pb]
    pc = [1 + (s - 1) % m for s in pc]
    a = periodic_stream("", pa, m)
    b = periodic_stream("", pb, m)
    c = periodic_stream("", pc, m)
    dab = symbolic_dist(a, b, 48)
    dbc = symbolic_dist(b, c, 48)
    dac = symbolic_dist(a, c, 48)
    assert dac <= max(dab, dbc) + 1e-15


def test_coding_map_cantor_values():
    sys_ = builtin_system("middle_third_cantor")
    # all-ones word -> 0; all-twos -> 1; (2,1,1,1,...) -> 2/3
    assert abs(coding_map_pi(sys_, constant_stream(1, 2), 1e-12).x - 0.0) < 1e-12
    assert abs(coding_map_pi(sys_, constant_stream(2, 2), 1e-12).x - 1.0) < 1e-12
    p = periodic_stream("2", "1", 2)
    assert abs(coding_map_pi(sys_, p, 1e-12).x - 2.0 / 3.0) < 1e-12
    # (0.7)_3-style periodic point: (2,1,1,2)^infinity -> 0.7
    s = periodic_stream("", "2112", 2)
    assert abs(coding_map_pi(sys_, s, 1e-13).x - 0.7) < 1e-12


def test_coding_map_commutes_with_shift():
    sys_ = builtin_system("middle_third_cantor")
    s = periodic_stream("12", "212", 2)
    tol = 1e-10
    x = coding_map_pi(sys_, s, tol)
    y = coding_map_pi(sys_, shift(s), tol)
    # phi_{first symbol}(pi(shifted)) == pi(stream) within 2*tol
    first = s.read(1)[0]
    from selfconformal.ifs import map_apply

    img = map_apply(sys_.maps[first - 1], y)
    assert abs(img.x - x.x) <= 2 * tol



@pytest.mark.parametrize("period", [(2,), (1, 2), (2, 1, 1, 2)])
@pytest.mark.parametrize("offset", range(6))
def test_shift_of_periodic_tail_drops_one_symbol(period, offset):
    s = SymbolStream((), PeriodicTail(period), 2, offset)
    t = shift(s)
    assert t.tail_offset == 0
    assert t.read(12) == s.read(13)[1:]

@given(st.lists(st.integers(1, 2), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_coding_map_lands_in_cylinder(prefix):
    sys_ = builtin_system("middle_third_cantor")
    s = periodic_stream(prefix, "12", 2)
    pt = coding_map_pi(sys_, s, 1e-10)
    box = sys_.word_box(FiniteWord(tuple(prefix), 2))
    assert box.lo[0] - 1e-9 <= pt.x <= box.hi[0] + 1e-9


def test_point_helpers():
    p = as_point(0.5)
    assert isinstance(p, PointRd) and p.d == 1 and p.x == 0.5
    q = as_point((1.0, 2.0))
    assert q.d == 2 and q.y == 2.0
    assert abs(p.dist(as_point(0.25)) - 0.25) < 1e-15
    assert abs(q.dist(as_point((1.0, 0.0))) - 2.0) < 1e-15


def test_random_tail_stream_is_reproducible_and_shareable():
    # a deterministic 'random' tail: draw(k, history) returns k alternating symbols
    from selfconformal.symbolic import RandomTail

    def draw(k, history):
        start = len(history)
        return [1 + (start + i) % 2 for i in range(k)]

    tail = RandomTail(draw)
    s = SymbolStream(prefix=(2, 2), tail=tail, m=2)
    assert s.read(6) == (2, 2, 1, 2, 1, 2)
    t = shift(s)
    # shifted stream shares the same tail buffer
    assert t.read(5) == (2, 1, 2, 1, 2)
    assert s.read(8) == (2, 2, 1, 2, 1, 2, 1, 2)
