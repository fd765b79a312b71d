"""Conformal iterated function systems on the line and the plane.

A system is a finite list of uniformly contracting conformal maps on a box
domain.  Supported map families:

* ``Affine1D``  -- x |-> a*x + b with 0 < |a| < 1;
* ``Moebius1D`` -- x |-> (p*x + q)/(r*x + s), pole outside the domain;
* ``Similarity2D`` -- rotation/reflection + scaling + translation.

Every map is carried as a 2x2 coefficient matrix ``(p, q, r, s)`` over its
coordinate field plus a ``reflect`` bit: real on the line, complex in the
plane, where a point (x, y) is z = x + iy and a similarity is
z |-> a*z + b, or a*conj(z) + b when it reflects (a = scale * e^{i rotation},
b = translation).  One set of Moebius helpers therefore evaluates, composes
and differentiates the maps of both dimensions: finite compositions are again
single maps, and quantities such as cylinder-interval endpoints and
sup-derivatives over an interval are evaluated in closed form (monotone
analysis of (r*x+s)^2), not by sampling.

One batched kernel carries words and their attractor pieces K_I: a cylinder
state holds the composed coefficients and reflect bits of many words as
columns (``_initial_state``, ``_compose_states``, ``_child_state``,
``_children``) and bounds their pieces by mapped box corners
(``_state_boxes``), diameters (``_state_diameters``) or ``|phi'|``
(``_deriv_range``).  The contraction check, the contraction constants,
stopping families, the open-set check, ``IfsSystem.word_map``, the induced
map, the pruner and the density backend's cylinders and sampling chain run
on it, a whole level of words at a time.  Points go through the maps in
place: the window projection's a pass of windows at a time, each pass
gathering its symbols' coefficients once (``_window_images``), and one map
at a time (``_map_points``, ``_images``) those of ``apply_word``, the
attractor spread, the density invariance check, the density backend's cells,
the eigensolver's collocation nodes and the Gibbs check's anchors.
The branch derivatives ``|phi_j'|`` behind the eigensolver's weights and
the density chain's child cells and length ratios (``_abs_det``,
``_denominators``, ``_end_images``) and the induced map's inverse branches
(``_invert_map``) are here too: no other module reads a map's coefficients.
The module also provides a JSON round-trip for system specifications.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .symbolic import FiniteWord, PointRd, as_point

__all__ = [
    "Affine1D",
    "Moebius1D",
    "Similarity2D",
    "Box",
    "IfsSystem",
    "apply_word",
    "contraction_constants",
    "lambda_rho",
    "check_osc",
    "system_to_json",
    "system_from_json",
    "middle_third_cantor",
    "moebius_interval_quartet",
    "moebius_interval_pair",
    "sierpinski_triangle",
    "two_line_cantor",
    "builtin_system",
    "BUILTIN_SYSTEMS",
]


# ---------------------------------------------------------------------------
# map variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Affine1D:
    """x |-> a*x + b with 0 < |a| < 1."""

    a: float
    b: float

    dim = 1
    reflect = False

    def __post_init__(self):
        if not 0.0 < abs(self.a) < 1.0:
            raise ValueError(f"affine coefficient must satisfy 0 < |a| < 1, got {self.a}")

    @property
    def matrix(self) -> tuple:
        return (self.a, self.b, 0.0, 1.0)


@dataclass(frozen=True)
class Moebius1D:
    """x |-> (p*x + q)/(r*x + s) with p*s - q*r != 0."""

    p: float
    q: float
    r: float
    s: float

    dim = 1
    reflect = False

    def __post_init__(self):
        if self.p * self.s - self.q * self.r == 0.0:
            raise ValueError("degenerate Moebius map: p*s - q*r = 0")

    @property
    def matrix(self) -> tuple:
        return (self.p, self.q, self.r, self.s)


@dataclass(frozen=True)
class Similarity2D:
    """Plane similarity: scale * R(rotation) * (reflect?) + translation.

    As a complex map this is z |-> a*z + b (a*conj(z) + b when reflecting)
    with a = scale * e^{i rotation} and b = translation, so ``matrix`` is
    (a, b, 0, 1).
    """

    scale: float
    rotation: float
    reflect: bool
    translation: tuple

    dim = 2

    def __post_init__(self):
        if not 0.0 < self.scale < 1.0:
            raise ValueError(f"similarity scale must be in (0,1), got {self.scale}")
        object.__setattr__(self, "translation", tuple(float(t) for t in self.translation))
        if len(self.translation) != 2:
            raise ValueError("translation must have 2 components")

    @property
    def matrix(self) -> tuple:
        a = complex(self.scale * math.cos(self.rotation), self.scale * math.sin(self.rotation))
        return (a, complex(*self.translation), 0.0, 1.0)


ConformalMap = Union[Affine1D, Moebius1D, Similarity2D]


# -- evaluation helpers ------------------------------------------------------
#
# A coefficient matrix is a tuple of scalars or of equally shaped arrays; the
# pair (a, b) abbreviates the affine matrix (a, b, 0, 1).

def _moebius_apply(mat, x, reflect=False):
    if reflect:
        x = x.conjugate()
    if len(mat) == 2:
        a, b = mat
        return a * x + b
    p, q, r, s = mat
    return (p * x + q) / (r * x + s)


def _moebius_compose(m1, m2, out=None):
    """Coefficient matrix of map1 composed after map2 (apply m2 first); when
    map1 reflects, the caller passes map2's conjugated coefficients.  ``out``,
    a stacked array with one slot per coefficient, receives the same values
    in place of new arrays."""
    if len(m1) == 2:
        (a1, b1), (a2, b2) = m1, m2
        if out is None:
            return (a1 * a2, a1 * b2 + b1)
        np.multiply(a1, a2, out=out[0])
        np.add(np.multiply(a1, b2, out=out[1]), b1, out=out[1])
        return out
    if out is None:
        p1, q1, r1, s1 = m1
        p2, q2, r2, s2 = m2
        terms = ((p1, p2, q1, r2), (p1, q2, q1, s2), (r1, p2, s1, r2), (r1, q2, s1, s2))
        return tuple(w * x + y * z for w, x, y, z in terms)
    # as 2x2 matrices [[p, q], [r, s]] the composite is their product,
    # out[i, k] = m1[i, 0] * m2[0, k] + m1[i, 1] * m2[1, k]: the same w*x + y*z
    # of every slot as above, from two broadcast products and one add
    A, B = np.asarray(m1), np.asarray(m2)
    A = A.reshape((2, 2) + (1,) * (out.ndim - A.ndim) + A.shape[1:])
    B = B.reshape((2, 2) + (1,) * (out.ndim - B.ndim) + B.shape[1:])
    M = out.reshape((2, 2) + out.shape[1:])
    np.multiply(A[:, :1], B[:1], out=M)
    M += A[:, 1:] * B[1:]
    return out


# -- points as field values ----------------------------------------------------

def _point_value(pt: PointRd):
    """A point as a field value: its coordinate on the line, x + iy in the plane."""
    return pt.coords[0] if pt.d == 1 else complex(*pt.coords)


def _value_point(v) -> PointRd:
    return PointRd((v.real, v.imag)) if isinstance(v, complex) else PointRd((v,))


def _to_coords(z) -> np.ndarray:
    """Field values as real coordinates: unchanged on the line, with a
    trailing (x, y) axis in the plane (a view, no copy)."""
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return z
    return np.ascontiguousarray(z).view(np.float64).reshape(z.shape + (2,))


def _box_corners(box: "Box") -> np.ndarray:
    """The vertices of a box as field values (2 endpoints or 4 corners)."""
    lo, hi = box.lo, box.hi
    if box.d == 1:
        return np.array([lo[0], hi[0]])
    return np.array([complex(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])])


def map_apply(m: ConformalMap, x):
    """Apply a map to a point (PointRd / scalar / ndarray of coordinates)."""
    if isinstance(x, PointRd):
        return _value_point(_moebius_apply(m.matrix, _point_value(x), m.reflect))
    if m.dim == 1:
        return _moebius_apply(m.matrix, x)
    z = np.ascontiguousarray(x, dtype=float).view(np.complex128)[..., 0]
    return _to_coords(_moebius_apply(m.matrix, z, m.reflect))


def map_fixed_point(m: ConformalMap, box: "Box") -> PointRd:
    """The fixed point of a single map (contracting on the box, or solvable)."""
    p, q, r, s = m.matrix
    if m.reflect:
        # z = (p conj(z) + q)/s; substitute the conjugate equation
        return _value_point(
            (p * q.conjugate() + q * s.conjugate()) / (abs(s) ** 2 - abs(p) ** 2)
        )
    if r == 0.0:
        return _value_point(q / (s - p))
    # r x^2 + (s - p) x - q = 0
    disc = (s - p) ** 2 + 4.0 * r * q
    if disc < 0:
        raise ValueError("Moebius map has no real fixed point")
    roots = [(-(s - p) + sig * math.sqrt(disc)) / (2.0 * r) for sig in (+1.0, -1.0)]
    inside = [x for x in roots if box.lo[0] - 1e-12 <= x <= box.hi[0] + 1e-12]
    if not inside:
        raise ValueError("no fixed point inside the domain")
    return PointRd((inside[0],))


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned box, closed; lo/hi are coordinate tuples."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("box lo/hi dimension mismatch")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise ValueError("box with lo > hi")

    @property
    def d(self) -> int:
        return len(self.lo)

    def contains(self, pt: PointRd, slack: float = 0.0) -> bool:
        return all(a - slack <= c <= b + slack for a, b, c in zip(self.lo, self.hi, pt.coords))

    def diameter(self) -> float:
        return math.dist(self.lo, self.hi)

    def overlap_measure(self, other: "Box") -> float:
        """Lebesgue measure of the intersection (length in 1-D, area in 2-D)."""
        out = 1.0
        for a1, b1, a2, b2 in zip(self.lo, self.hi, other.lo, other.hi):
            w = min(b1, b2) - max(a1, a2)
            if w <= 0:
                return 0.0
            out *= w
        return out


# ---------------------------------------------------------------------------
# cylinder states: the one batched kernel for words and their pieces
# ---------------------------------------------------------------------------
#
# A state is a list of per-word columns: the composed coefficients of each
# word's map phi_I = phi_{i1} o ... o phi_{in} in the system's field ((a, b)
# when every map is affine, else (p, q, r, s)), then the reflect bits when any
# map reflects.  A child appends a symbol on the right, phi_I o phi_j, so the
# state of a word is composed from the root in the order of its symbols.

def _initial_state(system: "IfsSystem"):
    """The root (the empty word) as a one-row state: the identity's
    coefficients, then a false reflect bit when any map reflects."""
    one = np.ones(1, dtype=system.dtype)
    zero = np.zeros(1, dtype=system.dtype)
    state = [one, zero] if len(system._coeffs) == 2 else [one, zero, zero, one]
    if system._flips is not None:
        state.append(np.zeros(1, dtype=bool))
    return state


def _word_state(system: "IfsSystem", I):
    """The one-row state of a word, composed from the root."""
    return functools.reduce(functools.partial(_child_state, system), I, _initial_state(system))


def _compose_states(system: "IfsSystem", first, then, out=None):
    """Each row's word of ``first`` followed by its word of ``then``, rows
    broadcast (``then`` of an ``(m, 1)`` column gives ``(m, rows)`` columns);
    a reflecting first word conjugates the coefficients composed after it,
    and the composite reflects when exactly one of the two words does.
    ``out``, an array of one slot per coefficient shaped like the composed
    columns, receives the coefficients in place."""
    k = len(system._coeffs)
    if len(first) == k:
        return list(_moebius_compose(first, then, out))
    flip = first[k]
    mat = [np.where(flip, c.conjugate(), c) for c in then[:k]]
    return [*_moebius_compose(first[:k], mat, out), flip != then[k]]


def _child_state(system: "IfsSystem", state, j):
    """Every row's word followed by symbol ``j``: one symbol, one per row, or
    the ``(m, 1)`` column of all symbols, which gives ``(m, rows)`` columns."""
    flips = [] if system._flips is None else [system._flips[j]]
    return _compose_states(system, state, [*system._coeffs[:, j], *flips])


def _rescaled_state(system: "IfsSystem", state):
    """The same maps (a Moebius matrix acts projectively) with each row's
    largest coefficient modulus 1, as one stacked array: a state that is one
    is rescaled in place (Moebius maps are on the line and never reflect).
    Affine pairs, denominator 1, stay as is."""
    if len(system._coeffs) == 2:
        return state
    mats = np.asarray(state)
    mats /= np.abs(mats).max(axis=0)
    return mats


def _children(system: "IfsSystem", state):
    """All ``m`` children of every row, in word order: row ``p * m + j - 1``
    holds row ``p``'s word followed by ``j``.  Applied ``k`` times to the
    root it gives every depth-k word in lexicographic order."""
    kids = _child_state(system, state, np.arange(1, system.m + 1)[:, None])
    return [c.T.reshape(-1) for c in kids]


def _state_apply(system: "IfsSystem", state, z):
    """Each row's image of the field value ``z``."""
    k = len(system._coeffs)
    if len(state) > k:
        z = np.where(state[k], z.conjugate(), z)
    return _moebius_apply(state[:k], z)


def _abs_det(system: "IfsSystem", state):
    """``|det|`` of each row's map, ``|a|`` for an affine pair."""
    if len(system._coeffs) == 2:
        return np.abs(state[0])
    p, q, r, s = state[:4]
    return np.abs(p * s - q * r)


def _denominators(system: "IfsSystem", state, a, b):
    """``(r*a + s)(r*b + s)`` of each row's map on the line, 1 if affine:
    ``|phi(b) - phi(a)| / |b - a| = |det| / |(r*a + s)(r*b + s)|``."""
    if len(system._coeffs) == 2:
        return 1.0
    r, s = state[2], state[3]
    return (r * a + s) * (r * b + s)


def _end_images(system: "IfsSystem", state, a, b):
    """Each row's images of the line points ``a`` and ``b``, and the row's
    ``_denominators(system, state, a, b)``, the same values from one
    evaluation of ``r*a + s`` and ``r*b + s`` (no map on the line reflects)."""
    if len(system._coeffs) == 2:
        return _state_apply(system, state, a), _state_apply(system, state, b), 1.0
    mats = np.asarray(state[:4])
    # (a, b) * (p, r) + (q, s): both ends' numerators and denominators at once
    nd = np.array((a, b)).reshape((2,) + (1,) * mats.ndim) * mats[0::2]
    nd += mats[1::2]
    e = nd[:, 0] / nd[:, 1]
    return e[0], e[1], nd[0, 1] * nd[1, 1]


def _deriv_range(system: "IfsSystem", state, box: Box):
    """Exact (sup, inf) of ``|phi'| = |det| / (r*x + s)^2`` on a box for each
    row's map: monotone on an interval (pole outside it), constant if affine."""
    lo, hi = box.lo[0], box.hi[0]
    if np.any(_denominators(system, state, lo, hi) <= 0):
        raise ValueError("Moebius pole inside evaluation interval")
    d = _abs_det(system, state)
    va, vb = _denominators(system, state, lo, lo), _denominators(system, state, hi, hi)
    return d / np.minimum(va, vb), d / np.maximum(va, vb)


def _state_boxes(system: "IfsSystem", state, box: Box):
    """Boxes (lo, hi), shape (rows, dim), bounding each row's images of the
    vertices of ``box``: a hull of the word's image of ``box``, exact for
    monotone 1-D maps and for similarities whose rotation is axis-aligned.
    Each vertex image is folded into ``lo`` and ``hi`` as it is made, in
    vertex order, so one image lives at a time."""
    first, *rest = _box_corners(box)
    lo = _to_coords(_state_apply(system, state, first))
    hi = lo.copy()
    for z in rest:
        pt = _to_coords(_state_apply(system, state, z))
        np.minimum(lo, pt, out=lo)
        np.maximum(hi, pt, out=hi)
        del pt  # before the next image is made
    return lo.reshape(len(lo), system.dim), hi.reshape(len(hi), system.dim)


def _state_diameters(system: "IfsSystem", state) -> np.ndarray:
    """An upper bound for the diameter of each row's piece K_I: the width of
    its attractor-box image on the line, and ``|a| * diam(K)`` in the plane,
    where the similarity scales every distance by ``|a|``."""
    if system.dim == 1:
        lo, hi = _state_boxes(system, state, system.attractor_box)
        return (hi - lo)[:, 0]
    return np.abs(state[0]) * system.attractor_diameter[1]


def _attractor_spread(system: "IfsSystem") -> float:
    """A lower bound for diam(K): the farthest any of the level-k images of the
    base point lies from one of its extreme points, with k the smallest level
    of at least 64 words.  The base point (the first map's fixed point) and
    all its images lie in K, so this is a distance between two points of K."""
    z = np.array([_point_value(system.base_point())], dtype=system.dtype)
    while len(z) < 64:
        z = _images(system, z)
    ends = {z.real.argmin(), z.real.argmax(), z.imag.argmin(), z.imag.argmax()}
    return float(max(np.abs(z - z[e]).max() for e in ends))


def _distance_range(c: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Least and greatest distance from the points ``c`` (one, or one per
    box) to each box ``[lo, hi]``."""
    gap = np.maximum(np.maximum(lo - c, c - hi), 0.0)
    min_d = np.sqrt((gap ** 2).sum(axis=1))
    max_d = np.sqrt((np.maximum(c - lo, hi - c) ** 2).sum(axis=1))
    return min_d, max_d


# -- points through maps ------------------------------------------------------

def _map_points(system: "IfsSystem", j: int, z: np.ndarray) -> np.ndarray:
    """Map the field values ``z`` in place through the map of symbol ``j``
    and return ``z``."""
    if system._flips is not None and system._flips[j]:
        np.conjugate(z, out=z)
    c = system._coeffs[:, j]
    if len(c) == 2:
        return np.add(np.multiply(z, c[0], out=z), c[1], out=z)
    num = c[0] * z
    num += c[1]
    den = c[2] * z
    den += c[3]
    return np.divide(num, den, out=z)


def _spans(total: int, size: int) -> List[slice]:
    """``range(total)`` cut into slices of ``size``, a last slice of one merged
    into the one before it."""
    cuts = [*range(0, total, size), total]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _window_pass(system: "IfsSystem", block: np.ndarray, X: np.ndarray) -> None:
    """Map the ``(rows, w)`` field values ``X`` in place through the windows of
    the ``(rows, w + depth - 1)`` symbol ``block``, point ``n`` of a row through
    ``phi_{s_n} o ... o phi_{s_{n+depth-1}}``, innermost map first.  Every
    coefficient column of the block's symbols is gathered once, and the
    reflect bits when a map reflects; map ``j`` of every window is then read
    as a column slice of them."""
    c, flips = system._coeffs, system._flips
    cols = np.take(c, block, axis=1)
    reflects = None if flips is None else np.take(flips, block)
    if len(c) == 4:
        num, den = np.empty_like(X), np.empty_like(X)
    for j in range(block.shape[1] - X.shape[1], -1, -1):
        at = np.s_[:, j : j + X.shape[1]]
        if reflects is not None:
            np.conjugate(X, out=X, where=reflects[at])
        if len(c) == 2:
            np.add(np.multiply(X, cols[0][at], out=X), cols[1][at], out=X)
        else:
            np.add(np.multiply(cols[0][at], X, out=num), cols[1][at], out=num)
            np.add(np.multiply(cols[2][at], X, out=den), cols[3][at], out=den)
            np.divide(num, den, out=X)


def _window_images(system: "IfsSystem", syms: np.ndarray, depth: int, budget: int) -> np.ndarray:
    """The base point's image under every length-``depth`` window of each row
    of the ``(rows, cols)`` symbol block, ``phi_{s_n} o ... o phi_{s_{n+depth-1}}``
    for ``n = 0..cols-depth``: field values of shape ``(rows, cols - depth + 1)``.

    The block goes through ``_window_pass`` a rectangle of rows and windows at
    a time in a contiguous buffer, each pass's points, gathered columns and
    their index, and a Moebius map's numerator and denominator counted in
    bytes against ``budget`` (a pass of two rows, or of ``depth`` windows a
    row, may exceed it).  Each point is computed from its own window alone,
    elementwise, so the cut into passes leaves its bits alone, with one
    exception: numpy computes a lone point in place by another rounding path.
    A pass therefore never holds one point, and a block of one window is
    projected beside a copy of itself.
    """
    n_rows, count = syms.shape[0], syms.shape[1] - depth + 1
    if n_rows * count == 1:
        return _window_images(system, np.repeat(syms, 2, axis=0), depth, budget)[:1]
    size = np.dtype(system.dtype).itemsize
    k = len(system._coeffs)
    cell = k * size + 8 + (system._flips is not None)  # a symbol's columns, index and reflect bit
    point = (3 if k == 4 else 1) * size  # a window's point, numerator and denominator

    def cost(r, w):
        return r * ((w + depth - 1) * cell + w * point)

    # windows a row: all where every row's fit, else the row's share of the
    # budget but at least `depth` (the depth - 1 symbols that a pass's windows
    # share then cost no more than the windows); then as many rows as fit
    w = min(count, max(depth, (budget // max(n_rows, 1) - (depth - 1) * cell) // (cell + point)))
    r = max(min(n_rows, 2), budget // cost(1, w))
    if r == 1:
        w = max(w, 2)
    out = np.empty((n_rows, count), dtype=system.dtype)
    base = _point_value(system.base_point())
    for rs in _spans(n_rows, r):
        for cs in _spans(count, w):
            # a contiguous pass: numpy copies a strided view that a ufunc writes in place
            X = np.full((rs.stop - rs.start, cs.stop - cs.start), base, dtype=system.dtype)
            _window_pass(system, syms[rs, cs.start : cs.stop + depth - 1], X)
            out[rs, cs] = X
    return out


def _images(system: "IfsSystem", z: np.ndarray) -> np.ndarray:
    """Each map's images of the field values ``z``, map after map; applied k
    times, ``z[p]``'s image under the depth-k word of index ``w`` is at ``w * len(z) + p``."""
    out = np.tile(z, system.m)
    for j, block in enumerate(out.reshape(system.m, -1), 1):
        _map_points(system, j, block)
    return out


def _invert_map(system: "IfsSystem", j: int, x: PointRd) -> PointRd:
    """phi_j^{-1}(x) for branch j."""
    m = system.maps[j - 1]
    p, q, r, s = m.matrix
    # adjugate matrix; projective scale is irrelevant
    z = _moebius_apply((s, -q, -r, p), _point_value(x))
    return _value_point(z.conjugate() if m.reflect else z)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

_DIAMETER_SLACK = 1e-9  # relative rounding allowance of the attractor's spread


@dataclass
class IfsSystem:
    """A conformal IFS with domain, optional open-set witness, and metadata.

    ``iterate_power`` is computed, not passed: the smallest n0 <= 8 such that
    every depth-n0 composition has sup-derivative < 1 on the domain;
    individual maps may have sup-derivative equal to 1 as long as some fixed
    power contracts uniformly.
    ``attractor_diameter`` is a certified [lo, hi] bracket for diam(K); the
    shipped constructors set it exactly.
    """

    maps: List[ConformalMap]
    dim: int
    domain: Box
    attractor_box: Box
    osc_witness: Optional[Box] = None
    attractor_diameter: Tuple[float, float] = None
    name: str = ""

    def __post_init__(self):
        if len(self.maps) < 2:
            raise ValueError("need at least two maps")
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        for m in self.maps:
            if m.dim != self.dim:
                raise ValueError(f"{m.dim}-D map in a {self.dim}-D system")
        if self.attractor_diameter is None:
            self.attractor_diameter = (0.0, self.attractor_box.diameter())
        # the maps' coefficients for the batched kernels, a row per
        # coefficient, (a, b) when every map is affine, else (p, q, r, s), and
        # reflect bits when any map reflects, else None; column j holds the
        # map of symbol j, and column 0 repeats map 1, so symbols index directly
        mats = np.array([m.matrix for m in self.maps[:1] + self.maps], dtype=self.dtype)
        affine = not mats[:, 2].any() and (mats[:, 3] == 1.0).all()
        self._coeffs = mats[:, :2].T.copy() if affine else mats.T.copy()
        flips = np.array([m.reflect for m in self.maps[:1] + self.maps])
        self._flips = flips if flips.any() else None
        self._validate_contraction()
        self._validate_diameter()

    def _validate_diameter(self):
        """Refuse an ``attractor_diameter`` whose ends are out of order or
        whose upper end lies below the distance between two points of K: the
        depth plan would then certify cylinders smaller than they are."""
        lo, hi = self.attractor_diameter
        if lo > hi:
            raise ValueError(f"attractor_diameter [{lo}, {hi}] has lower end above upper end")
        spread = _attractor_spread(self)
        if hi < spread * (1.0 - _DIAMETER_SLACK):
            raise ValueError(
                f"attractor_diameter upper end {hi} is below {spread:.12g}, the distance "
                "between two points of the attractor"
            )

    # -- basic structure -------------------------------------------------
    @property
    def m(self) -> int:
        return len(self.maps)

    @property
    def dtype(self):
        """The coordinate field: real on the line, complex in the plane."""
        return np.float64 if self.dim == 1 else np.complex128

    def base_point(self) -> PointRd:
        """Fixed point of the first map: the deterministic projection anchor."""
        return map_fixed_point(self.maps[0], self.domain)

    def _validate_contraction(self):
        """Find the smallest contracting composition power (<= 8)."""
        state = _initial_state(self)
        for n0 in range(1, 9):
            state = _children(self, state)
            worst = float(_deriv_range(self, state, self.domain)[0].max())
            if n0 == 1:
                self._kappa = worst
            if worst < 1.0:
                self.iterate_power = n0
                self._kappa_eff = worst ** (1.0 / n0)
                return
        raise ValueError("no composition power up to 8 contracts uniformly")

    @property
    def kappa(self) -> float:
        """max over maps of sup |phi'| on the domain (exact)."""
        return self._kappa

    @property
    def kappa_eff(self) -> float:
        """Per-step contraction rate certified at ``iterate_power`` blocks."""
        return self._kappa_eff

    def diameter_bound(self, depth: int) -> float:
        """Certified upper bound for the diameter of every depth-``depth`` cylinder.

        A depth-``depth`` word splits into ``depth // n0`` blocks of
        ``n0 = iterate_power`` maps, each with sup-derivative at most
        ``kappa_eff^n0`` on the convex domain, and fewer than ``n0`` single
        maps, each at most ``max(1, kappa)``. By the chain rule and the
        mean-value inequality the cylinder is at most
        ``diam(K) * kappa_eff^(n0 * (depth // n0)) * max(1, kappa)^(n0 - 1)``
        across, and never more than ``diam(K)``.
        """
        diam = max(self.attractor_diameter[1], 1e-300)
        n0 = self.iterate_power
        partial = max(1.0, self.kappa) ** (n0 - 1)
        return diam * min(1.0, partial * (self._kappa_eff ** n0) ** (depth // n0))

    def depth_for_diameter(self, tol: float) -> int:
        """Smallest depth, in whole iterate-power blocks, whose
        ``diameter_bound`` lies below ``tol`` (1 when diam(K) < tol)."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        diam = max(self.attractor_diameter[1], 1e-300)
        if diam < tol:
            return 1
        n0 = self.iterate_power
        block = self._kappa_eff ** n0
        partial = max(1.0, self.kappa) ** (n0 - 1)
        a = max(1, math.ceil(math.log(tol / (diam * partial)) / math.log(block)))
        # the logarithms only estimate the count; the bound itself decides it
        while self.diameter_bound(a * n0) >= tol:
            a += 1
        while a > 1 and self.diameter_bound((a - 1) * n0) < tol:
            a -= 1
        return a * n0

    # -- words and cylinders ---------------------------------------------
    def apply_word(self, I: FiniteWord, x) -> PointRd:
        return apply_word(self, I, x)

    def word_map(self, I: FiniteWord):
        """The composed map of a word: its coefficient matrix ((a, b) when
        every map is affine) and reflect bit."""
        state = _word_state(self, I)
        k = len(self._coeffs)
        return tuple(c[0] for c in state[:k]), len(state) > k and bool(state[k][0])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def apply_word(system: IfsSystem, I: FiniteWord, x) -> PointRd:
    """Apply the composition phi_{i1} o ... o phi_{in} (rightmost map first).

    The point goes through ``_map_points`` as a one-element array, which
    numpy maps by its scalar rounding path: on a rotating plane system the
    result can differ in its last bits from the word's point in a
    ``dynamics.project_windows`` block, which never maps a lone point."""
    pt = as_point(x, system.dim)
    if not system.domain.contains(pt, slack=1e-9):
        raise ValueError(f"point {pt} outside system domain")
    z = np.array([_point_value(pt)], dtype=system.dtype)
    for sym in reversed(I.symbols):
        _map_points(system, sym, z)
    return _value_point(z[0].item())


def contraction_constants(system: IfsSystem, probe_depth: int) -> dict:
    """kappa (exact) and empirical distortion/geometry constants.

    C1: max distortion sup|phi_I'| / inf|phi_I'| over probed words.
    C2: max of sup|phi_I'| * diam(K) / |K_I| and its reciprocal counterpart
        (comparability of cylinder size with the derivative).
    C3: max |K_I| / (diam(K) * kappa^{|I|}), so |K_I| <= C3' kappa^{|I|} with
        C3' = C3 * diam(K).
    C4: max two-sided defect of |K_{IJ}| vs |K_I| |K_J| / diam(K) over word
        pairs with |I| + |J| <= probe_depth.

    Here |K_I| is the distance between the images of the attractor box's
    extreme corners (its endpoints on the line, its diagonal in the plane),
    and diam(K) is the same distance before mapping.  These are lower bounds
    for the true (existential) constants, valid at the probe depth; they are
    reported together with the depth and must not be treated as global
    suprema.
    """
    if probe_depth < 1:
        raise ValueError("probe_depth must be >= 1")
    box = system.attractor_box
    corners = _box_corners(box)
    lo, hi = corners[0].item(), corners[-1].item()
    diam = abs(hi - lo)
    c1 = c2 = c3 = 0.0
    # lengths[d - 1] holds |K_I| of every depth-d word, in word order
    lengths = []
    state = _initial_state(system)
    for depth in range(1, probe_depth + 1):
        state = _children(system, state)
        sup_d, inf_d = _deriv_range(system, state, box)
        length = np.abs(_state_apply(system, state, hi) - _state_apply(system, state, lo))
        lengths.append(length)
        c1 = max(c1, float((sup_d / inf_d).max()))
        c2 = max(c2, float((sup_d * diam / length).max()),
                 float((length / (inf_d * diam)).max()))
        c3 = max(c3, float((length / (diam * system.kappa ** depth)).max()))
    # word IJ, |I| = a and |J| = b, sits at index idx(I) * m^b + idx(J) of its
    # level, so that level reshaped to (m^a, m^b) pairs every I with every J
    c4 = 1.0
    for a in range(1, probe_depth):
        for b in range(1, probe_depth - a + 1):
            prod = lengths[a - 1][:, None] * lengths[b - 1][None, :] / diam
            lij = lengths[a + b - 1].reshape(prod.shape)
            c4 = max(c4, float((lij / prod).max()), float((prod / lij).max()))
    return {
        "kappa": system.kappa,
        "C1": c1,
        "C2": c2,
        "C3": c3,
        "C4": c4,
        "probe_depth": probe_depth,
    }


_STOPPING_FAMILY_CAP = 5_000_000  # words lambda_rho may visit


def lambda_rho(system: IfsSystem, rho: float) -> List[FiniteWord]:
    """Adaptive stopping family: words whose cylinder diameter first drops
    below ``rho`` (diameter upper bounds drive the test).

    Returns the root word alone when rho is at least the attractor diameter.
    The family is built one level at a time: the children of every word that
    has not yet stopped are composed and measured at once.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if rho >= system.attractor_diameter[1]:
        return [FiniteWord((), system.m)]
    m = system.m
    out: List[FiniteWord] = []
    state, words = _initial_state(system), np.zeros((1, 0), dtype=np.int64)
    visited = 0
    while len(words):
        visited += m * len(words)
        if visited > _STOPPING_FAMILY_CAP:
            raise RuntimeError("stopping family enumeration too large")
        state = _children(system, state)
        words = np.column_stack([np.repeat(words, m, axis=0),
                                 np.tile(np.arange(1, m + 1), len(words))])
        stop = _state_diameters(system, state) < rho
        out.extend(FiniteWord(tuple(w), m) for w in words[stop].tolist())
        state = [c[~stop] for c in state]
        words = words[~stop]
    out.sort(key=lambda w: w.symbols)
    return out


def check_osc(system: IfsSystem) -> dict:
    """Verify the open-set condition on the declared witness box.

    Image boxes are exact for monotone 1-D maps and axis-aligned similarities;
    'holds' requires every pairwise image overlap below 1e-12 (in length/area).
    """
    if system.osc_witness is None:
        raise ValueError("system has no open-set witness")
    v = system.osc_witness
    lo, hi = _state_boxes(system, _children(system, _initial_state(system)), v)
    images = [Box(tuple(a), tuple(b)) for a, b in zip(lo, hi)]
    # containment phi_i(V) within V (closed-box check with tiny slack)
    for img in images:
        for a, b, a0, b0 in zip(img.lo, img.hi, v.lo, v.hi):
            if a < a0 - 1e-12 or b > b0 + 1e-12:
                return {"holds": False, "max_overlap": float("inf")}
    max_overlap = 0.0
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            max_overlap = max(max_overlap, images[i].overlap_measure(images[j]))
    return {"holds": max_overlap < 1e-12, "max_overlap": max_overlap}


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _map_to_json(m: ConformalMap) -> dict:
    if isinstance(m, Affine1D):
        return {"type": "affine1d", "a": m.a, "b": m.b}
    if isinstance(m, Moebius1D):
        return {"type": "moebius1d", "p": m.p, "q": m.q, "r": m.r, "s": m.s}
    return {
        "type": "sim2d",
        "scale": m.scale,
        "rotation": m.rotation,
        "reflect": m.reflect,
        "translation": list(m.translation),
    }


def _map_from_json(d: dict) -> ConformalMap:
    t = d["type"]
    if t == "affine1d":
        return Affine1D(d["a"], d["b"])
    if t == "moebius1d":
        return Moebius1D(d["p"], d["q"], d["r"], d["s"])
    if t == "sim2d":
        return Similarity2D(d["scale"], d["rotation"], bool(d["reflect"]), tuple(d["translation"]))
    raise ValueError(f"unknown map type {t!r}")


def system_to_json(system: IfsSystem) -> dict:
    out = {
        "dim": system.dim,
        "maps": [_map_to_json(m) for m in system.maps],
        "domain": [list(system.domain.lo), list(system.domain.hi)],
        "attractor_box": [list(system.attractor_box.lo), list(system.attractor_box.hi)],
        "attractor_diameter": list(system.attractor_diameter),
        "name": system.name,
    }
    if system.osc_witness is not None:
        out["osc_witness"] = [list(system.osc_witness.lo), list(system.osc_witness.hi)]
    return out


def system_from_json(d: dict) -> IfsSystem:
    witness = None
    if "osc_witness" in d and d["osc_witness"] is not None:
        witness = Box(tuple(d["osc_witness"][0]), tuple(d["osc_witness"][1]))
    if "domain" in d:
        domain = Box(tuple(d["domain"][0]), tuple(d["domain"][1]))
    elif witness is not None:
        domain = witness
    else:
        raise ValueError("system specification needs a domain or an osc_witness")
    if "attractor_box" in d:
        abox = Box(tuple(d["attractor_box"][0]), tuple(d["attractor_box"][1]))
    else:
        abox = domain
    diam = tuple(d["attractor_diameter"]) if "attractor_diameter" in d else None
    return IfsSystem(
        maps=[_map_from_json(md) for md in d["maps"]],
        dim=int(d["dim"]),
        domain=domain,
        attractor_box=abox,
        osc_witness=witness,
        attractor_diameter=diam,
        name=d.get("name", ""),
    )


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------

def _is_middle_third_cantor(system: IfsSystem) -> bool:
    """Whether the maps are the ``Affine1D`` x/3 and x/3 + 2/3, to 1e-15."""
    cantor = [[1.0 / 3.0, 1.0 / 3.0], [0.0, 2.0 / 3.0]]  # the (a, b) columns
    return (system.m == 2 and all(isinstance(m, Affine1D) for m in system.maps)
            and bool(np.abs(np.subtract(system._coeffs[:, 1:], cantor)).max() < 1e-15))


def middle_third_cantor() -> IfsSystem:
    """{x/3, x/3 + 2/3} on [0,1]: the middle-third Cantor set."""
    return IfsSystem(
        maps=[Affine1D(1.0 / 3.0, 0.0), Affine1D(1.0 / 3.0, 2.0 / 3.0)],
        dim=1,
        domain=Box((0.0,), (1.0,)),
        attractor_box=Box((0.0,), (1.0,)),
        osc_witness=Box((0.0,), (1.0,)),
        attractor_diameter=(1.0, 1.0),
        name="middle_third_cantor",
    )


def moebius_interval_quartet() -> IfsSystem:
    """Four branches x/4, 1/(2(1+x)), (1+x)/(2+x), 2/(2+x) tiling [0,1].

    The attractor is the whole interval; the invariant density for the
    derivative potential (exponent 1) is 1/(log2 * (1+x)).
    """
    return IfsSystem(
        maps=[
            Affine1D(0.25, 0.0),
            Moebius1D(0.0, 1.0, 2.0, 2.0),
            Moebius1D(1.0, 1.0, 1.0, 2.0),
            Moebius1D(0.0, 2.0, 1.0, 2.0),
        ],
        dim=1,
        domain=Box((0.0,), (1.0,)),
        attractor_box=Box((0.0,), (1.0,)),
        osc_witness=Box((0.0,), (1.0,)),
        attractor_diameter=(1.0, 1.0),
        name="moebius_interval_quartet",
    )


def moebius_interval_pair() -> IfsSystem:
    """Two branches x/2 and 1/(1+x); the second has |phi'(0)| = 1, so the
    system contracts only at composition power 2 (same invariant density as
    the four-branch variant, which is its square)."""
    return IfsSystem(
        maps=[Affine1D(0.5, 0.0), Moebius1D(0.0, 1.0, 1.0, 1.0)],
        dim=1,
        domain=Box((0.0,), (1.0,)),
        attractor_box=Box((0.0,), (1.0,)),
        osc_witness=Box((0.0,), (1.0,)),
        attractor_diameter=(1.0, 1.0),
        name="moebius_interval_pair",
    )


_SQRT3 = math.sqrt(3.0)


def sierpinski_triangle() -> IfsSystem:
    """(x + q_i)/2 for the vertices of a unit-side equilateral triangle."""
    verts = [(0.0, 0.0), (1.0, 0.0), (0.5, _SQRT3 / 2.0)]
    return IfsSystem(
        maps=[
            Similarity2D(0.5, 0.0, False, (vx / 2.0, vy / 2.0)) for vx, vy in verts
        ],
        dim=2,
        domain=Box((0.0, 0.0), (1.0, _SQRT3 / 2.0)),
        attractor_box=Box((0.0, 0.0), (1.0, _SQRT3 / 2.0)),
        osc_witness=Box((0.0, 0.0), (1.0, _SQRT3 / 2.0)),
        attractor_diameter=(1.0, 1.0),
        name="sierpinski_triangle",
    )


def two_line_cantor() -> IfsSystem:
    """z/3 - 2i/3 and z/3 + 2i/3 as plane similarities; the attractor is a
    Cantor set contained in the vertical coordinate axis."""
    return IfsSystem(
        maps=[
            Similarity2D(1.0 / 3.0, 0.0, False, (0.0, -2.0 / 3.0)),
            Similarity2D(1.0 / 3.0, 0.0, False, (0.0, 2.0 / 3.0)),
        ],
        dim=2,
        domain=Box((-1.0, -1.0), (1.0, 1.0)),
        attractor_box=Box((0.0, -1.0), (0.0, 1.0)),
        osc_witness=Box((-0.1, -1.05), (0.1, 1.05)),
        attractor_diameter=(2.0, 2.0),
        name="two_line_cantor",
    )


BUILTIN_SYSTEMS = {
    "middle_third_cantor": middle_third_cantor,
    "moebius_interval_quartet": moebius_interval_quartet,
    "moebius_interval_pair": moebius_interval_pair,
    "sierpinski_triangle": sierpinski_triangle,
    "two_line_cantor": two_line_cantor,
}


def builtin_system(name: str) -> IfsSystem:
    """Construct a shipped system by name (see BUILTIN_SYSTEMS)."""
    try:
        return BUILTIN_SYSTEMS[name]()
    except KeyError:
        raise ValueError(f"unknown builtin system {name!r}") from None
