"""Certified measures of balls, annuli, strips, and inverse radius problems.

All quantities are returned as two-sided brackets: a cylinder-tree pruner
classifies cylinder hulls as certainly inside / certainly outside / straddling
an open region, accumulates certain mass, and bounds the truth by the
straddling mass where it stops: at the depth budget, below 1e-18 of
straddle mass, or at a cap on the straddling cylinders.

Every ball mass ``mu(B(x, r))`` comes from one radial-mass oracle,
``_radial_mass``: for backends with a closed-form distribution function
(interval densities, weighted middle-third Cantor measures) it takes the
difference of two bracketed CDF values, vectorized over any number of balls,
with near-zero bracket width; for every other backend and for planar systems
it runs one level-synchronous pruner descent over all the balls at once, with
each ball's bracket the one it gets alone.  The closed forms are cross-checked
against the pruner in the test-suite.  The Cantor CDF is a digit walk taken in
bounded chunks that carries only the live points from level to level: a
point stops exactly when it lands in a removed gap, and NaN gets the vacuous
bracket [0, 1].

The counting engine in ``experiments`` asks the oracle for three things, and
only this module decides how each is served; no other module names
``_radial_mass``, ``_radial_table``, ``_closed_form`` or the Cantor test.
The pre-flight, ``_preflight``, refuses before any sampling a
measure-equalized run without a closed form, a pruner ball budget past a
spectral table, and more pure-run own balls than ``_PRUNER_BALL_CAP``. The
ball sums are the shrinking-target normalizer (``_target_ball_sums``), a
pure run's own balls (``_own_ball_sums``) and the measure-equalized hit rule
(``_quota_decider``, built per worker block with one radial table per start
point, private to the rule). The exact levels, ``_cantor_levels``, are radii
``3^-k`` on a Bernoulli Cantor measure, whose balls are exact cylinders.

``t_n_radius`` inverts r |-> mu(B(x, r)) by bisection and terminates only when
the measure bracket at the returned radius certifies the target value within
the requested measure tolerance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .gibbs import (BernoulliBackend, DensityBackend, MeasureBackend, SpectralBackend,
                    _check_table_level, _whole)
from .ifs import (_child_state, _children, _distance_range, _initial_state,
                  _is_middle_third_cantor, _point_value, _state_boxes, _to_coords)
from .symbolic import PointRd, as_point

__all__ = [
    "MeasureBracket",
    "CertificationError",
    "ConstantRadius",
    "PowerLogRadius",
    "PowerRadius",
    "BallRegion",
    "AnnulusRegion",
    "StripRegion",
    "IntersectRegion",
    "region_measure",
    "ball_measure",
    "annulus_measure",
    "t_n_radius",
    "density_ratio_series",
    "hyperplane_decay_probe",
    "doubling_ratio",
    "cantor_cdf_bracket",
]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureBracket:
    """Two-sided enclosure [lower, upper] of a measure value."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-15:
            raise ValueError(f"bracket lower {self.lower} above upper {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float) -> bool:
        return self.lower - 1e-15 <= value <= self.upper + 1e-15


class CertificationError(RuntimeError):
    """Raised when a bracket cannot certify the requested tolerance."""

    def __init__(self, message: str, bracket: Optional[MeasureBracket] = None):
        super().__init__(message)
        self.bracket = bracket


# ---------------------------------------------------------------------------
# radius schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantRadius:
    c: float

    def values(self, ns: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(ns).shape, self.c, dtype=float)


@dataclass(frozen=True)
class PowerLogRadius:
    """psi(n) = 3^(-floor(alpha * ln n)): a staircase of Cantor scales."""

    alpha: float

    def values(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=float)
        return 3.0 ** (-np.floor(self.alpha * np.log(ns)))


@dataclass(frozen=True)
class PowerRadius:
    """psi(n) = c * n^(-beta)."""

    c: float
    beta: float

    def values(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=float)
        return self.c * ns ** (-self.beta)


RadiusFunction = Union[ConstantRadius, PowerLogRadius, PowerRadius]


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

INSIDE, STRADDLE, OUTSIDE = 1, 0, -1


def _classify_balls(c: np.ndarray, r, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Boxes against open balls ``B(c, r)``: one ball, or one per box."""
    min_d, max_d = _distance_range(c, lo, hi)
    out = np.zeros(lo.shape[0], dtype=np.int8)
    out[max_d < r] = INSIDE
    out[min_d >= r] = OUTSIDE
    return out


class BallRegion:
    """Open ball; classification errs toward 'straddle'."""

    def __init__(self, center: PointRd, r: float):
        if not r > 0:  # NaN fails too
            raise ValueError("radius must be positive")
        self.center = center
        self.r = r

    def classify(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return _classify_balls(np.asarray(self.center.coords), self.r, lo, hi)


class AnnulusRegion:
    """Open annulus r - rho < |y - x| < r + rho."""

    def __init__(self, center: PointRd, r: float, rho: float):
        if not (r > 0 and rho > 0):  # NaN fails too
            raise ValueError("r and rho must be positive")
        self.center = center
        self.r = r
        self.rho = rho

    def classify(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        min_d, max_d = _distance_range(np.asarray(self.center.coords), lo, hi)
        inner, outer = self.r - self.rho, self.r + self.rho
        out = np.zeros(lo.shape[0], dtype=np.int8)
        out[(min_d > inner) & (max_d < outer)] = INSIDE
        out[(max_d <= inner) | (min_d >= outer)] = OUTSIDE
        return out


class StripRegion:
    """Open strip |<y, normal> - offset| < rho (a hyperplane neighborhood)."""

    def __init__(self, normal: Sequence[float], offset: float, rho: float):
        v = np.asarray(normal, dtype=float)
        n = np.linalg.norm(v)
        if not (n > 0 and rho > 0):  # NaN fails too
            raise ValueError("need a nonzero normal and positive rho")
        if not abs(offset) < np.inf:  # a NaN offset would classify every box as straddling
            raise ValueError(f"need a finite offset, got {offset}")
        self.normal = v / n
        self.offset = float(offset) / n
        self.rho = rho

    def classify(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        n = self.normal
        # extremes of <y, n> over the box
        lo_dot = lo @ np.maximum(n, 0.0) + hi @ np.minimum(n, 0.0)
        hi_dot = hi @ np.maximum(n, 0.0) + lo @ np.minimum(n, 0.0)
        a, b = self.offset - self.rho, self.offset + self.rho
        out = np.zeros(lo.shape[0], dtype=np.int8)
        out[(lo_dot > a) & (hi_dot < b)] = INSIDE
        out[(hi_dot <= a) | (lo_dot >= b)] = OUTSIDE
        return out


class IntersectRegion:
    """Intersection of regions; conservative classification."""

    def __init__(self, regions: Sequence):
        if not regions:
            raise ValueError("need at least one region")
        self.regions = list(regions)

    def classify(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        votes = np.stack([reg.classify(lo, hi) for reg in self.regions])
        out = np.zeros(lo.shape[0], dtype=np.int8)
        out[(votes == INSIDE).all(axis=0)] = INSIDE
        out[(votes == OUTSIDE).any(axis=0)] = OUTSIDE
        return out


# ---------------------------------------------------------------------------
# cylinder-tree pruner
# ---------------------------------------------------------------------------

# frontier rows a region may hold, and rows a group of regions descends with
_NODE_CAP = 1 << 17
# numpy adds fewer terms than this left to right; longer sums are pairwise
_SEQUENTIAL_SUM = 8


def _select_rows(columns, rows):
    return [c[rows] for c in columns]


def _child_masses(backend: MeasureBackend, masses, idx, level, j, lo, hi):
    if isinstance(backend, BernoulliBackend):
        return masses * backend.probs[j - 1]
    if isinstance(backend, DensityBackend):
        return backend.cdf(hi[:, 0]) - backend.cdf(lo[:, 0])
    if isinstance(backend, SpectralBackend):
        table = backend.level_table(level)
        return table[idx]
    raise TypeError(f"unsupported backend {type(backend).__name__}")


def _owner_starts(owner: np.ndarray) -> np.ndarray:
    """The first row of each owner's run in rows sorted by owner."""
    return np.flatnonzero(np.concatenate([[True], owner[1:] != owner[:-1]]))


def _segment_sums(values: np.ndarray, owner: np.ndarray):
    """Owner ids, row counts and sums of ``values`` over rows sorted by owner.

    Each sum has the bits of ``values[owner == k].sum()``: numpy adds fewer
    than ``_SEQUENTIAL_SUM`` terms left to right from 0, which is done here
    one column of terms at a time for all short segments at once; a longer
    segment takes numpy's own pairwise sum of its slice.
    """
    starts = _owner_starts(owner)
    counts = np.diff(np.append(starts, owner.size))
    sums = np.zeros(starts.size)
    short = counts < _SEQUENTIAL_SUM
    for k in range(int(counts[short].max(initial=0))):
        sel = short & (counts > k)
        sums[sel] += values[starts[sel] + k]
    for s in np.flatnonzero(~short):
        sums[s] = values[starts[s]:starts[s] + counts[s]].sum()
    return owner[starts], counts, sums


def _group_cut(owner: np.ndarray) -> int:
    """The owner boundary nearest the middle row of a group of two or more owners."""
    starts = _owner_starts(owner)[1:]
    return int(starts[np.argmin(np.abs(starts - owner.size // 2))])


def _classify_branch(backend: MeasureBackend, classify, frontier, level: int, j: int, inside):
    """The mask of the rows whose child ``j`` straddles and those children's
    masses; the inside children's masses are added to ``inside`` per owner.
    The children's states and boxes are dropped on return."""
    system = backend.system
    *state, masses, idx, owner = frontier
    lo, hi = _state_boxes(system, _child_state(system, state, j), system.attractor_box)
    cm = _child_masses(backend, masses, idx * system.m + (j - 1), level, j, lo, hi)
    cls = classify(lo, hi, owner)
    ins = cls == INSIDE
    if ins.any():
        ids, _, sums = _segment_sums(cm[ins], owner[ins])
        inside[ids] += sums
    keep = cls == STRADDLE
    return keep, cm[keep]


def _refine(backend: MeasureBackend, classify, frontier, level: int, last: bool, tally):
    """Take one group of regions down to ``level``: the next frontier, or
    None when every region of the group retires there.

    ``tally`` holds the per-region arrays ``(lower, upper, inside, straddle,
    count, retired)``; ``last`` marks the depth budget's level.
    """
    system = backend.system
    lower, upper, inside, straddle, count, retired = tally
    *state, _, idx, owner = frontier
    prev = owner[_owner_starts(owner)]
    # classify: per branch, only a straddle mask and the straddlers' masses are kept
    keeps, masses = zip(*(_classify_branch(backend, classify, frontier, level, j, inside)
                          for j in range(1, system.m + 1)))
    syms = np.repeat(np.arange(1, system.m + 1), [cm.size for cm in masses])
    rows = np.concatenate([np.flatnonzero(keep) for keep in keeps])
    masses = np.concatenate(masses)
    owner = owner[rows]
    if prev.size > 1 and np.any(owner[1:] < owner[:-1]):
        order = np.argsort(owner, kind="stable")
        rows, syms, masses, owner = rows[order], syms[order], masses[order], owner[order]
    # retire: each owner's straddle sum runs over its rows in branch-major order
    straddle[prev] = 0.0
    count[prev] = 0
    if owner.size:
        ids, counts, sums = _segment_sums(masses, owner)
        straddle[ids] = sums
        count[ids] = counts
    done = prev[(count[prev] > _NODE_CAP) | (straddle[prev] < 1e-18) | last]
    hi_done = np.clip(inside[done] + straddle[done], 0.0, 1.0)
    upper[done] = hi_done
    lower[done] = np.minimum(np.clip(inside[done], 0.0, 1.0), hi_done)
    if done.size == prev.size:
        return None
    if done.size:
        retired[done] = True
        live = ~retired[owner]
        rows, syms, masses, owner = rows[live], syms[live], masses[live], owner[live]
    # build: each child that goes on is composed again from its parent row
    return [*_child_state(system, _select_rows(state, rows), syms), masses,
            idx[rows] * system.m + (syms - 1), owner]


def _check_budget(depth_budget) -> None:
    """Refuse a depth budget that is not an integer >= 1 (``True`` included),
    on every backend, before any work."""
    if isinstance(depth_budget, bool) or not isinstance(depth_budget, (int, np.integer)):
        raise ValueError(f"depth_budget: {depth_budget!r} is not an integer")
    if depth_budget < 1:
        raise ValueError("depth_budget must be >= 1")


def _descend(backend: MeasureBackend, classify, n: int, depth_budget: int):
    """Lower and upper mass arrays for ``n`` open regions, by one cylinder descent.

    ``classify(lo, hi, owner)`` sorts boxes against the regions named by
    ``owner`` into INSIDE, STRADDLE and OUTSIDE. Every frontier row carries
    its owner next to its cylinder state, mass and index; rows stay sorted by
    owner, in branch-major order within each owner. A level (``_refine``)
    takes three steps. It classifies: one numpy pass per branch composes,
    bounds and classifies all rows' children, adds the inside masses, and
    keeps only the straddle mask and the straddlers' masses. It retires: each
    region sums its straddle mass over its rows in that order and stops with
    the bracket ``[inside, inside + straddle]``, clipped to [0, 1], at the
    first of: no straddlers, a straddle mass below 1e-18, more than
    ``_NODE_CAP`` straddlers, or level ``depth_budget``. It builds: the
    straddlers of the regions that go on are composed again from their
    parent rows into the next frontier, so the level a region retires at is
    never built. Regions descend in groups of at most ``_NODE_CAP`` rows; a
    group is cut in two at an owner boundary when its next level could pass
    that. Every sum runs over one owner's rows, so a region's bracket does
    not depend on the others or on the grouping.
    """
    system = backend.system
    _check_table_level(backend, depth_budget)
    lower, upper = np.zeros(n), np.zeros(n)
    if n == 0:
        return lower, upper
    root = _initial_state(system)
    lo, hi = _state_boxes(system, root, system.attractor_box)
    owner = np.arange(n)
    cls = classify(np.repeat(lo, n, axis=0), np.repeat(hi, n, axis=0), owner)
    lower[cls == INSIDE] = upper[cls == INSIDE] = 1.0
    owner = owner[cls == STRADDLE]
    tally = (lower, upper, np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64),
             np.zeros(n, dtype=bool))
    # a frontier is a list of row columns: the cylinder state, mass, index, owner
    groups = [([*(np.repeat(c, owner.size) for c in root), np.ones(owner.size),
                np.zeros(owner.size, dtype=np.int64), owner], 0)] if owner.size else []
    while groups:
        frontier, level = groups.pop()
        while frontier is not None:
            owner = frontier[-1]
            if system.m * owner.size > _NODE_CAP and owner[0] != owner[-1]:
                cut = _group_cut(owner)
                groups.append((_select_rows(frontier, slice(cut, None)), level))
                frontier = _select_rows(frontier, slice(cut))
                continue
            level += 1
            frontier = _refine(backend, classify, frontier, level, level >= depth_budget, tally)
    return lower, upper


# a radial table's leaf is at most this thin against its distance from the
# center, or this light against the least quota the table serves
_TABLE_EPS = 1e-2
# an absolute allowance on every cumulative table mass, above a closed-form
# ball bracket's own rounding (two CDF values <= 1, each a sum of at most 60
# rounded terms), so that the closed-form brackets lie inside the table's
_TABLE_FLOOR = 2.0 ** -44


def _radial_table(backend: MeasureBackend, centers, prec: float, least_quota: float,
                  depth: int):
    """Bracketed radial distribution functions ``r |-> mu(B(x_i, r))``, one per center.

    One level-synchronous descent takes the cylinders of every center down
    together, each row carrying its owner as the pruner's rows do. A child
    becomes a leaf when its distance range from its center is thin,
    ``dmax - dmin <= _TABLE_EPS * dmin``; when its mass is at most
    ``_TABLE_EPS * least_quota``; at level ``depth``; or when its center's
    frontier passes ``_NODE_CAP`` rows. A table cut short stays certified;
    its brackets are only wider. Each leaf's ``[dmin, dmax]`` is widened by
    ``prec``, the uncertainty of a projected center.

    Center ``i``'s table is ``(dmin, f_hi, dmax, f_lo)``: its leaves' widened
    ends, each sorted between -inf and inf, and the cumulative leaf masses in
    those orders from 0. So ``F_hi(r) = f_hi[searchsorted(dmin, r) - 1]``
    sums the leaves with ``dmin < r`` and ``F_lo(r) = f_lo[searchsorted(dmax,
    r, "right") - 1]`` those with ``dmax <= r``, and ``F_lo(r) <= mu(B(x_i,
    r)) <= F_hi(r)``. Read the other way, for a mass ``q`` the ball of radius
    ``r`` weighs less than ``q`` when ``r <= dmin[searchsorted(f_hi, q)]``
    and at least ``q`` when ``r >= dmax[searchsorted(f_lo, q)]``. Each sum of
    ``k`` leaves is rounded outward by ``(k + depth + 2) u (S + k) +
    _TABLE_FLOOR``: a leaf mass is at most 1 and within ``(depth + 2) u`` of
    its cylinder's (a product of at most ``depth`` weights, or a difference of
    two CDF values at box ends composed over at most ``depth`` maps), and the
    sum adds ``k u S``. The lower sums then take their running maximum, so
    both stay sorted.
    """
    system = backend.system
    _check_table_level(backend, depth)
    c = np.asarray(centers, dtype=float).reshape(-1, system.dim)
    n, m = c.shape[0], system.m
    floor = _TABLE_EPS * least_quota
    frontier = [*(np.repeat(col, n) for col in _initial_state(system)), np.ones(n),
                np.zeros(n, dtype=np.int64), np.arange(n)]
    levels = []  # each level's leaves per owner, and their dmin, dmax and mass
    level = 0
    while frontier[-1].size:
        level += 1
        *state, masses, idx, owner = frontier
        # all children of a row, in row-major order, keep the rows sorted by owner
        state = _children(system, state)
        j = np.tile(np.arange(1, m + 1), owner.size)
        idx = np.repeat(idx * m, m) + (j - 1)
        owner = np.repeat(owner, m)
        lo, hi = _state_boxes(system, state, system.attractor_box)
        masses = _child_masses(backend, np.repeat(masses, m), idx, level, j, lo, hi)
        dmin, dmax = _distance_range(c[owner], lo, hi)
        go = (dmax - dmin > _TABLE_EPS * dmin) & (masses > floor) & (level < depth)
        go &= (np.bincount(owner[go], minlength=n) <= _NODE_CAP)[owner]
        leaf = ~go
        levels.append((np.bincount(owner[leaf], minlength=n), dmin[leaf], dmax[leaf],
                       masses[leaf]))
        frontier = [*_select_rows(state, go), masses[go], idx[go], owner[go]]
    counts, *columns = zip(*levels)
    ends = [np.cumsum(count) for count in counts]
    u = np.finfo(float).eps / 2
    tables = []
    for i in range(n):
        parts = [slice(end[i] - count[i], end[i]) for end, count in zip(ends, counts)]
        dmin, dmax, masses = (np.concatenate([a[p] for a, p in zip(col, parts)])
                              for col in columns)
        k = np.arange(masses.size + 1)
        sides = []
        for key, sign in ((np.maximum(dmin - prec, 0.0), 1.0), (dmax + prec, -1.0)):
            by = np.argsort(key)
            total = np.concatenate([[0.0], np.cumsum(masses[by])])
            total += sign * ((k + depth + 2) * u * (total + k) + _TABLE_FLOOR)
            sides += [np.concatenate([[-np.inf], key[by], [np.inf]]),
                      total if sign > 0 else np.maximum.accumulate(total)]
        tables.append(tuple(sides))
    return tables


def region_measure(
    backend: MeasureBackend,
    region,
    depth_budget: int,
) -> MeasureBracket:
    """Bracket the measure of an open region by pruning the cylinder tree.

    The region takes the batched descent of the radial-mass oracle alone.
    Cylinders whose hull lies inside the region add their mass to the lower
    end; those that straddle its boundary are refined. The descent stops at
    ``depth_budget`` levels, when the straddle mass falls below 1e-18, or
    when more than ``_NODE_CAP`` cylinders straddle, and returns
    ``[inside, inside + straddle]``: the cap ends the descent with a wider
    bracket that still contains the true mass, not with an error.
    """
    _check_budget(depth_budget)
    lo, hi = _descend(backend, lambda lo, hi, owner: region.classify(lo, hi), 1, depth_budget)
    return MeasureBracket(float(lo[0]), float(hi[0]))


# ---------------------------------------------------------------------------
# the radial-mass oracle
# ---------------------------------------------------------------------------

_CDF_WALK_LEVELS = 60
_CDF_WALK_CHUNK = 1 << 15


def cantor_cdf_bracket(probs: Sequence[float], y) -> Tuple[np.ndarray, np.ndarray]:
    """Bracket F(y) = mu([0, y]) for the (p1, p2) middle-third Cantor measure.

    Vectorized digit walk over the flattened input, ``_CDF_WALK_CHUNK`` points
    at a time so the temporaries stay a few MB whatever the input size.  Inside
    a chunk only the live points are carried from level to level: a point
    stops exactly when y falls in a removed gap (a zero-width bracket),
    otherwise the residual cell mass p_max^60 bounds the error.  ``y <= 0``
    gives [0, 0], ``y >= 1`` gives [1, 1], and NaN gives the vacuous [0, 1].
    The result has the shape of ``np.atleast_1d(y)``.
    """
    p1, p2 = float(probs[0]), float(probs[1])
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi = np.zeros(y.shape), np.zeros(y.shape)
    flat_y, flat_lo, flat_hi = y.reshape(-1), lo.reshape(-1), hi.reshape(-1)
    for start in range(0, flat_y.size, _CDF_WALK_CHUNK):
        part = slice(start, start + _CDF_WALK_CHUNK)
        _cantor_walk_chunk(p1, p2, flat_y[part], flat_lo[part], flat_hi[part])
    return lo, hi


def _cantor_walk_chunk(p1: float, p2: float, y, lo, hi) -> None:
    """Write the CDF bracket of each ``y`` into the zeroed ``lo`` and ``hi``."""
    above = y >= 1.0
    lo[above] = 1.0
    hi[above] = 1.0
    hi[np.isnan(y)] = 1.0
    idx = np.flatnonzero((y > 0.0) & (y < 1.0))
    y = y[idx]
    a = np.zeros(idx.size)
    s = 1.0  # the cell width, one for every live point
    w = np.ones(idx.size)
    acc = np.zeros(idx.size)
    for _ in range(_CDF_WALK_LEVELS):
        if not idx.size:
            break
        rel = np.subtract(y, a)
        rel /= s
        right = rel >= 2.0 / 3.0
        not_left = rel >= 1.0 / 3.0
        del rel
        np.add(acc, w * p1, out=acc, where=not_left)
        gap = not_left & ~right
        if gap.any():  # retire the points that landed in a gap
            lo[idx[gap]] = hi[idx[gap]] = acc[gap]
            live = ~gap
            idx, y, a, w, acc, right = (v[live] for v in (idx, y, a, w, acc, right))
        # the right third moves a; every point takes its branch's weight
        np.add(a, 2.0 / 3.0 * s, out=a, where=right)
        w *= np.where(right, p2, p1)
        s /= 3.0
    lo[idx] = acc
    hi[idx] = acc + w


def _closed_form(backend: MeasureBackend):
    """The CDF bracket of a backend with a closed form, or None.

    The bracket maps ``y`` to ``(F_lo, F_hi)`` arrays around
    ``F(y) = mu((-inf, y])``.  A density backend takes its catalog CDF clipped
    to the attractor interval (both ends the same array); a Bernoulli measure
    on the middle-third Cantor set takes ``cantor_cdf_bracket``.
    """
    if isinstance(backend, DensityBackend):
        lo, hi = backend.system.attractor_box.lo[0], backend.system.attractor_box.hi[0]
        return lambda y: (backend.cdf(np.clip(y, lo, hi)),) * 2
    if isinstance(backend, BernoulliBackend) and _is_middle_third_cantor(backend.system):
        return lambda y: cantor_cdf_bracket(backend.probs, y)
    return None


def _radial_mass(backend: MeasureBackend, centers, radii, depth_budget: int):
    """Lower and upper arrays for ``mu(B(x_i, r_i))``: the one radial-mass oracle.

    ``radii`` holds positive radii, or zeros where a closed form serves them
    (the empty ball the quota rule's inner ball can shrink to);
    ``centers`` broadcasts to their shape on the line, and to their shape plus
    a trailing (x, y) axis in the plane (the coordinates ``project_windows``
    returns), so a broadcast view costs no copy.  With a closed-form CDF
    bracket ``F`` a ball's bracket is
    ``[F_lo(x+r) - F_hi(x-r), F_hi(x+r) - F_lo(x-r)]``, clipped at 0, from
    vectorized calls on blocks of half a walk chunk of points (``F`` at
    ``x - r`` and ``x + r`` of ``_CDF_WALK_CHUNK // 4`` balls), so the
    temporaries stay bounded whatever the number of balls.  Otherwise
    one cylinder descent (``_descend``) brackets all the balls together to at
    most ``depth_budget`` levels, one entry at a time, so callers pass each
    distinct ball once; each ball's bracket is the one ``region_measure``
    gives it alone.
    """
    _check_budget(depth_budget)
    radii = np.asarray(radii, dtype=float)
    dim = backend.system.dim
    shape = radii.shape if dim == 1 else radii.shape + (dim,)
    centers = np.broadcast_to(np.asarray(centers, dtype=float), shape)
    cdf = _closed_form(backend)
    if cdf is not None:
        # a buffered iterator hands out the balls in C order, a block of
        # centers and radii at a time (reshaping a broadcast view would copy it)
        lo, hi = np.empty(radii.size), np.empty(radii.size)
        blocks = np.nditer([centers, radii], flags=["external_loop", "buffered", "zerosize_ok"],
                           order="C", buffersize=_CDF_WALK_CHUNK // 4)
        start = 0
        for x, r in blocks:
            flo, fhi = cdf(np.concatenate([x - r, x + r]))
            n = len(r)
            part = slice(start, start + n)
            np.maximum(flo[n:] - fhi[:n], 0.0, out=lo[part])
            np.maximum(fhi[n:] - flo[:n], 0.0, out=hi[part])
            start += n
    else:
        if not np.all(radii > 0.0):  # NaN fails too
            raise ValueError("radius must be positive")
        c, r = centers.reshape(radii.size, dim), radii.reshape(-1)
        lo, hi = _descend(backend, lambda blo, bhi, owner: _classify_balls(
            c[owner], r[owner], blo, bhi), radii.size, depth_budget)
    return lo.reshape(radii.shape), hi.reshape(radii.shape)


def ball_measure(
    backend: MeasureBackend,
    x,
    r: float,
    depth_budget: int = 40,
) -> MeasureBracket:
    """Bracket mu(B(x, r)) (open ball) with the radial-mass oracle."""
    if not r > 0:  # NaN fails too
        raise ValueError("radius must be positive")
    x = as_point(x, backend.system.dim)
    lo, hi = _radial_mass(backend, _to_coords(_point_value(x)), np.array([r]), depth_budget)
    return MeasureBracket(float(lo[0]), float(hi[0]))


def annulus_measure(
    backend: MeasureBackend,
    x,
    r: float,
    rho: float,
    depth_budget: int = 40,
) -> MeasureBracket:
    """Bracket mu{y : r - rho < |y - x| < r + rho}.

    A backend with a closed-form CDF takes the difference of two oracle
    balls; otherwise the pruner classifies the annulus itself.
    """
    if not (r > 0 and rho > 0):  # NaN fails too
        raise ValueError("r and rho must be positive")
    x = as_point(x, backend.system.dim)
    if _closed_form(backend) is not None:
        radii = [r + rho] if rho >= r else [r + rho, r - rho]
        lo, hi = _radial_mass(backend, _to_coords(_point_value(x)), np.array(radii), depth_budget)
        if rho >= r:
            return MeasureBracket(float(lo[0]), float(hi[0]))
        # annulus = open outer ball minus closed inner ball; atomless
        # measures make the closed/open distinction null
        return MeasureBracket(max(0.0, float(lo[0] - hi[1])), max(0.0, float(hi[0] - lo[1])))
    return region_measure(backend, AnnulusRegion(x, r, rho), depth_budget)


def _quota_decider(backend: MeasureBackend, centers, prec: float, least_quota: float,
                   depth: int, ball_budget: int):
    """The measure-equalized hit rule: ``decide(dist, quota)`` marks the hits
    and flags of a ``(rows, steps)`` window of distances from ``centers``.

    A step is a hit when the ball around the start point through the orbit
    point carries less measure than the step's quota ``psi(n)`` (equivalent
    to the distance lying below the measure-equalized radius, since the
    radial mass is monotone and continuous). Start and orbit points are each
    known to ``prec``, so the step is a definite miss when the ball at
    ``max(d - 2 prec, 0)`` carries at least the quota and a definite hit when
    the ball at ``d + 2 prec`` carries less. Each start point's radial table,
    built here once (to ``depth``, for quotas down to ``least_quota``),
    decides most steps with one ``searchsorted`` per test: a hit when
    ``F_hi(d + 2 prec)`` is below the quota, a miss when
    ``F_lo(max(d - 2 prec, 0))`` reaches it. The oracle's brackets lie inside
    the table's, so the steps the table leaves open take the oracle's balls
    (to ``ball_budget``) lazily and decide as if no table had screened them:
    the inner ball, then the outer ball for the steps it does not miss, and
    the ball at ``d`` for the steps still open, which are flagged and counted
    by its bracket midpoint. Those balls need a closed form, which a run
    checks with ``_preflight`` before any sampling.
    """
    tables = _radial_table(backend, centers, prec, least_quota, depth)
    x0s, slack = np.asarray(centers, dtype=float), 2.0 * prec

    def decide(dist, quota):
        quota = np.broadcast_to(quota, dist.shape)
        hit = np.zeros(dist.shape, dtype=bool)
        still_open = np.zeros(dist.shape, dtype=bool)
        for i, (dmin, f_hi, dmax, f_lo) in enumerate(tables):
            d, q = dist[i], quota[i]
            np.less_equal(d + slack, dmin[np.searchsorted(f_hi, q)], out=hit[i])
            missed = np.maximum(d - slack, 0.0) >= dmax[np.searchsorted(f_lo, q)]
            np.logical_not(hit[i] | missed, out=still_open[i])
        rows, cols = np.nonzero(still_open)
        x, d, q = x0s[rows], dist[rows, cols], quota[rows, cols]
        live = _radial_mass(backend, x, np.maximum(d - slack, 0.0), ball_budget)[0] < q
        decided = np.zeros(d.size, dtype=bool)
        decided[live] = _radial_mass(backend, x[live], d[live] + slack, ball_budget)[1] < q[live]
        near = live & ~decided
        mid_lo, mid_hi = _radial_mass(backend, x[near], d[near], ball_budget)
        decided[near] = 0.5 * (mid_lo + mid_hi) < q[near]
        hit[rows, cols] = decided
        flag = np.zeros(dist.shape, dtype=bool)
        flag[rows, cols] = near
        return hit, flag

    return decide


_PRUNER_BALL_CAP = 20_000  # own-ball evaluations per run without a closed form
_LN3 = math.log(3.0)


def _preflight(kind: str, backend: MeasureBackend, radii, n_samples: int, ball_budget: int):
    """Refuse, before any sampling, a ``"shrink"``, ``"pure"`` or ``"modified"``
    run the oracle cannot serve (see the module docstring); the pure-run cap
    counts the whole run, whatever the chunking or worker count."""
    if _closed_form(backend) is not None:
        return
    if kind == "modified":
        raise CertificationError("measure-equalized recurrence needs a closed-form radial "
                                 "mass; use a Bernoulli ternary-Cantor or density backend")
    if backend.max_depth is not None and ball_budget > backend.max_depth:
        raise ValueError(
            f"ball budget {ball_budget} is beyond the spectral table depth "
            f"{backend.max_depth}; set depth_budgets.ball to at most {backend.max_depth}"
        )
    if kind == "pure":
        ordered = np.sort(radii, axis=None)  # np.unique would import numpy.ma
        n_radii = int(np.count_nonzero(ordered[1:] != ordered[:-1])) + 1
        if n_samples * n_radii > _PRUNER_BALL_CAP:
            raise CertificationError(
                f"own-ball sums through the cylinder pruner need {n_samples} samples x "
                f"{n_radii} distinct radii = {n_samples * n_radii} ball evaluations, "
                f"above the cap of {_PRUNER_BALL_CAP} per run; use fewer samples or "
                "radii, or a Bernoulli ternary-Cantor or density backend"
            )


def _own_ball_sums(backend: MeasureBackend, x0s, radii, cp_idx, ball_budget: int):
    """Cumulative own-ball measures sum_{n<=N} mu(B(x0, psi(n))) at checkpoints
    (bracket midpoints), one oracle call per sample over the distinct radii."""
    uniq, inverse = np.unique(radii, return_inverse=True)
    out = np.empty((x0s.shape[0], cp_idx.size))
    for i, x0 in enumerate(x0s):
        lo, hi = _radial_mass(backend, x0, uniq, ball_budget)
        out[i] = np.cumsum((0.5 * (lo + hi))[inverse])[cp_idx]
    return out


def _target_ball_sums(backend: MeasureBackend, targets, radii, cp_idx, ball_budget: int):
    """Cumulative target-ball measures sum_{n<=N} mu(B(y_n, psi(n))) at
    checkpoints (bracket midpoints), one oracle call over the distinct balls."""
    balls, inverse = np.unique(np.column_stack([targets.reshape(radii.size, -1), radii]),
                               axis=0, return_inverse=True)
    centers = balls[:, :-1].reshape((-1,) + targets.shape[1:])
    lo, hi = _radial_mass(backend, centers, balls[:, -1], ball_budget)
    mids = 0.5 * (lo + hi)
    wide = int(np.count_nonzero(hi - lo > 0.1 * np.maximum(mids, 1e-300)))
    if wide:
        logger.warning("%d target balls had wide measure brackets; midpoints used", wide)
    return np.cumsum(mids[inverse.reshape(-1)])[cp_idx]


def _cantor_levels(backend: MeasureBackend, radii: np.ndarray) -> Optional[np.ndarray]:
    """On a Bernoulli Cantor measure, the int16 levels ``k >= 0`` with ``radii
    = 3^-k`` (a positive double 3^-k has k <= 678), else None. The first radius
    is tried alone; the N-long pass holds one float array, the levels and one
    bool per radius."""
    if not (isinstance(backend, BernoulliBackend) and _is_middle_third_cantor(backend.system)):
        return None
    for part in (radii[:1], radii):
        work = np.log(part)
        np.rint(np.divide(work, -_LN3, out=work), out=work)
        ks = work.astype(np.int16)
        np.power(3.0, np.negative(ks, out=ks), out=work)
        np.negative(ks, out=ks)
        if ks.min() < 0 or not np.array_equal(work, part):
            return None
    return ks


# ---------------------------------------------------------------------------
# inverse radius
# ---------------------------------------------------------------------------

_RADIUS_PIN = 1e-12
_BISECTION_STEPS = 200  # pinning to _RADIUS_PIN takes about 40 halvings


def t_n_radius(
    backend: MeasureBackend,
    x,
    target: float,
    tol: float,
    depth_budget: int = 45,
) -> float:
    """The smallest radius with mu(B(x, r)) >= target, certified within tol.

    Bisection pins inf{r : mu(B(x, r)) >= target} to absolute radius
    precision 1e-12; that infimum is exactly 1-Lipschitz as a function of the
    center, so nearby centers receive radii within |x - x'| + 2e-12 of each
    other.  The measure bracket at the returned radius must certify the
    target within +-tol (measure units) or a ``CertificationError`` carrying
    the offending bracket is raised.  Targets at or above the total mass
    return the attractor diameter.
    """
    if not 0.0 < tol < np.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not target > 0.0:
        raise ValueError(f"target must be positive, got {target!r}")
    x = as_point(x, backend.system.dim)
    diam = backend.system.attractor_diameter[1]
    if target >= 1.0:
        return diam
    lo_r, hi_r = 0.0, diam * (1.0 + 1e-9)
    eta = _RADIUS_PIN * max(1.0, diam)
    steps = 0
    while hi_r - lo_r > eta:
        steps += 1
        if steps > _BISECTION_STEPS:
            raise CertificationError(f"bisection exceeded {_BISECTION_STEPS} steps")
        mid = 0.5 * (lo_r + hi_r)
        br = ball_measure(backend, x, mid, depth_budget)
        if br.upper < target:
            lo_r = mid
        elif br.lower >= target:
            hi_r = mid
        else:
            raise CertificationError(
                f"bracket width {br.width:.3e} cannot order the measure "
                "against the target; raise depth_budget",
                br,
            )
    final = ball_measure(backend, x, hi_r, depth_budget)
    if final.lower >= target - tol and final.upper <= target + tol:
        return hi_r
    raise CertificationError(
        f"measure at the pinned radius is [{final.lower:.6e}, {final.upper:.6e}], "
        f"outside target {target:.6e} +- {tol:.1e}",
        final,
    )


# ---------------------------------------------------------------------------
# derived series
# ---------------------------------------------------------------------------

def density_ratio_series(
    backend: MeasureBackend,
    x,
    psi: RadiusFunction,
    tau: float,
    N: int,
    depth_budget: int = 45,
) -> dict:
    """mu(B(x, psi(n))) / psi(n)^tau for n = 1..N with wide-bracket flags.

    ``N`` is an integer (an integral float is taken); a bool or a fraction
    raises ``ValueError``."""
    N = _whole(N, "N")
    x = as_point(x, backend.system.dim)
    ns = np.arange(1, N + 1)
    radii = psi.values(ns)
    if not np.all(radii > 0.0):  # NaN fails too
        raise ValueError("radius must be positive")
    uniq, inverse = np.unique(radii, return_inverse=True)
    lo, hi = _radial_mass(backend, _to_coords(_point_value(x)), uniq, depth_budget)
    mid = 0.5 * (lo + hi)
    flagged = hi - lo > 0.1 * np.maximum(mid, 1e-300)
    return {"n": ns, "values": mid[inverse] / radii ** tau, "flagged": flagged[inverse]}


def hyperplane_decay_probe(
    backend: MeasureBackend,
    x,
    r: float,
    rho: float,
    normal: Sequence[float],
    offset: float,
    depth_budget: int = 30,
) -> dict:
    """Ratio mu(strip(H, rho) and B(x, r)) / mu(B(x, r)) as bracket data."""
    x = as_point(x, backend.system.dim)
    strip = StripRegion(normal, offset, rho)
    num = region_measure(backend, IntersectRegion([strip, BallRegion(x, r)]), depth_budget)
    den = ball_measure(backend, x, r, depth_budget)
    if den.lower <= 0.0:
        raise CertificationError("denominator bracket touches zero", den)
    return {
        "numerator": num,
        "denominator": den,
        "ratio_low": num.lower / den.upper,
        "ratio_high": num.upper / den.lower,
        "ratio_mid": num.midpoint / den.midpoint,
    }


def doubling_ratio(
    backend: MeasureBackend,
    x,
    r: float,
    depth_budget: int = 40,
) -> float:
    """Bracket-midpoint ratio mu(B(x, 2r)) / mu(B(x, r))."""
    x = as_point(x, backend.system.dim)
    num = ball_measure(backend, x, 2.0 * r, depth_budget)
    den = ball_measure(backend, x, r, depth_budget)
    if den.midpoint <= 0.0:
        raise CertificationError("ball measure midpoint is zero", den)
    return num.midpoint / den.midpoint
