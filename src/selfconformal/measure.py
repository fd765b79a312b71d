"""Certified measures of balls, annuli, strips, and inverse radius problems.

All quantities are returned as two-sided brackets: a cylinder-tree pruner
classifies cylinder hulls as certainly inside / certainly outside / straddling
an open region, accumulates certain mass, and bounds the truth by the
straddling mass at the depth budget.

Every ball mass ``mu(B(x, r))`` comes from one radial-mass oracle,
``_radial_mass``: for backends with a closed-form distribution function
(interval densities, weighted middle-third Cantor measures) it takes the
difference of two bracketed CDF values, vectorized over any number of balls,
with near-zero bracket width; for every other backend and for planar systems
it runs the pruner once per ball.  The closed forms are cross-checked against
the pruner in the test-suite.  The Cantor CDF is a digit walk taken in
bounded chunks that carries only the live points from level to level: a
point stops exactly when it lands in a removed gap, and NaN gets the vacuous
bracket [0, 1].

A closed form also states its certified modulus, which bounds the mass of
two radial shells of a given total width.  A measure-equalized run decides
every step with it: one oracle pass at the observed distance ``d``, a screen
by the modulus, and a refinement at ``d -+ 2 prec`` only near the quota,
where a step neither ball decides is flagged.

``t_n_radius`` inverts r |-> mu(B(x, r)) by bisection and terminates only when
the measure bracket at the returned radius certifies the target value within
the requested measure tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .gibbs import BernoulliBackend, DensityBackend, MeasureBackend, SpectralBackend
from .ifs import (Affine1D, IfsSystem, _box_corners, _moebius_apply, _moebius_compose,
                  _point_value, _to_coords)
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

    def value(self, n: int) -> float:
        return self.c

    def values(self, ns: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(ns).shape, self.c, dtype=float)


@dataclass(frozen=True)
class PowerLogRadius:
    """psi(n) = 3^(-floor(alpha * ln n)): a staircase of Cantor scales."""

    alpha: float

    def value(self, n: int) -> float:
        return 3.0 ** (-math.floor(self.alpha * math.log(n)))

    def values(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=float)
        return 3.0 ** (-np.floor(self.alpha * np.log(ns)))


@dataclass(frozen=True)
class PowerRadius:
    """psi(n) = c * n^(-beta)."""

    c: float
    beta: float

    def value(self, n: int) -> float:
        return self.c * float(n) ** (-self.beta)

    def values(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=float)
        return self.c * ns ** (-self.beta)


RadiusFunction = Union[ConstantRadius, PowerLogRadius, PowerRadius]


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

INSIDE, STRADDLE, OUTSIDE = 1, 0, -1


def _distance_range(center: PointRd, lo: np.ndarray, hi: np.ndarray):
    """Least and greatest distance from ``center`` to each box ``[lo, hi]``."""
    c = np.asarray(center.coords)
    gap = np.maximum(np.maximum(lo - c, c - hi), 0.0)
    min_d = np.sqrt((gap ** 2).sum(axis=1))
    max_d = np.sqrt((np.maximum(c - lo, hi - c) ** 2).sum(axis=1))
    return min_d, max_d


class BallRegion:
    """Open ball; classification errs toward 'straddle'."""

    def __init__(self, center: PointRd, r: float):
        if r <= 0:
            raise ValueError("radius must be positive")
        self.center = center
        self.r = r

    def classify(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        min_d, max_d = _distance_range(self.center, lo, hi)
        out = np.zeros(lo.shape[0], dtype=np.int8)
        out[max_d < self.r] = INSIDE
        out[min_d >= self.r] = OUTSIDE
        return out


class AnnulusRegion:
    """Open annulus r - rho < |y - x| < r + rho."""

    def __init__(self, center: PointRd, r: float, rho: float):
        if r <= 0 or rho <= 0:
            raise ValueError("r and rho must be positive")
        self.center = center
        self.r = r
        self.rho = rho

    def classify(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        min_d, max_d = _distance_range(self.center, lo, hi)
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
        if n == 0 or rho <= 0:
            raise ValueError("need a nonzero normal and positive rho")
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

_NODE_CAP = 5_000_000


def _initial_state(system: IfsSystem):
    """The root node as a list of per-node columns: the identity's
    coefficients in the system's field ((a, b) when every map is affine),
    then the reflect bits when any map reflects."""
    one = np.ones(1, dtype=system.dtype)
    zero = np.zeros(1, dtype=system.dtype)
    state = [one, zero] if len(system._coeffs) == 2 else [one, zero, zero, one]
    if system._flips is not None:
        state.append(np.zeros(1, dtype=bool))
    return state


def _child_state(system: IfsSystem, state, j: int):
    mat = tuple(c[j - 1] for c in system._coeffs)
    k = len(mat)
    if len(state) == k:
        return list(_moebius_compose(state, mat))
    flip = state[k]
    mat = tuple(np.where(flip, c.conjugate(), c) for c in mat)
    return [*_moebius_compose(state[:k], mat), flip != system.maps[j - 1].reflect]


def _state_boxes(system: IfsSystem, state):
    """Boxes (lo, hi), shape (nodes, dim), bounding each node's images of the
    attractor box's vertices."""
    k = len(system._coeffs)
    pts = []
    for z in _box_corners(system.attractor_box):
        if len(state) > k:
            z = np.where(state[k], z.conjugate(), z)
        pts.append(_to_coords(_moebius_apply(state[:k], z)))
    lo, hi = functools.reduce(np.minimum, pts), functools.reduce(np.maximum, pts)
    return lo.reshape(len(lo), -1), hi.reshape(len(hi), -1)


def _select_state(state, mask):
    return [c[mask] for c in state]


def _child_masses(backend: MeasureBackend, masses, idx, level, j, lo, hi):
    if isinstance(backend, BernoulliBackend):
        return masses * backend.probs[j - 1]
    if isinstance(backend, DensityBackend):
        return backend.cdf(hi[:, 0]) - backend.cdf(lo[:, 0])
    if isinstance(backend, SpectralBackend):
        table = backend.level_table(level)
        return table[idx]
    raise TypeError(f"unsupported backend {type(backend).__name__}")


def _unit_bracket(lower: float, upper: float) -> MeasureBracket:
    """Clip a bracket to [0, 1], absorbing float summation rounding."""
    lower = min(max(lower, 0.0), 1.0)
    upper = min(max(upper, 0.0), 1.0)
    return MeasureBracket(min(lower, upper), upper)


def region_measure(
    backend: MeasureBackend,
    region,
    depth_budget: int,
) -> MeasureBracket:
    """Bracket the measure of an open region by pruning the cylinder tree."""
    system = backend.system
    if depth_budget < 1:
        raise ValueError("depth_budget must be >= 1")
    if isinstance(backend, SpectralBackend) and depth_budget > backend.max_depth:
        raise ValueError(f"depth_budget {depth_budget} is beyond the spectral "
                         f"table depth {backend.max_depth}")
    state = _initial_state(system)
    masses = np.array([1.0])
    idx = np.array([0], dtype=np.int64)
    lo, hi = _state_boxes(system, state)
    cls = region.classify(lo, hi)
    if cls[0] == INSIDE:
        return MeasureBracket(1.0, 1.0)
    if cls[0] == OUTSIDE:
        return MeasureBracket(0.0, 0.0)
    inside_mass = 0.0
    for level in range(1, depth_budget + 1):
        new_states, new_masses, new_idx = [], [], []
        for j in range(1, system.m + 1):
            cs = _child_state(system, state, j)
            ci = idx * system.m + (j - 1)
            lo, hi = _state_boxes(system, cs)
            cm = _child_masses(backend, masses, ci, level, j, lo, hi)
            cls = region.classify(lo, hi)
            inside_mass += float(cm[cls == INSIDE].sum())
            keep = cls == STRADDLE
            if np.any(keep):
                new_states.append(_select_state(cs, keep))
                new_masses.append(cm[keep])
                new_idx.append(ci[keep])
        if not new_states:
            return _unit_bracket(inside_mass, inside_mass)
        state = [np.concatenate(cols) for cols in zip(*new_states)]
        masses = np.concatenate(new_masses)
        idx = np.concatenate(new_idx)
        if masses.size > _NODE_CAP:
            raise CertificationError(
                f"straddle frontier exceeded {_NODE_CAP} nodes at depth {level}",
                _unit_bracket(inside_mass, inside_mass + float(masses.sum())),
            )
        if float(masses.sum()) < 1e-18:
            return _unit_bracket(inside_mass, inside_mass + float(masses.sum()))
    return _unit_bracket(inside_mass, inside_mass + float(masses.sum()))


# ---------------------------------------------------------------------------
# the radial-mass oracle
# ---------------------------------------------------------------------------

_CDF_WALK_LEVELS = 60
_CDF_WALK_CHUNK = 1 << 15
_LN3 = math.log(3.0)
# a density oracle's rounding: two masses are four CDF values, each within a
# few ulps of 1 at arguments in [0, 2], and two rounded differences
_DENSITY_ROUNDING = 32 * float(np.finfo(float).eps)


def _is_middle_third_cantor(system: IfsSystem) -> bool:
    if system.dim != 1 or system.m != 2:
        return False
    m1, m2 = system.maps
    return (
        isinstance(m1, Affine1D)
        and isinstance(m2, Affine1D)
        and abs(m1.a - 1.0 / 3.0) < 1e-15
        and abs(m1.b) < 1e-15
        and abs(m2.a - 1.0 / 3.0) < 1e-15
        and abs(m2.b - 2.0 / 3.0) < 1e-15
    )


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
    s = np.ones(idx.size)
    w = np.ones(idx.size)
    acc = np.zeros(idx.size)
    for _ in range(_CDF_WALK_LEVELS):
        if not idx.size:
            break
        rel = (y - a) / s
        right = rel >= 2.0 / 3.0
        not_left = rel >= 1.0 / 3.0
        acc = np.where(not_left, acc + w * p1, acc)
        gap = not_left & ~right
        if gap.any():  # retire the points that landed in a gap
            lo[idx[gap]] = hi[idx[gap]] = acc[gap]
            live = ~gap
            idx, y, a, s, w, acc, right = (
                v[live] for v in (idx, y, a, s, w, acc, right))
        a = np.where(right, a + 2.0 / 3.0 * s, a)
        w = np.where(right, w * p2, w * p1)
        s = s / 3.0
    lo[idx] = acc
    hi[idx] = acc + w


def _cantor_modulus(probs: Sequence[float], delta: float) -> float:
    """Upper bound for the mass that two radial shells of total width
    ``delta`` (or one interval of length ``delta``) can carry under a weighted
    ternary Cantor measure, plus the residual of the
    ``_CDF_WALK_LEVELS``-level CDF walk."""
    if delta <= 0.0:
        return 4.0 * max(probs) ** _CDF_WALK_LEVELS
    pmax = max(probs)
    k = int(math.floor(math.log(max(1.0 / delta, 1.0)) / _LN3))
    k = min(max(k, 0), _CDF_WALK_LEVELS)
    return 2.0 * pmax ** k + 4.0 * pmax ** _CDF_WALK_LEVELS


def _closed_form(backend: MeasureBackend):
    """The pair ``(cdf, modulus)`` of a backend with a closed form, or None.

    ``cdf(y)`` brackets ``F(y) = mu((-inf, y])`` as ``(F_lo, F_hi)`` arrays.
    ``modulus(delta)`` bounds the mass of two radial shells of total width
    ``delta``, the residual and rounding of the brackets included.  A density
    backend takes its catalog CDF clipped to the attractor interval and
    ``delta * sup h`` plus rounding; a Bernoulli measure on the middle-third
    Cantor set takes ``cantor_cdf_bracket`` and ``_cantor_modulus``.
    """
    if isinstance(backend, DensityBackend):
        lo, hi = backend.system.attractor_box.lo[0], backend.system.attractor_box.hi[0]
        sup_h = backend.sup_density
        return (lambda y: (backend.cdf(np.clip(y, lo, hi)),) * 2,
                lambda delta: max(delta, 0.0) * sup_h + _DENSITY_ROUNDING)
    if isinstance(backend, BernoulliBackend) and _is_middle_third_cantor(backend.system):
        return (lambda y: cantor_cdf_bracket(backend.probs, y),
                lambda delta: _cantor_modulus(backend.probs, delta))
    return None


def _radial_mass(backend: MeasureBackend, centers, radii, depth_budget: int):
    """Lower and upper arrays for ``mu(B(x_i, r_i))``: the one radial-mass oracle.

    ``radii`` holds positive radii; ``centers`` broadcasts to their shape on
    the line, and to their shape plus a trailing (x, y) axis in the plane
    (the coordinates ``project_windows`` returns).  With a closed-form CDF
    bracket ``F`` every ball costs one vectorized call:
    ``[F_lo(x+r) - F_hi(x-r), F_hi(x+r) - F_lo(x-r)]``, clipped at 0.  Otherwise
    ``region_measure`` brackets each ball to ``depth_budget`` levels, once
    per entry, so callers pass each distinct ball once.
    """
    radii = np.asarray(radii, dtype=float)
    dim = backend.system.dim
    shape = radii.shape if dim == 1 else radii.shape + (dim,)
    centers = np.broadcast_to(np.asarray(centers, dtype=float), shape)
    form = _closed_form(backend)
    if form is not None:
        cdf, _ = form
        flo, fhi = cdf(np.concatenate([(centers - radii).ravel(), (centers + radii).ravel()]))
        half = radii.size
        lo = np.maximum(flo[half:] - fhi[:half], 0.0)
        hi = np.maximum(fhi[half:] - flo[:half], 0.0)
    else:
        lo, hi = np.empty(radii.size), np.empty(radii.size)
        for i, (c, r) in enumerate(zip(centers.reshape(radii.size, dim), radii.ravel())):
            br = region_measure(backend, BallRegion(PointRd(tuple(c)), float(r)), depth_budget)
            lo[i], hi[i] = br.lower, br.upper
    return lo.reshape(radii.shape), hi.reshape(radii.shape)


def ball_measure(
    backend: MeasureBackend,
    x,
    r: float,
    depth_budget: int = 40,
    method: str = "auto",
) -> MeasureBracket:
    """Bracket mu(B(x, r)) (open ball): the radial-mass oracle in ``"auto"``,
    the cylinder pruner alone in ``"prune"``."""
    if r <= 0:
        raise ValueError("radius must be positive")
    x = as_point(x, backend.system.dim)
    if method not in ("auto", "prune"):
        raise ValueError("method must be 'auto' or 'prune'")
    if method == "auto":
        lo, hi = _radial_mass(backend, _to_coords(_point_value(x)), np.array([r]), depth_budget)
        return MeasureBracket(float(lo[0]), float(hi[0]))
    return region_measure(backend, BallRegion(x, r), depth_budget)


def annulus_measure(
    backend: MeasureBackend,
    x,
    r: float,
    rho: float,
    depth_budget: int = 40,
    method: str = "auto",
) -> MeasureBracket:
    """Bracket mu{y : r - rho < |y - x| < r + rho}.

    In ``"auto"``, a backend with a closed-form CDF takes the difference of
    two oracle balls; otherwise the pruner classifies the annulus itself.
    """
    if r <= 0 or rho <= 0:
        raise ValueError("r and rho must be positive")
    x = as_point(x, backend.system.dim)
    if method not in ("auto", "prune"):
        raise ValueError("method must be 'auto' or 'prune'")
    if method == "auto" and _closed_form(backend) is not None:
        radii = [r + rho] if rho >= r else [r + rho, r - rho]
        lo, hi = _radial_mass(backend, _to_coords(_point_value(x)), np.array(radii), depth_budget)
        if rho >= r:
            return MeasureBracket(float(lo[0]), float(hi[0]))
        # annulus = open outer ball minus closed inner ball; atomless
        # measures make the closed/open distinction null
        return MeasureBracket(max(0.0, float(lo[0] - hi[1])), max(0.0, float(hi[0] - lo[1])))
    return region_measure(backend, AnnulusRegion(x, r, rho), depth_budget)


# ---------------------------------------------------------------------------
# inverse radius
# ---------------------------------------------------------------------------

_RADIUS_PIN = 1e-12


def t_n_radius(
    backend: MeasureBackend,
    x,
    target: float,
    tol: float,
    depth_budget: int = 45,
    max_steps: int = 200,
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
    if tol <= 0:
        raise ValueError("tol must be positive")
    if target <= 0:
        raise ValueError("target must be positive")
    x = as_point(x, backend.system.dim)
    diam = backend.system.attractor_diameter[1]
    if target >= 1.0:
        return diam
    lo_r, hi_r = 0.0, diam * (1.0 + 1e-9)
    eta = _RADIUS_PIN * max(1.0, diam)
    steps = 0
    while hi_r - lo_r > eta:
        steps += 1
        if steps > max_steps:
            raise CertificationError("bisection exceeded max_steps")
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
    """mu(B(x, psi(n))) / psi(n)^tau for n = 1..N with wide-bracket flags."""
    x = as_point(x, backend.system.dim)
    ns = np.arange(1, N + 1)
    radii = psi.values(ns)
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
