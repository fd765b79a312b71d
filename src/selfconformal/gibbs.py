"""Gibbs measures for conformal systems via Ruelle transfer operators.

Three measure backends share one interface (cylinder masses by word, level
tables, next-symbol laws):

* ``BernoulliBackend``   -- exact product measures;
* ``DensityBackend``     -- measures with a closed-form distribution function
                            (catalog: ``reciprocal_log2``, the invariant
                            density 1/(log2 * (1+x)) on [0,1]);
* ``SpectralBackend``    -- the cylinder-mass table of the transfer
                            operator's eigendata at a chosen depth.

``eigen_solve`` collocates the operator L f = sum_j w_j (f o phi_j), with
w_j = |phi_j'|^tau or a constant p_j, at n Chebyshev points of the root
interval: the n x n matrix ``M[k, l] = sum_j w_j(x_k) ell_l(phi_j(x_k))``,
with ell_l the barycentric Lagrange basis.  Every 1-D map is Moebius, hence
analytic, so the eigendata converge exponentially in n; n is the first size
on a fixed doubling ladder at which the eigenvalue and a check-grid residual
stop moving.  h and the conformal measure nu are M's right and left
eigenvectors, and the mass of a word a_1 ... a_d is
``u . A_{a_d} ... A_{a_1} h`` with ``A_j = diag(w_j(x)) B_j / lambda``; the
report builds that table on its first read, from both ends of the word.

Each backend's next-symbol law is written once, as the vectorized chain that
``backend.chain(n_rows)`` returns: ``rows()`` gives each row's next-symbol
weights (proportional to the conditional law), ``cum_rows()`` their cumulative
sums, which the samplers pick from, and ``advance(symbols)`` appends one
symbol per row.  The Bernoulli chain's law does not move, so it holds one
weight row and one cumulative row for any ``n_rows`` and its ``advance``
does nothing.  The samplers in :mod:`selfconformal.dynamics` and
:func:`conditional_next` read the law through it, and the spectral cylinder
masses past the table depth read its deepest conditional rows: the rows of
the deepest table, each divided by its own sum as it is gathered.

Exact joint masses ``mu([I] intersect sigma^-n[J])`` are read off level tables
(``_joint_masses``, ``_pair_mass``), and never past a spectral table.

``mixing_coeff_cylinders`` measures the uniform dependence coefficient between
a leading block and the remaining symbols at a fixed table depth; product
measures give exactly zero for every positive separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .ifs import (IfsSystem, _abs_det, _child_state, _compose_states,
                  _denominators, _end_images, _images, _initial_state,
                  _rescaled_state, _state_boxes, _word_state)
from .symbolic import FiniteWord

__all__ = [
    "BernoulliPotential",
    "ConformalPowerPotential",
    "ClosedFormDensityPotential",
    "BernoulliBackend",
    "DensityBackend",
    "SpectralBackend",
    "EigenReport",
    "eigen_solve",
    "cylinder_measure",
    "conditional_next",
    "verify_gibbs_property",
    "mixing_coeff_cylinders",
    "DENSITY_CATALOG",
]

_LEVEL_TABLE_CAP = 25_000_000  # max cells in any requested level table


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BernoulliPotential:
    """Constant branch weights (a probability vector)."""

    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if any(not p > 0 for p in self.probs):  # NaN fails too
            raise ValueError("weights must be positive")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class ConformalPowerPotential:
    """Weight |phi_j'(x)|^tau."""

    tau: float

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")


@dataclass(frozen=True)
class ClosedFormDensityPotential:
    """Names a catalog entry with an explicit invariant distribution."""

    name: str

    def __post_init__(self):
        if self.name not in DENSITY_CATALOG:
            raise ValueError(f"unknown density catalog entry {self.name!r}")


PotentialSpec = Union[BernoulliPotential, ConformalPowerPotential, ClosedFormDensityPotential]


# ---------------------------------------------------------------------------
# density catalog
# ---------------------------------------------------------------------------

_LOG2 = math.log(2.0)


def _H_reciprocal_log2(x):
    """Distribution function of the density 1/(log2 * (1+x)) on [0,1]."""
    return np.log1p(x) / _LOG2


def _h_reciprocal_log2(x):
    return 1.0 / (_LOG2 * (1.0 + np.asarray(x, dtype=float)))


DENSITY_CATALOG = {
    "reciprocal_log2": {
        "cdf": _H_reciprocal_log2,
        "density": _h_reciprocal_log2,
        "eigenvalue": 1.0,
        "tau": 1.0,
        "support": (0.0, 1.0),  # the interval where cdf and density hold
    }
}


# ---------------------------------------------------------------------------
# word indexing helpers
# ---------------------------------------------------------------------------

def word_index(word: FiniteWord) -> int:
    """Lexicographic index of a word among all words of its length."""
    idx = 0
    for s in word:
        idx = idx * word.m + (s - 1)
    return idx


def _over_alphabet(word, m: int) -> FiniteWord:
    """``word`` as a word over the alphabet ``1..m``: a bare symbol tuple is
    read over it, and a word over another alphabet is refused."""
    if not isinstance(word, FiniteWord):
        return FiniteWord(tuple(word), m)
    if word.m != m:
        raise ValueError(
            f"word over the alphabet 1..{word.m}; the system alphabet is 1..{m}"
        )
    return word


def _root(system: IfsSystem) -> Tuple[float, float]:
    """The attractor interval of a 1-D system."""
    return system.attractor_box.lo[0], system.attractor_box.hi[0]


def _whole(value, name: str) -> int:
    """``value`` as an int: an integer, or a float with an integral value (a
    config's ``integer`` admits 1000.0); a bool or a fraction is refused."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer())):
        raise ValueError(f"{name}: {value!r} is not an integer")
    return int(value)


def _check_level(k) -> int:
    """A table level as an int >= 0 (an integral float is taken), else
    ``ValueError`` naming it."""
    k = _whole(k, "level")
    if k < 0:
        raise ValueError(f"level {k} is below 0")
    return k


def _check_level_size(m: int, k: int):
    if m ** k > _LEVEL_TABLE_CAP:
        raise ValueError(f"level table of size {m}^{k} exceeds the cap")


def _check_weight_count(system: IfsSystem, probs: Sequence[float]) -> None:
    if len(probs) != system.m:
        raise ValueError(
            f"need one weight per map: got {len(probs)} weights for {system.m} maps"
        )


def _potential_tau(potential: PotentialSpec) -> Optional[float]:
    """The exponent tau of a potential's branch weights |phi_j'|^tau, or None
    for constant (Bernoulli) weights."""
    if isinstance(potential, BernoulliPotential):
        return None
    if isinstance(potential, ConformalPowerPotential):
        return potential.tau
    if isinstance(potential, ClosedFormDensityPotential):
        return DENSITY_CATALOG[potential.name]["tau"]
    raise TypeError(f"unsupported potential {potential!r}")


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

class BernoulliBackend:
    """Product measure: mass of a word is the product of its symbol weights."""

    max_depth: Optional[int] = None

    def __init__(self, system: IfsSystem, probs: Sequence[float]):
        _check_weight_count(system, probs)
        self.system = system
        self.potential = BernoulliPotential(tuple(probs))
        self.probs = np.asarray(self.potential.probs)
        self._tables = {0: np.array([1.0])}

    def cylinder_measure(self, word: FiniteWord) -> float:
        out = 1.0
        for s in _over_alphabet(word, self.system.m):
            out *= self.probs[s - 1]
        return float(out)

    def level_table(self, k: int) -> np.ndarray:
        k = _check_level(k)
        if k not in self._tables:
            _check_level_size(self.system.m, k)
            prev = self.level_table(k - 1)
            self._tables[k] = (prev[:, None] * self.probs[None, :]).ravel()
        return self._tables[k]

    def chain(self, n_rows: int) -> _BernoulliChain:
        return _BernoulliChain(self)


# Rounding allowance of the invariance check, in units of the CDF's ulp at 1
# per term: each side is a sum of up to m + 1 CDF differences of values in
# [0, 1], and each value carries a few ulps from the log and the Moebius map.
# The catalog's true pairs stay within 1.4 ulps in all; a density that is not
# invariant misses by a fixed fraction of its mass (0.32 on the Cantor set).
_INVARIANCE_ULPS = 8
_INVARIANCE_GRID = 65


def _check_invariant(system: IfsSystem, cdf, root: Tuple[float, float], name: str) -> None:
    """Refuse a catalog CDF that is not invariant for the system.

    An invariant measure gives the preimage of ``[a0, y]`` under the induced
    map, the union of the images ``phi_j([a0, y])``, the mass of ``[a0, y]``:
    ``sum_j |F(phi_j(y)) - F(phi_j(a0))| = F(y) - F(a0)``. The identity is
    checked on a grid of the attractor interval.
    """
    a0, b0 = root
    y = np.linspace(a0, b0, _INVARIANCE_GRID)
    f = cdf(_images(system, np.append(a0, y))).reshape(system.m, -1)  # phi(a0), then phi(y)
    images = np.abs(f[:, 1:] - f[:, :1]).sum(axis=0)
    residual = float(np.max(np.abs(images - (cdf(y) - cdf(a0)))))
    if residual > _INVARIANCE_ULPS * (system.m + 1) * np.finfo(float).eps:
        raise ValueError(
            f"density {name!r} is not invariant for this system: the images of "
            f"[{a0}, y] carry a mass that differs from that of [{a0}, y] by up to "
            f"{residual:.3g}"
        )


class DensityBackend:
    """Closed-form measure: mu([a,b]) = H(b) - H(a) for a catalog CDF.

    Cylinder intervals come from exact monotone endpoint composition, so
    masses are exact up to floating-point rounding.
    """

    max_depth: Optional[int] = None

    def __init__(self, system: IfsSystem, name: str):
        if system.dim != 1:
            raise ValueError("density backends require a 1-D system")
        self.system = system
        self.potential = ClosedFormDensityPotential(name)
        self.name = name
        cat = DENSITY_CATALOG[name]
        self._root = _root(system)
        lo, hi = cat["support"]
        if self._root[0] < lo or self._root[1] > hi:
            raise ValueError(f"attractor box {self._root} leaves the support "
                             f"{cat['support']} of density {name!r}")
        self.cdf = cat["cdf"]
        _check_invariant(system, self.cdf, self._root, name)
        self.density = cat["density"]
        self.eigenvalue = cat["eigenvalue"]
        self._tables = {}

    def cylinder_measure(self, word: FiniteWord) -> float:
        system = self.system
        state = _word_state(system, _over_alphabet(word, system.m))
        lo, hi = _state_boxes(system, state, system.attractor_box)
        return float(self.cdf(hi[0, 0]) - self.cdf(lo[0, 0]))

    def level_table(self, k: int) -> np.ndarray:
        k = _check_level(k)
        if k not in self._tables:
            _check_level_size(self.system.m, k)
            lo, hi = _cell_arrays(self.system, k)
            self._tables[k] = self.cdf(hi) - self.cdf(lo)
        return self._tables[k]

    def chain(self, n_rows: int) -> _DensityChain:
        return _DensityChain(self, n_rows)


def _cell_arrays(system: IfsSystem, depth: int) -> tuple:
    """``(lo, hi)``: the ends of all depth-k cells (k >= 1) of a 1-D system,
    in lexicographic word order (first symbol most significant), the images
    of the attractor interval's ends."""
    ends = []
    for x in _root(system):
        z = np.array([x])
        for _ in range(depth):
            z = _images(system, z)
        ends.append(z)
    a, b = ends
    return np.minimum(a, b), np.maximum(a, b, out=b)


# ---------------------------------------------------------------------------
# eigen-solver
# ---------------------------------------------------------------------------

_NODE_LADDER = (8, 16, 32, 64, 128, 256)  # collocation sizes, tried in this order
_SETTLE = 1e-12  # a move of lambda and of the residual, relative to lambda, that counts as none
_CHECK_POINTS = 129  # evenly spaced points of the residual's check grid


def _chebyshev(system: IfsSystem, n: int) -> np.ndarray:
    """The n Chebyshev points of the second kind on the root interval."""
    a, b = _root(system)
    return 0.5 * (a + b) + 0.5 * (b - a) * np.cos(np.pi * np.arange(n) / (n - 1))


def _lagrange(system: IfsSystem, n: int, y: np.ndarray) -> np.ndarray:
    """``B[i, l] = ell_l(y_i)``, the barycentric Lagrange basis of the n
    Chebyshev points at the points y: ``B @ f`` interpolates the nodal
    values f (J.-P. Berrut & L. N. Trefethen, SIAM Review 46, 2004)."""
    weights = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    weights[[0, -1]] *= 0.5
    d = np.subtract.outer(y, _chebyshev(system, n))
    hit = d == 0.0
    d[hit] = 1.0
    basis = weights / d
    on_node = hit.any(axis=1)
    basis[on_node] = hit[on_node]  # a point on a node reads that node's value
    basis /= basis.sum(axis=1, keepdims=True)
    return basis


def _interpolate(system: IfsSystem, values: np.ndarray, x):
    """The interpolant of nodal values at a point, or at each point of an array."""
    out = _lagrange(system, len(values), np.ravel(np.asarray(x, dtype=float))) @ values
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _derivatives(system: IfsSystem, y: np.ndarray) -> np.ndarray:
    """``|phi_j'(y_i)|`` at row j - 1, column i, from the maps' states."""
    maps = _child_state(system, _initial_state(system), np.arange(1, system.m + 1)[:, None])
    return np.broadcast_to(_abs_det(system, maps) / _denominators(system, maps, y, y),
                           (system.m, y.size))


def _branch_weights(system: IfsSystem, potential: PotentialSpec, y: np.ndarray) -> np.ndarray:
    """Branch j's weight at each point y, at row j - 1: the constant p_j of a
    Bernoulli potential, else |phi_j'|^tau.  A weight that is not a finite,
    normal, positive float64 (an overflow, or an underflow to a subnormal or
    0) is refused: the operator would lose the branch."""
    tau = _potential_tau(potential)
    if tau is None:
        return np.repeat(np.asarray(potential.probs)[:, None], y.size, axis=1)
    with np.errstate(all="ignore"):  # the range check below names what went wrong
        weights = _derivatives(system, y) ** tau
    least, most = weights.min(), weights.max()
    if not (least >= np.finfo(float).tiny and most <= np.finfo(float).max):
        raise ValueError(
            f"the branch weights |phi_j'|^s at s = {tau} do not fit float64 on "
            f"{list(_root(system))} (weights from {least:.3g} to {most:.3g}); use an s "
            "of smaller magnitude"
        )
    return weights


def _collocate(system: IfsSystem, potential: PotentialSpec, n: int) -> tuple:
    """The operator at n nodes x_k: ``(lambda, h, u, ops)``.

    ``ops[j - 1, k, l] = w_j(x_k) ell_l(phi_j(x_k)) / lambda`` is branch j's
    part of the matrix ``M = lambda * sum_j ops[j - 1]``, which maps nodal
    values f to those of L f.  lambda is M's leading eigenvalue, h its right
    eigenvector and u its left one, scaled so that ``u . 1 = u . h = 1``.
    """
    x = _chebyshev(system, n)
    ops = _lagrange(system, n, _images(system, x)).reshape(system.m, n, n)
    ops *= _branch_weights(system, potential, x)[:, :, None]
    matrix = ops.sum(axis=0)
    values, right = np.linalg.eig(matrix)
    lead = np.argmax(values.real)
    lam, h = float(values[lead].real), right[:, lead].real
    values, left = np.linalg.eig(matrix.T)
    u = left[:, np.argmax(values.real)].real
    u /= u.sum()
    h /= u @ h
    ops /= lam
    return lam, h, u, ops


@dataclass
class EigenReport:
    """Leading eigendata of the transfer operator, collocated at ``nodes``
    Chebyshev points of the root interval.

    ``h_values`` are h's values at the nodes (``h_at`` interpolates them) and
    ``nu_weights`` the weights u of the conformal measure, nu(f) ~ u . f at the
    nodes; ``residual`` is ``max |(L h)/h - lambda|`` on a check grid and
    ``iterations`` the number of solves tried on the node ladder.
    ``operators`` holds the m branch matrices ``A_j`` of ``_collocate``, so
    that ``mu_table``, the cylinder masses of every depth-``depth`` word in
    word order, is built on its first read and then kept.
    """

    eigenvalue: float
    depth: int
    nodes: int
    h_values: np.ndarray
    nu_weights: np.ndarray
    residual: float
    iterations: int
    converged: bool
    system: IfsSystem = field(repr=False)
    operators: np.ndarray = field(repr=False)

    def h_at(self, x):
        """The density's interpolant at a point, or at each point of an array."""
        return _interpolate(self.system, self.h_values, x)

    @cached_property
    def mu_table(self) -> np.ndarray:
        """``mu[a_1 ... a_d] = u . A_{a_d} ... A_{a_1} h``, built from both ends:
        ``head[w]`` holds ``A_{w_k} ... A_{w_1} h`` for the first half of the
        symbols (``head[w.j] = A_j head[w]``), ``tail[v]`` holds
        ``u . A_{v_k} ... A_{v_1}`` for the rest (``tail[j.v] = tail[v] A_j``),
        and the table is their one product, so the build holds the table and
        two arrays of about ``m^(d/2)`` nodal rows."""
        n = self.nodes
        head, tail = self.h_values[None, :], self.nu_weights[None, :]
        for _ in range(self.depth - self.depth // 2):  # (m, words, n), then word-major
            head = (head @ self.operators.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(-1, n)
        for _ in range(self.depth // 2):  # (m, words, n) is already symbol-major
            tail = (tail @ self.operators).reshape(-1, n)
        return (head @ tail.T).ravel()


def eigen_solve(
    system: IfsSystem,
    potential: PotentialSpec,
    depth: int,
) -> EigenReport:
    """Leading eigendata of L f = sum_j w_j (f o phi_j), w_j = |phi_j'|^tau
    or p_j, and the depth-``depth`` cylinder masses of its Gibbs measure.

    Chebyshev collocation (O. F. Bandtlow & J. Slipantschuk, "Lagrange
    approximation of transfer operators associated with holomorphic data",
    2020): L is read at n nodes of the root interval, which for analytic maps
    converges exponentially in n.  n is the first size on ``_NODE_LADDER``
    whose eigenvalue and check-grid residual moved by at most ``_SETTLE``
    (relative) from the size before; ``converged`` is false when the ladder
    ends first.  A branch weight that float64 cannot hold is refused before
    any solve, as is a ``depth`` that is not an integer >= 1 (an integral
    float is taken).
    """
    if system.dim != 1:
        raise ValueError("the eigensolver operates on 1-D systems")
    depth = _whole(depth, "depth")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if _potential_tau(potential) is None:
        _check_weight_count(system, potential.probs)
    _check_level_size(system.m, depth)
    grid = np.linspace(*_root(system), _CHECK_POINTS)
    grid_weights = _branch_weights(system, potential, grid)
    grid_images = _images(system, grid)
    previous = None
    for iterations, n in enumerate(_NODE_LADDER, 1):
        lam, h, u, ops = _collocate(system, potential, n)
        image = (grid_weights * _interpolate(system, h, grid_images).reshape(system.m, -1)).sum(0)
        residual = float(np.max(np.abs(image / _interpolate(system, h, grid) - lam)))
        converged = previous is not None and max(abs(lam - previous[0]),
                                                 abs(residual - previous[1])) <= _SETTLE * lam
        if converged:
            break
        previous = lam, residual
    return EigenReport(
        eigenvalue=lam,
        depth=depth,
        nodes=n,
        h_values=h,
        nu_weights=u,
        residual=residual,
        iterations=iterations,
        converged=converged,
        system=system,
        operators=ops,
    )


def _check_table_level(backend: MeasureBackend, level: int) -> None:
    if backend.max_depth is not None and level > backend.max_depth:
        raise ValueError(f"level {level} is beyond the spectral table depth {backend.max_depth}")


class SpectralBackend:
    """Measure backend backed by an ``EigenReport`` cylinder-mass table.

    Words at most ``depth`` long are read off the table exactly (by
    marginalization).  Longer words are extended multiplicatively with the
    deepest tabled next-symbol conditionals (a sliding context of depth-1
    symbols); that extension is an approximation that serves
    :meth:`cylinder_measure` and the sampler only: exact joint masses and
    mixing coefficients refuse any level past the table.  ``potential`` is the
    one ``report`` was solved for; :func:`verify_gibbs_property` reads its
    branch weights.  The backend keeps only the report's mass table,
    eigenvalue and nodal density values, not the report, and beside them only
    the level tables below the table depth: the deepest conditionals are the
    table's rows, divided by their sums as they are read.  A report solved for
    another system, or whose node ladder ended before it settled, is refused.
    """

    def __init__(self, system: IfsSystem, report: EigenReport, potential: PotentialSpec):
        if report.system is not system:
            raise ValueError("report was solved for a different system")
        if not report.converged:
            raise ValueError(
                f"the depth-{report.depth} eigen solve did not settle in {report.iterations} "
                f"solves, up to {report.nodes} nodes; its mass table is not the measure's"
            )
        self.system = system
        self.potential = potential
        self.max_depth = report.depth
        self.eigenvalue = report.eigenvalue
        self.h_values = report.h_values
        self._tables = {report.depth: report.mu_table}

    def level_table(self, k: int) -> np.ndarray:
        k = _check_level(k)
        _check_table_level(self, k)
        if k not in self._tables:
            mm = self.system.m
            deep = self._tables[self.max_depth]
            self._tables[k] = deep.reshape(mm ** k, -1).sum(axis=1)
        return self._tables[k]

    def _law_tables(self):
        """Level tables 0..depth and the deepest one as a view of ``m``-symbol
        rows, row ``c`` the table's masses of the context word ``c`` followed
        by each symbol; the rows past the table are normalized as they are
        gathered (``_conditional_rows``), so no normalized copy is kept."""
        if not hasattr(self, "_law"):
            tables = [self.level_table(k) for k in range(self.max_depth + 1)]
            self._law = (tables, tables[-1].reshape(-1, self.system.m))
        return self._law

    def chain(self, n_rows: int) -> _SpectralChain:
        return _SpectralChain(self, n_rows)

    def cylinder_measure(self, word: FiniteWord) -> float:
        m, depth = self.system.m, self.max_depth
        word = _over_alphabet(word, m)
        k = len(word)
        if k <= depth:
            return float(self.level_table(k)[word_index(word)])
        # past the table a symbol's law is the deepest conditional row of the
        # depth - 1 symbols before it, the sampler's sliding context
        s = np.array(word.symbols, dtype=np.int64) - 1
        ctx = np.zeros(k - depth, dtype=np.int64)
        for j in range(1, depth):
            ctx = ctx * m + s[j : j + k - depth]
        rows = _conditional_rows(self._law_tables()[1], ctx)
        picked = rows[np.arange(k - depth), s[depth:]] / rows.sum(axis=1)
        head = word_index(FiniteWord(word.symbols[:depth], m))
        return float(self.level_table(depth)[head] * picked.prod())

    def h_at(self, x):
        """The density's interpolant at a point, or at each point of an array."""
        return _interpolate(self.system, self.h_values, x)


# ---------------------------------------------------------------------------
# next-symbol laws: one vectorized chain per backend (rows = concurrent words)
# ---------------------------------------------------------------------------

def _conditional_rows(deep: np.ndarray, ctx: np.ndarray) -> np.ndarray:
    """The deepest tabled next-symbol conditionals of the contexts ``ctx``:
    their rows of the depth table, each divided by its own sum."""
    rows = deep[ctx]
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def _normalized_cumsum(rows: np.ndarray) -> np.ndarray:
    cum = np.add.accumulate(rows, axis=1)  # np.cumsum, without its dispatch
    cum /= cum[:, -1:]
    return cum


class _BernoulliChain:
    """i.i.d. symbols: one ``(1, m)`` weight row and its cumulative row serve
    every sample row, whatever the block's size."""

    def __init__(self, backend: BernoulliBackend):
        self._rows = backend.probs[None, :]
        self._cum = np.cumsum(backend.probs)[None, :]

    def rows(self) -> np.ndarray:
        return self._rows

    def cum_rows(self) -> np.ndarray:
        return self._cum

    def advance(self, symbols: np.ndarray) -> None:
        pass


# Below this conditional cell mass, CDF differences cancel in float64; the
# conditional law is then within O(cell length) of the child-length ratio,
# which has a cancellation-free projective formula.  A chain whose rows all
# fall below half of it keeps the ratio law for good (``_DensityChain.rows``).
_DENSITY_LINEAR_CUTOVER = 1e-8


class _DensityChain:
    """Conditional chain for closed-form interval densities.

    Each row carries the running word's cylinder state, a column of one
    stacked coefficient array (rescaled in place every step, which is
    projectively harmless); ``maps`` holds the maps as ``(m, 1)`` state
    columns, ``dets`` their ``|det|``.  ``rows()`` composes every row's m
    children into one stacked buffer, and ``advance`` gathers each row's
    chosen child from it (a chain advanced without ``rows()``, as in
    :func:`conditional_next`, composes the chosen child alone).  Child masses
    are exact CDF differences while the running cell is wide enough for
    float subtraction; once the cell mass falls below ``1e-8`` the chain
    switches to the length-ratio limit ``|det phi_j| / |denom_j| /
    density-weight``, whose terms stay O(1) for arbitrarily long chains.
    """

    def __init__(self, backend: DensityBackend, n_rows: int):
        system = self.system = backend.system
        self.cdf = backend.cdf
        self.density = backend.density
        self.root = backend._root
        root = _initial_state(system)  # a line system: no reflect bits
        self.maps = np.array(_child_state(system, root, np.arange(1, system.m + 1)[:, None]))
        self.dets = _abs_det(system, self.maps)
        self.state = np.repeat(np.array(root), n_rows, axis=1)
        self._kids = np.empty((len(root), system.m, n_rows), dtype=system.dtype)
        self._composed = False  # whether _kids holds the children of state
        self._narrow = False  # whether every row keeps the length-ratio law
        # row i's child j sits at flat column (j - 1) * rows + i of _kids
        self._offsets = np.arange(n_rows) - n_rows

    def rows(self) -> np.ndarray:
        a0, b0 = self.root
        # every row's running word followed by every symbol: (m, rows) columns
        _compose_states(self.system, self.state, self.maps, out=self._kids)
        self._composed = True
        e1, e2, den = _end_images(self.system, self._kids, a0, b0)
        lo = np.minimum(e1, e2)
        # child length ratio: |det(M phi_j)| (b0-a0) / |d1 d2| with the
        # row-common factors |det M| and (b0-a0) dropped, weighted by the
        # local density value
        linear = self.dets / np.abs(den) * self.density(lo)
        if self._narrow:
            return linear.T
        diffs = np.maximum(self.cdf(np.maximum(e1, e2)) - self.cdf(lo), 0.0)
        totals = diffs.sum(axis=0, keepdims=True)
        # A child cell lies inside its parent, so a row's true children total
        # never grows; the computed totals carry rounding of about 1e-15, far
        # inside the factor-2 margin.  Once every total is below half the
        # cutover, every later step would pick the length-ratio law anyway,
        # and the CDF differences are no longer computed.
        self._narrow = bool((totals < 0.5 * _DENSITY_LINEAR_CUTOVER).all())
        return np.where(totals < _DENSITY_LINEAR_CUTOVER, linear, diffs).T

    def cum_rows(self) -> np.ndarray:
        return _normalized_cumsum(self.rows())

    def advance(self, symbols: np.ndarray) -> None:
        if self._composed:
            # a take from the flattened buffer keeps the state C-ordered (a
            # fancy index over its middle axis would not), so the next
            # composition reshapes it without a copy
            cols = np.multiply(symbols, len(self._offsets), dtype=np.intp)
            cols += self._offsets
            state = np.take(self._kids.reshape(len(self._kids), -1), cols, axis=1)
        else:
            state = _child_state(self.system, self.state, symbols)
        self._composed = False
        self.state = _rescaled_state(self.system, state)


class _SpectralChain:
    """Chain on a cylinder-mass table with a sliding context.

    Within the table depth the conditional is the exact table ratio; beyond
    it, the next-symbol law depends on the last ``depth - 1`` symbols through
    the deepest conditional table.
    """

    def __init__(self, backend: SpectralBackend, n_rows: int):
        self.m = backend.system.m
        self.depth = backend.max_depth
        self.tables, self.deep = backend._law_tables()
        self.ctx_mod = self.m ** (self.depth - 1)
        self.t = 0
        self.idx = np.zeros(n_rows, dtype=np.int64)

    def rows(self) -> np.ndarray:
        if self.t < self.depth:
            child = self.tables[self.t + 1]
            parent = self.tables[self.t]
            rows = child[self.idx[:, None] * self.m + np.arange(self.m)]
            return rows / parent[self.idx][:, None]
        return _conditional_rows(self.deep, self.idx)

    def cum_rows(self) -> np.ndarray:
        return _normalized_cumsum(self.rows())

    def advance(self, symbols: np.ndarray) -> None:
        self.idx = self.idx * self.m + (symbols - 1)
        self.t += 1
        if self.t >= self.depth:
            self.idx %= self.ctx_mod


MeasureBackend = Union[BernoulliBackend, DensityBackend, SpectralBackend]


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def cylinder_measure(backend: MeasureBackend, word: FiniteWord) -> float:
    """Mass of the cylinder of a finite word under the backend's measure.

    ``word`` may be a :class:`FiniteWord` over the system's alphabet or a bare
    symbol tuple.
    """
    return backend.cylinder_measure(word)


def conditional_next(backend: MeasureBackend, word: FiniteWord) -> np.ndarray:
    """Next-symbol conditional distribution given a prefix word.

    Reads the backend's sampling chain after it has advanced through ``word``.
    """
    chain = backend.chain(1)
    for s in _over_alphabet(word, backend.system.m):
        chain.advance(np.array([s]))
    row = chain.rows()[0]
    return row / row.sum()


def _joint_masses(backend: MeasureBackend, head: int, gap: int, tail: int) -> np.ndarray:
    """``mu([I] intersect sigma^-(head + gap)[J])`` for every word I of length
    ``head`` and J of length ``tail``, as an ``(m^head, m^tail)`` array in
    word order: the level ``head + gap + tail`` table summed over the gap words.
    """
    mm = backend.system.m
    table = backend.level_table(head + gap + tail)
    return table.reshape(mm ** head, mm ** gap, mm ** tail).sum(axis=1)


def _pair_mass(backend: MeasureBackend, I: FiniteWord, J: FiniteWord, n: int) -> float:
    """``mu([I] intersect sigma^-n[J])`` at level ``max(|I|, n + |J|)``.

    Overlapping words (``n < |I|``) meet in one merged cylinder, or in none
    where they disagree; otherwise the level table is summed over the gap
    words between I and J.  A level past a spectral table is refused.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_table_level(backend, max(len(I), n + len(J)))
    m = backend.system.m
    if n < len(I):
        k = len(I) - n
        if I.symbols[n : n + len(J)] != J.symbols[:k]:
            return 0.0
        return backend.cylinder_measure(FiniteWord(I.symbols + J.symbols[k:], m))
    table = backend.level_table(n + len(J)).reshape(m ** len(I), m ** (n - len(I)), m ** len(J))
    return float(table[word_index(I), :, word_index(J)].sum())


def verify_gibbs_property(backend: MeasureBackend, depth: int) -> dict:
    """Compare cylinder masses against normalized weight products.

    The normalized branch weight is gtilde_j(x) = g_j(x) h(phi_j x)/(R h(x)),
    with g_j the potential's branch weight (a constant p_j, or |phi_j'|^tau)
    and (R, h) the backend's eigenvalue and density: (1, 1) for a Bernoulli
    backend and h = 1 for any Bernoulli potential, the catalog pair for a
    density backend, and the solved eigenvalue with ``h_at`` for a spectral
    one.  The product along a word, evaluated at nested anchor points with
    tail 1^infinity, approximates the cylinder mass up to bounded distortion.
    Each level is one array in word order.  Returns the extreme mass/weight
    ratios over all words of length <= depth.
    """
    system = backend.system
    if system.dim != 1:
        raise ValueError("the verification walk is implemented for 1-D systems")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    tau = _potential_tau(backend.potential)
    R = 1.0 if isinstance(backend, BernoulliBackend) else backend.eigenvalue
    if tau is not None:
        h = backend.density if isinstance(backend, DensityBackend) else backend.h_at
    base = system.apply_word(FiniteWord((1,) * 40, system.m), system.base_point()).x
    x, w = np.array([base]), np.array([1.0])  # each word's tail anchor and weight
    ratios = []
    for ell in range(1, depth + 1):
        fx = _images(system, x)
        # word j.I sits at (j - 1) * x.size + index(I): the first symbol is most significant
        if tau is None:
            gtilde = np.repeat(np.array(backend.potential.probs) / R, x.size)
        else:
            gtilde = _derivatives(system, x).ravel() ** tau * h(fx) / (R * h(np.tile(x, system.m)))
        x, w = fx, np.tile(w, system.m) * gtilde
        ratios.append(backend.level_table(ell) / w)
    ratios = np.concatenate(ratios)
    return {
        "max_ratio": float(ratios.max()),
        "min_ratio": float(ratios.min()),
        "depth": depth,
        "count": int(ratios.size),
    }


def mixing_coeff_cylinders(backend: MeasureBackend, depth_k: int, n: int) -> float:
    """Uniform dependence coefficient between a depth-n block and the rest.

    For 1 <= n <= depth_k this is
        max_{|I| = n, |J| = depth_k - n} | mu([I.J]) / mu([J']) - mu([I]) |
    where J' ranges with J as the trailing block; for n = 0 it degenerates to
    1 - min_{|I| = depth_k} mu([I]) (total dependence on the full block).
    The joint masses mu([I.J]) are ``_joint_masses(backend, n, 0, depth_k - n)``.
    Product measures give exactly 0 for every n >= 1.
    """
    if depth_k < 1:
        raise ValueError("depth_k must be >= 1")
    if n < 0 or n > depth_k:
        raise ValueError("need 0 <= n <= depth_k")
    _check_table_level(backend, depth_k)
    if n == 0:
        return float(1.0 - backend.level_table(depth_k).min())
    if n == depth_k:
        return 0.0
    T = _joint_masses(backend, n, 0, depth_k - n)
    marg_head = backend.level_table(n)
    marg_tail = backend.level_table(depth_k - n)
    return float(np.max(np.abs(T / marg_tail[None, :] - marg_head[:, None])))
