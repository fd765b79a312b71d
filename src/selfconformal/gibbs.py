"""Gibbs measures for conformal systems via Ruelle transfer operators.

Three measure backends share one interface (cylinder masses by word, level
tables, next-symbol laws):

* ``BernoulliBackend``   -- exact product measures;
* ``DensityBackend``     -- measures with a closed-form distribution function
                            (catalog: ``reciprocal_log2``, the invariant
                            density 1/(log2 * (1+x)) on [0,1]);
* ``SpectralBackend``    -- piecewise-constant eigendata of the transfer
                            operator at a chosen cylinder depth.

``eigen_solve`` discretizes the operator L f = sum_j |phi_j'|^tau (f o phi_j)
on depth-k cells with exact Lebesgue cell averages of the weight, so for
tau = 1 in one dimension the cell-length vector is an exact fixed point of the
adjoint and the leading eigenvalue is 1 to machine precision.  Cells are in
lexicographic word order, so the m cells that share a parent word are one
contiguous block and branch j maps them all into cell j.parent.  The weights
are stored once, branch-major: ``G[j, l, p]`` is the weight of branch j on
cell ``p * m + l`` (a broadcast of p_j, holding no cell array, for constant
weights).  Both operators run over blocks of ``_EIGEN_BLOCK`` prefixes, where
every product and sum is one contiguous row of G against a block-long scratch
row, so the power loop holds G, h, nu, one spare cell array and scratch that
fits in L2, with no index gather and no full-size temporary.  The report
builds its cell geometry only when it is read.

Each backend's next-symbol law is written once, as the vectorized chain that
``backend.chain(n_rows)`` returns: ``rows()`` gives each row's next-symbol
weights (proportional to the conditional law), ``cum_rows()`` their cumulative
sums, which the samplers pick from, and ``advance(symbols)`` appends one
symbol per row.  The samplers in :mod:`selfconformal.dynamics` and
:func:`conditional_next` read the law through it, and the spectral cylinder
masses past the table depth read its deepest conditional rows.

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

from .ifs import (IfsSystem, _abs_det, _avg_weight, _child_state, _compose_states,
                  _denominators, _images, _initial_state, _rescaled_state,
                  _state_apply, _state_boxes, _word_state)
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
        if k not in self._tables:
            _check_level_size(self.system.m, k)
            prev = self.level_table(k - 1)
            self._tables[k] = (prev[:, None] * self.probs[None, :]).ravel()
        return self._tables[k]

    def chain(self, n_rows: int) -> _BernoulliChain:
        return _BernoulliChain(self, n_rows)


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
        self._root = (system.attractor_box.lo[0], system.attractor_box.hi[0])
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
        if k not in self._tables:
            _check_level_size(self.system.m, k)
            lo, hi = _cell_arrays(self.system, k, anchors=False)
            self._tables[k] = self.cdf(hi) - self.cdf(lo)
        return self._tables[k]

    def chain(self, n_rows: int) -> _DensityChain:
        return _DensityChain(self, n_rows)


# ---------------------------------------------------------------------------
# eigen-solver
# ---------------------------------------------------------------------------

@dataclass
class EigenReport:
    """Discretized eigendata of the transfer operator at a cylinder depth.

    The solve holds no cell geometry: ``cell_lo``, ``cell_hi`` and
    ``cell_anchor`` (the cells' ends and anchors, in ``_cell_arrays`` word
    order) are each built on first read, by their own walk of ``system``'s
    maps, and then kept.
    """

    eigenvalue: float
    depth: int
    h_values: np.ndarray
    nu_weights: np.ndarray
    mu_table: np.ndarray
    residual: float
    adjoint_residual: float
    iterations: int
    converged: bool
    system: IfsSystem = field(repr=False)

    @cached_property
    def cell_lo(self) -> np.ndarray:
        return _cell_arrays(self.system, self.depth, anchors=False)[0]

    @cached_property
    def cell_hi(self) -> np.ndarray:
        return _cell_arrays(self.system, self.depth, anchors=False)[1]

    @cached_property
    def cell_anchor(self) -> np.ndarray:
        return _cell_arrays(self.system, self.depth, ends=False)[0]


def _cell_arrays(system: IfsSystem, depth: int, ends: bool = True, anchors: bool = True) -> tuple:
    """Endpoint and anchor arrays for all depth-k cells (k >= 1) of a 1-D
    system, in lexicographic word order (first symbol most significant): the
    images of the attractor interval's ends and of the base point.

    Returns ``(lo, hi)`` if ``ends``, then ``anchor`` if ``anchors``; each
    point is walked on its own, so a part left out costs nothing.
    """

    def walk(x: float) -> np.ndarray:
        z = np.array([x])
        for _ in range(depth):
            z = _images(system, z)
        return z

    cells = ()
    if ends:
        box = system.attractor_box
        a, b = walk(box.lo[0]), walk(box.hi[0])
        cells = (np.minimum(a, b), np.maximum(a, b, out=b))
        del a, b
    if anchors:
        cells += (walk(system.base_point().x),)
    return cells


_EIGEN_TOL = 1e-13  # stop once an iteration moves h and nu by less than this
_EIGEN_MAX_ITER = 500
_EIGEN_BLOCK = 2 ** 14  # prefixes per operator pass: a block's rows stay in L2


class _BranchMajorOperator:
    """The discretized transfer operator, applied one block of prefixes at a time.

    ``G[j, l, p]`` is the averaged weight of branch j on cell ``p * m + l``
    (prefix p, last symbol l), which branch j maps into cell
    ``j * n_prefix + p``.  A block of prefixes reads one contiguous row of G
    per (j, l) pair, and every product and sum runs over such rows.  Each
    cell keeps the operation order of the plain operators: forward adds the
    branches in order, adjoint adds the columns left to right for m < 8 and
    takes numpy's pairwise row sum from 8 on.  Constant weights ``probs``
    make G a read-only broadcast of ``p_j`` that holds no cell array;
    otherwise G is m cell arrays that the caller fills.
    """

    def __init__(self, mm: int, n_prefix: int, probs: Optional[Sequence[float]] = None):
        self.mm, self.n_prefix = mm, n_prefix
        if probs is None:
            self.G = np.empty((mm, mm, n_prefix))
        else:
            self.G = np.broadcast_to(np.asarray(probs)[:, None, None], (mm, mm, n_prefix))
        block = min(_EIGEN_BLOCK, n_prefix)
        self.spans = [(p0, min(p0 + block, self.n_prefix))
                      for p0 in range(0, self.n_prefix, block)]
        self.row, self.prod = np.empty(block), np.empty(block)
        n_cells = self.mm * self.n_prefix
        self.chunks = [slice(c0, min(c0 + block, n_cells)) for c0 in range(0, n_cells, block)]

    def cells(self):
        """Slices of at most a block's length that cover the cells, each with
        a scratch row as long as it."""
        for c in self.chunks:
            yield c, self.row[: c.stop - c.start]

    def forward(self, f: np.ndarray, out: np.ndarray) -> float:
        """``out = L f``; returns ``max |out|``."""
        G, mm, n_prefix = self.G, self.mm, self.n_prefix
        peaks = np.empty((len(self.spans), mm))
        for i, (p0, p1) in enumerate(self.spans):
            acc, prod = self.row[: p1 - p0], self.prod[: p1 - p0]
            out_blk = out[p0 * mm : p1 * mm].reshape(p1 - p0, mm)
            for l in range(mm):
                np.multiply(G[0, l, p0:p1], f[p0:p1], out=acc)
                for j in range(1, mm):
                    q0 = j * n_prefix + p0
                    acc += np.multiply(G[j, l, p0:p1], f[q0 : q0 + p1 - p0], out=prod)
                out_blk[:, l] = acc
                peaks[i, l] = np.abs(acc, out=acc).max()
        return peaks.max()

    def adjoint(self, w: np.ndarray, out: np.ndarray) -> None:
        """``out = L* w``."""
        G, mm, n_prefix = self.G, self.mm, self.n_prefix
        if mm >= 8:
            rows = np.empty((len(self.row), mm))
        for p0, p1 in self.spans:
            w_blk = w[p0 * mm : p1 * mm].reshape(p1 - p0, mm)
            if mm < 8:
                # numpy's row sum adds fewer than 8 terms left to right, so
                # adding the columns in order gives its bits
                col, prod = self.row[: p1 - p0], self.prod[: p1 - p0]
                for l in range(mm):
                    col[...] = w_blk[:, l]
                    for j in range(mm):
                        o = out[j * n_prefix + p0 : j * n_prefix + p1]
                        if l == 0:
                            np.multiply(G[j, 0, p0:p1], col, out=o)
                        else:
                            o += np.multiply(G[j, l, p0:p1], col, out=prod)
            else:  # 8 or more terms numpy adds pairwise
                prod = rows[: p1 - p0]
                for j in range(mm):
                    np.multiply(G[j, :, p0:p1].T, w_blk, out=prod)
                    prod.sum(axis=1, out=out[j * n_prefix + p0 : j * n_prefix + p1])

    def rescaled_move(self, new: np.ndarray, scale: float, old: np.ndarray) -> float:
        """Divides ``new`` by ``scale`` in place; returns ``max |new - old|``."""
        peaks = []
        for c, d in self.cells():
            nc = new[c]
            nc /= scale
            peaks.append(np.abs(np.subtract(nc, old[c], out=d), out=d).max())
        return float(np.max(peaks))

    def max_residual(self, image: np.ndarray, lam: float, f: np.ndarray) -> float:
        """``max |image - lam * f|``."""
        peaks = [np.abs(np.subtract(image[c], np.multiply(f[c], lam, out=d), out=d), out=d).max()
                 for c, d in self.cells()]
        return float(np.max(peaks))


def _fill_weights(op: _BranchMajorOperator, system: IfsSystem, tau: float,
                  lo: np.ndarray, hi: np.ndarray, depth: int) -> None:
    """Fill ``op.G`` with the cell averages of |phi_j'|^tau, one block of
    prefixes at a time, and refuse a block that float64 cannot hold: a
    weight that is not a finite, normal, positive number (an overflow, or an
    underflow to a subnormal or 0) leaves the power loop nothing to converge
    on."""
    mm = system.m
    lo2, hi2 = lo.reshape(-1, mm), hi.reshape(-1, mm)
    tiny, top = np.finfo(float).tiny, np.finfo(float).max

    def refuse(detail: str) -> ValueError:
        return ValueError(
            f"the branch weights |phi_j'|^s at s = {tau} do not fit float64 on the "
            f"depth-{depth} cells ({detail}); use an s of smaller magnitude"
        )

    with np.errstate(all="ignore"):  # the block check below names what went wrong
        for p0, p1 in op.spans:
            for j, m in enumerate(system.maps):
                for l in range(mm):
                    try:
                        op.G[j, l, p0:p1] = _avg_weight(m, tau, lo2[p0:p1, l], hi2[p0:p1, l])
                    except OverflowError:
                        raise refuse("a weight overflows") from None
            block = op.G[:, :, p0:p1]
            least, most = block.min(), block.max()
            if not (least >= tiny and most <= top):
                raise refuse(f"weights from {least:.3g} to {most:.3g}")


def eigen_solve(
    system: IfsSystem,
    potential: PotentialSpec,
    depth: int,
) -> EigenReport:
    """Leading eigendata of the transfer operator on depth-k cells.

    Piecewise-constant Galerkin scheme: the weight of branch j is averaged
    exactly (Lebesgue) over each cell, the forward operator updates the
    density values h and the adjoint updates the cell weights nu.  Output is
    normalized so sum(nu) = 1 and sum(h * nu) = 1; ``mu_table`` = h * nu is
    the induced cylinder-mass table at the chosen depth.  A branch weight
    that float64 cannot hold is refused before the power loop.
    """
    if system.dim != 1:
        raise ValueError("the eigensolver operates on 1-D systems")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    tau = _potential_tau(potential)
    if tau is None:
        _check_weight_count(system, potential.probs)
    _check_level_size(system.m, depth)
    mm = system.m
    n_cells = mm ** depth
    n_prefix = n_cells // mm
    lo, hi = _cell_arrays(system, depth, anchors=False)
    if np.any(hi <= lo):
        raise ValueError("degenerate cells; system cylinders must have length")
    op = _BranchMajorOperator(mm, n_prefix, potential.probs if tau is None else None)
    if tau is not None:
        _fill_weights(op, system, tau, lo, hi, depth)
    nu = np.subtract(hi, lo, out=lo)  # the cell lengths, then the first weights
    del lo, hi
    nu /= nu.sum()

    # the power loop holds G (m cell arrays, none for constant weights), h,
    # nu, one spare cell array and block scratch.  The forward image goes
    # into the spare; once it is normalized and its move from h measured, the
    # old h is dead and the adjoint image goes into it
    h, spare = np.ones(n_cells), np.empty(n_cells)
    iterations = 0
    converged = False
    for it in range(1, _EIGEN_MAX_ITER + 1):
        iterations = it
        h_peak = op.forward(h, spare)
        d_h = op.rescaled_move(spare, h_peak, h)
        h, spare = spare, h
        op.adjoint(nu, spare)
        d_nu = op.rescaled_move(spare, spare.sum(), nu)
        nu, spare = spare, nu
        if max(d_h, d_nu) < _EIGEN_TOL:
            converged = True
            break

    # Rayleigh eigenvalue and normalization, in the spare array
    denom = float(h @ nu)
    op.forward(h, spare)
    lam = float((spare @ nu) / denom)
    nu /= nu.sum()
    h /= float(h @ nu)
    op.forward(h, spare)
    residual = op.max_residual(spare, lam, h)
    op.adjoint(nu, spare)
    adjoint_residual = op.max_residual(spare, lam, nu)
    del op
    mu_table = np.multiply(h, nu, out=spare)
    mu_table /= mu_table.sum()
    return EigenReport(
        eigenvalue=lam,
        depth=depth,
        h_values=h,
        nu_weights=nu,
        mu_table=mu_table,
        residual=residual,
        adjoint_residual=adjoint_residual,
        iterations=iterations,
        converged=converged,
        system=system,
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
    eigenvalue and density values, and reads none of its cell arrays, so it
    never makes the report build them.  A report solved for another system,
    or whose power loop did not converge, is refused.
    """

    def __init__(self, system: IfsSystem, report: EigenReport, potential: PotentialSpec):
        if report.system is not system:
            raise ValueError("report was solved for a different system")
        if not report.converged:
            raise ValueError(
                f"the depth-{report.depth} eigen solve did not converge in "
                f"{report.iterations} iterations; its mass table is not the measure's"
            )
        self.system = system
        self.potential = potential
        self.max_depth = report.depth
        self.eigenvalue = report.eigenvalue
        self.h_values = report.h_values
        self._tables = {report.depth: report.mu_table}

    def level_table(self, k: int) -> np.ndarray:
        _check_table_level(self, k)
        if k not in self._tables:
            mm = self.system.m
            deep = self._tables[self.max_depth]
            self._tables[k] = deep.reshape(mm ** k, -1).sum(axis=1)
        return self._tables[k]

    def _law_tables(self):
        """Level tables 0..depth and the deepest next-symbol conditionals."""
        if not hasattr(self, "_law"):
            tables = [self.level_table(k) for k in range(self.max_depth + 1)]
            deep = tables[-1].reshape(-1, self.system.m)
            self._law = (tables, deep / deep.sum(axis=1, keepdims=True))
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
        rows = self._law_tables()[1][ctx]
        picked = rows[np.arange(k - depth), s[depth:]] / rows.sum(axis=1)
        head = word_index(FiniteWord(word.symbols[:depth], m))
        return float(self.level_table(depth)[head] * picked.prod())

    def h_at(self, x):
        """Piecewise-constant density value at a point, or at each point of an
        array: the value of the rightmost cell that starts at or left of it.

        Cells are in word order, which is not position order on systems with
        orientation-reversing maps, so the lookup runs on the cells sorted by
        left endpoint.  The first call builds the cells' ends and keeps the
        left ones, which are the report's ``cell_lo`` bit for bit.
        """
        if not hasattr(self, "_by_position"):
            cell_lo = _cell_arrays(self.system, self.max_depth, anchors=False)[0]
            order = np.argsort(cell_lo, kind="stable")
            self._by_position = (cell_lo[order], order)
        starts, order = self._by_position
        idx = np.clip(np.searchsorted(starts, x, side="right") - 1, 0, len(order) - 1)
        values = self.h_values[order[idx]]
        return float(values) if np.ndim(x) == 0 else values


# ---------------------------------------------------------------------------
# next-symbol laws: one vectorized chain per backend (rows = concurrent words)
# ---------------------------------------------------------------------------

def _normalized_cumsum(rows: np.ndarray) -> np.ndarray:
    cum = np.cumsum(rows, axis=1)
    cum /= cum[:, -1:]
    return cum


class _BernoulliChain:
    """i.i.d. symbols: every row is the cumulative weight vector."""

    def __init__(self, backend: BernoulliBackend, n_rows: int):
        shape = (n_rows, len(backend.probs))
        self._rows = np.broadcast_to(backend.probs, shape)
        self._cum = np.broadcast_to(np.cumsum(backend.probs), shape)

    def rows(self) -> np.ndarray:
        return self._rows

    def cum_rows(self) -> np.ndarray:
        return self._cum

    def advance(self, symbols: np.ndarray) -> None:
        pass


# Below this conditional cell mass, CDF differences cancel in float64; the
# conditional law is then within O(cell length) of the child-length ratio,
# which has a cancellation-free projective formula.
_DENSITY_LINEAR_CUTOVER = 1e-8


class _DensityChain:
    """Conditional chain for closed-form interval densities.

    Each row carries the running word's cylinder state (rescaled every step,
    which is projectively harmless); ``maps`` holds the maps as ``(m, 1)``
    state columns, ``dets`` their ``|det|``.  Child masses are exact CDF
    differences while the running cell is wide enough for float subtraction;
    once the cell mass falls below ``1e-8`` the chain switches to the
    length-ratio limit ``|det phi_j| / |denom_j| / density-weight``, whose
    terms stay O(1) for arbitrarily long chains.
    """

    def __init__(self, backend: DensityBackend, n_rows: int):
        system = self.system = backend.system
        self.cdf = backend.cdf
        self.density = backend.density
        self.root = backend._root
        root = _initial_state(system)
        self.maps = _child_state(system, root, np.arange(1, system.m + 1)[:, None])
        self.dets = _abs_det(system, self.maps)
        self.state = [np.repeat(c, n_rows) for c in root]

    def rows(self) -> np.ndarray:
        a0, b0 = self.root
        # every row's running word followed by every symbol: (m, rows) columns
        kids = _compose_states(self.system, self.state, self.maps)
        e1, e2 = _state_apply(self.system, kids, a0), _state_apply(self.system, kids, b0)
        lo, hi = np.minimum(e1, e2), np.maximum(e1, e2)
        diffs = np.maximum(self.cdf(hi) - self.cdf(lo), 0.0)
        # child length ratio: |det(M phi_j)| (b0-a0) / |d1 d2| with the
        # row-common factors |det M| and (b0-a0) dropped, weighted by the
        # local density value
        linear = self.dets / np.abs(_denominators(self.system, kids, a0, b0)) * self.density(lo)
        narrow = diffs.sum(axis=0, keepdims=True) < _DENSITY_LINEAR_CUTOVER
        return np.where(narrow, linear, diffs).T

    def cum_rows(self) -> np.ndarray:
        return _normalized_cumsum(self.rows())

    def advance(self, symbols: np.ndarray) -> None:
        self.state = _rescaled_state(self.system, _child_state(self.system, self.state, symbols))


class _SpectralChain:
    """Chain on a cylinder-mass table with a sliding context.

    Within the table depth the conditional is the exact table ratio; beyond
    it, the next-symbol law depends on the last ``depth - 1`` symbols through
    the deepest conditional table.
    """

    def __init__(self, backend: SpectralBackend, n_rows: int):
        self.m = backend.system.m
        self.depth = backend.max_depth
        self.tables, self.cond = backend._law_tables()
        self.ctx_mod = self.m ** (self.depth - 1)
        self.t = 0
        self.idx = np.zeros(n_rows, dtype=np.int64)

    def rows(self) -> np.ndarray:
        if self.t < self.depth:
            child = self.tables[self.t + 1]
            parent = self.tables[self.t]
            rows = child[self.idx[:, None] * self.m + np.arange(self.m)]
            return rows / parent[self.idx][:, None]
        return self.cond[self.idx]

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
    Each level is one array in ``_cell_arrays`` word order.  Returns the
    extreme mass/weight ratios over all words of length <= depth.
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
        j = np.repeat(np.arange(1, system.m + 1), x.size)  # the symbol each word starts with
        if tau is None:
            gtilde = (np.array(backend.potential.probs) / R)[j - 1]
        else:
            x, maps = np.tile(x, system.m), _child_state(system, _initial_state(system), j)
            g = _abs_det(system, maps) / _denominators(system, maps, x, x)
            gtilde = g ** tau * h(fx) / (R * h(x))
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
