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
contiguous block and branch j maps them all into cell j.parent: the operator
is a broadcast over (parent, last symbol) blocks, with no index gather.

Each backend's next-symbol law is written once, as the vectorized chain that
``backend.chain(n_rows)`` returns: ``rows()`` gives each row's next-symbol
weights (proportional to the conditional law), ``cum_rows()`` their cumulative
sums, which the samplers pick from, and ``advance(symbols)`` appends one
symbol per row.  The samplers in :mod:`selfconformal.dynamics`,
:func:`conditional_next` and the spectral cylinder masses past the table depth
all read the law through it.

``mixing_coeff_cylinders`` measures the uniform dependence coefficient between
a leading block and the remaining symbols at a fixed table depth; product
measures give exactly zero for every positive separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .ifs import IfsSystem, _MOEBIUS_ID, _moebius_apply, _moebius_compose, _moebius_det
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
        if any(p <= 0 for p in self.probs):
            raise ValueError("weights must be positive")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class ConformalPowerPotential:
    """Weight |phi_j'(x)|^tau."""

    tau: float


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
        "sup_density": 1.0 / _LOG2,  # sup of the density on [0, 1], at x = 0
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


def _power_weights(system: IfsSystem, tau: float) -> list:
    """The branch weights x |-> |phi_j'(x)|^tau of a 1-D system."""
    gs = []
    for m in system.maps:
        p, q, r, s = m.matrix
        det = abs(p * s - q * r)
        gs.append(lambda x, det=det, r=r, s=s: (det / (r * x + s) ** 2) ** tau)
    return gs


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

class BernoulliBackend:
    """Product measure: mass of a word is the product of its symbol weights."""

    max_depth: Optional[int] = None

    def __init__(self, system: IfsSystem, probs: Sequence[float]):
        if len(probs) != system.m:
            raise ValueError("need one weight per map")
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

    def gibbs_data(self):
        probs = self.probs

        def h(x):
            return 1.0

        gs = [(lambda x, p=p: p) for p in probs]
        return 1.0, h, gs


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
        self.cdf = cat["cdf"]
        self.density = cat["density"]
        self.eigenvalue = cat["eigenvalue"]
        self.tau = cat["tau"]
        self.sup_density = cat["sup_density"]
        self._root = (system.attractor_box.lo[0], system.attractor_box.hi[0])
        self._tables = {}

    def word_interval(self, word: FiniteWord) -> Tuple[float, float]:
        mat, _ = self.system.word_map(word)
        a = _moebius_apply(mat, self._root[0])
        b = _moebius_apply(mat, self._root[1])
        return (a, b) if a <= b else (b, a)

    def cylinder_measure(self, word: FiniteWord) -> float:
        a, b = self.word_interval(_over_alphabet(word, self.system.m))
        return float(self.cdf(b) - self.cdf(a))

    def level_table(self, k: int) -> np.ndarray:
        if k not in self._tables:
            _check_level_size(self.system.m, k)
            lo, hi, _ = _cell_arrays(self.system, k)
            self._tables[k] = self.cdf(hi) - self.cdf(lo)
        return self._tables[k]

    def chain(self, n_rows: int) -> _DensityChain:
        return _DensityChain(self, n_rows)

    def gibbs_data(self):
        dens = self.density

        def h(x):
            return float(dens(x))

        return self.eigenvalue, h, _power_weights(self.system, self.tau)


# ---------------------------------------------------------------------------
# eigen-solver
# ---------------------------------------------------------------------------

@dataclass
class EigenReport:
    """Discretized eigendata of the transfer operator at a cylinder depth."""

    eigenvalue: float
    depth: int
    h_values: np.ndarray
    nu_weights: np.ndarray
    mu_table: np.ndarray
    residual: float
    adjoint_residual: float
    iterations: int
    converged: bool
    cell_lo: np.ndarray
    cell_hi: np.ndarray
    cell_anchor: np.ndarray


def _cell_arrays(system: IfsSystem, depth: int):
    """Endpoint and anchor arrays for all depth-k cells of a 1-D system, in
    lexicographic word order (first symbol most significant)."""
    lo = np.array([system.attractor_box.lo[0]])
    hi = np.array([system.attractor_box.hi[0]])
    anchor = np.array([system.base_point().x])
    for _ in range(depth):
        blocks = []
        for m in system.maps:
            mat = m.matrix
            a = _moebius_apply(mat, lo)
            b = _moebius_apply(mat, hi)
            anc = _moebius_apply(mat, anchor)
            blocks.append((np.minimum(a, b), np.maximum(a, b), anc))
        lo = np.concatenate([b[0] for b in blocks])
        hi = np.concatenate([b[1] for b in blocks])
        anchor = np.concatenate([b[2] for b in blocks])
    return lo, hi, anchor


def _avg_weight(m, tau: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Lebesgue cell average of |phi'|^tau over [a, b] per cell."""
    p, q, r, s = m.matrix
    det = abs(p * s - q * r)
    if r == 0.0:
        return np.full(a.shape, (det / s ** 2) ** tau)
    ua, ub = r * a + s, r * b + s
    if np.any(ua * ub <= 0):
        raise ValueError("Moebius pole inside a cell")
    sign = np.sign(ua)
    ua, ub = np.abs(ua), np.abs(ub)
    if abs(tau - 0.5) < 1e-15:
        anti = np.log(ub) - np.log(ua)
        integral = det ** tau * sign * anti / r
    else:
        e = 1.0 - 2.0 * tau
        anti = (ub ** e - ua ** e) / e
        integral = det ** tau * sign * anti / r
    return integral / (b - a)


def eigen_solve(
    system: IfsSystem,
    potential: PotentialSpec,
    depth: int,
    tol: float = 1e-13,
    max_iter: int = 500,
) -> EigenReport:
    """Leading eigendata of the transfer operator on depth-k cells.

    Piecewise-constant Galerkin scheme: the weight of branch j is averaged
    exactly (Lebesgue) over each cell, the forward operator updates the
    density values h and the adjoint updates the cell weights nu.  Output is
    normalized so sum(nu) = 1 and sum(h * nu) = 1; ``mu_table`` = h * nu is
    the induced cylinder-mass table at the chosen depth.
    """
    if system.dim != 1:
        raise ValueError("the eigensolver operates on 1-D systems")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _check_level_size(system.m, depth)
    mm = system.m
    n_cells = mm ** depth
    lo, hi, anchor = _cell_arrays(system, depth)
    lengths = hi - lo
    if np.any(lengths <= 0):
        raise ValueError("degenerate cells; system cylinders must have length")

    if isinstance(potential, BernoulliPotential):
        g_bar = np.repeat(np.asarray(potential.probs)[:, None], n_cells, axis=1)
    elif isinstance(potential, ConformalPowerPotential):
        g_bar = np.stack([_avg_weight(m, potential.tau, lo, hi) for m in system.maps])
    elif isinstance(potential, ClosedFormDensityPotential):
        tau = DENSITY_CATALOG[potential.name]["tau"]
        g_bar = np.stack([_avg_weight(m, tau, lo, hi) for m in system.maps])
    else:
        raise TypeError(f"unsupported potential {potential!r}")

    # cell p * m + l (prefix p, last symbol l) maps under branch j into the
    # cell j * n_prefix + p, so both operators work on (n_prefix, m) blocks
    n_prefix = n_cells // mm
    g3 = g_bar.reshape(mm, n_prefix, mm)
    scratch = np.empty(n_cells)  # the operators' products, then the loop's differences
    prod = scratch.reshape(n_prefix, mm)

    def forward(f):
        f3 = f.reshape(mm, n_prefix, 1)
        out = np.zeros((n_prefix, mm))
        for j in range(mm):
            out += np.multiply(g3[j], f3[j], out=prod)
        return out.reshape(n_cells)

    def adjoint(w):
        w2 = w.reshape(n_prefix, mm)
        out = np.empty((mm, n_prefix))
        for j in range(mm):
            np.multiply(g3[j], w2, out=prod)
            if mm < 8:
                # numpy's row sum adds fewer than 8 terms left to right, so
                # these column additions give its bits (pinned by a test in
                # test_gibbs) at about half its cost for short rows
                np.add(prod[:, 0], prod[:, 1], out=out[j])
                for c in range(2, mm):
                    out[j] += prod[:, c]
            else:  # 8 or more terms numpy adds pairwise
                prod.sum(axis=1, out=out[j])
        return out.reshape(n_cells)

    h = np.ones(n_cells)
    nu = lengths / lengths.sum()
    lam = 1.0
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        iterations = it
        h_new = forward(h)
        h_new /= np.abs(h_new, out=scratch).max()
        nu_new = adjoint(nu)
        lam_nu = nu_new.sum()
        nu_new /= lam_nu
        delta = max(
            np.abs(np.subtract(h_new, h, out=scratch), out=scratch).max(),
            np.abs(np.subtract(nu_new, nu, out=scratch), out=scratch).max(),
        )
        h, nu = h_new, nu_new
        lam = lam_nu
        if delta < tol:
            converged = True
            break

    # Rayleigh eigenvalue and normalization
    denom = float(h @ nu)
    lam = float((forward(h) @ nu) / denom)
    nu = nu / nu.sum()
    h = h / float(h @ nu)
    residual = float(np.max(np.abs(forward(h) - lam * h)))
    adj = adjoint(nu)
    adjoint_residual = float(np.max(np.abs(adj - lam * nu)))
    mu_table = h * nu
    mu_table = mu_table / mu_table.sum()
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
        cell_lo=lo,
        cell_hi=hi,
        cell_anchor=anchor,
    )


class SpectralBackend:
    """Measure backend backed by an ``EigenReport`` cylinder-mass table.

    Words at most ``depth`` long are read off the table exactly (by
    marginalization).  Longer words are extended multiplicatively with the
    deepest tabled next-symbol conditionals (a sliding context of depth-1
    symbols); that extension is an approximation intended for samplers and
    orbit machinery, not for exact mixing computations, which are restricted
    to the table depth.
    """

    def __init__(self, system: IfsSystem, report: EigenReport, potential: PotentialSpec = None):
        self.system = system
        self.report = report
        self.potential = potential
        self.max_depth = report.depth
        self._tables = {report.depth: report.mu_table}

    def level_table(self, k: int) -> np.ndarray:
        if k > self.max_depth:
            raise ValueError(f"level {k} beyond table depth {self.max_depth}")
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
        word = _over_alphabet(word, self.system.m)
        if len(word) <= self.max_depth:
            return float(self.level_table(len(word))[word_index(word)])
        return float(self.cylinder_masses(np.array([word.symbols]))[0])

    def cylinder_masses(self, words: np.ndarray) -> np.ndarray:
        """Masses of equal-length words longer than the table.

        ``words`` holds one word per row, as symbols ``1..m``.
        """
        n, k = words.shape
        depth, tail = self.max_depth, k - self.max_depth
        # past the table depth the law reads only the last depth - 1 symbols,
        # so a chain row fed the depth symbols before a tail symbol holds that
        # symbol's conditional: one chain serves every tail symbol at once
        chain = self.chain(n * tail)
        for j in range(depth):
            chain.advance(words[:, j : j + tail].ravel())
        rows = chain.rows()
        picked = rows[np.arange(n * tail), words[:, depth:].ravel() - 1] / rows.sum(axis=1)
        picked = picked.reshape(n, tail)
        heads = (words[:, :depth] - 1) @ self.system.m ** np.arange(depth - 1, -1, -1)
        return self.level_table(depth)[heads] * picked.prod(axis=1)

    def h_at(self, x: float) -> float:
        """Piecewise-constant density value at a point (cell lookup)."""
        idx = np.searchsorted(self.report.cell_lo, x, side="right") - 1
        idx = int(np.clip(idx, 0, len(self.report.h_values) - 1))
        return float(self.report.h_values[idx])

    def gibbs_data(self):
        pot = self.potential
        if isinstance(pot, BernoulliPotential):
            probs = np.asarray(pot.probs)
            return self.report.eigenvalue, (lambda x: 1.0), [
                (lambda x, p=p: p) for p in probs
            ]
        tau = pot.tau if isinstance(pot, ConformalPowerPotential) else DENSITY_CATALOG[pot.name]["tau"]
        return self.report.eigenvalue, self.h_at, _power_weights(self.system, tau)


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

    Each row carries the running word's composition matrix (rescaled every
    step, which is projectively harmless).  Child masses are exact CDF
    differences while the running cell is wide enough for float subtraction;
    once the cell mass falls below ``1e-8`` the chain switches to the
    length-ratio limit ``|det phi_j| / |denom_j| / density-weight``, whose
    terms stay O(1) for arbitrarily long chains.
    """

    def __init__(self, backend: DensityBackend, n_rows: int):
        maps = backend.system.maps
        self.cdf = backend.cdf
        self.density = backend.density
        self.root = backend._root
        self.child_mats = np.array([m.matrix for m in maps]).T  # (4, m)
        self.child_dets = np.array([abs(_moebius_det(m.matrix)) for m in maps])
        self.mats = np.repeat(np.array(_MOEBIUS_ID)[:, None], n_rows, axis=1)

    def rows(self) -> np.ndarray:
        a0, b0 = self.root
        # every row's running map composed with every branch: (m, rows) arrays
        kids = _moebius_compose(self.mats[:, None, :], self.child_mats[:, :, None])
        cr, cs = kids[2], kids[3]
        e1 = _moebius_apply(kids, a0)
        e2 = _moebius_apply(kids, b0)
        lo = np.minimum(e1, e2)
        hi = np.maximum(e1, e2)
        diffs = np.maximum(self.cdf(hi) - self.cdf(lo), 0.0)
        # child length ratio: |det(M phi_j)| (b0-a0) / |d1 d2| with the
        # row-common factors |det M| and (b0-a0) dropped, weighted by the
        # local density value
        linear = (
            self.child_dets[:, None] / np.abs((cr * a0 + cs) * (cr * b0 + cs))
            * self.density(lo)
        )
        rows = np.where(
            diffs.sum(axis=0, keepdims=True) < _DENSITY_LINEAR_CUTOVER, linear, diffs
        )
        return rows.T

    def cum_rows(self) -> np.ndarray:
        return _normalized_cumsum(self.rows())

    def advance(self, symbols: np.ndarray) -> None:
        self.mats = np.array(_moebius_compose(self.mats, self.child_mats[:, symbols - 1]))
        self.mats /= np.abs(self.mats).max(axis=0)


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


def verify_gibbs_property(backend: MeasureBackend, depth: int, tail_symbol: int = 1) -> dict:
    """Compare cylinder masses against normalized weight products.

    The normalized branch weight is gtilde_j(x) = g_j(x) h(phi_j x)/(R h(x));
    the product along a word, evaluated at nested anchor points with tail
    ``tail_symbol``^infinity, approximates the cylinder mass up to bounded
    distortion.  Returns the extreme mass/weight ratios over all words of
    length <= depth.
    """
    system = backend.system
    if system.dim != 1:
        raise ValueError("the verification walk is implemented for 1-D systems")
    R, h, gs = backend.gibbs_data()
    base = system.apply_word(FiniteWord((tail_symbol,) * 40, system.m), system.base_point()).x

    def gtilde(j, x):
        fx = _moebius_apply(system.maps[j - 1].matrix, x)
        return gs[j - 1](x) * h(fx) / (R * h(x))

    ratios = []
    level = [(0, base, 1.0)]  # (word index, anchor point of the word's tail, weight)
    for ell in range(1, depth + 1):
        table = backend.level_table(ell)
        block = system.m ** (ell - 1)
        nxt = []
        for idx, pt, w in level:
            for j in range(1, system.m + 1):
                w2 = w * gtilde(j, pt)
                pt2 = _moebius_apply(system.maps[j - 1].matrix, pt)
                idx2 = (j - 1) * block + idx
                ratios.append(float(table[idx2]) / w2)
                nxt.append((idx2, pt2, w2))
        level = nxt
    ratios = np.asarray(ratios)
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
    Product measures give exactly 0 for every n >= 1.
    """
    if depth_k < 1:
        raise ValueError("depth_k must be >= 1")
    if n < 0 or n > depth_k:
        raise ValueError("need 0 <= n <= depth_k")
    if getattr(backend, "max_depth", None) is not None and depth_k > backend.max_depth:
        raise ValueError("depth_k beyond the backend's exact table depth")
    mm = backend.system.m
    _check_level_size(mm, depth_k)
    table = backend.level_table(depth_k)
    if n == 0:
        return float(1.0 - table.min())
    if n == depth_k:
        return 0.0
    rows = mm ** n
    T = table.reshape(rows, -1)
    marg_head = backend.level_table(n)
    marg_tail = backend.level_table(depth_k - n)
    return float(np.max(np.abs(T / marg_tail[None, :] - marg_head[:, None])))
