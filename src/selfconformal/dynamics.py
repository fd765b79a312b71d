"""The induced map, exact symbolic orbits, measure sampling, and correlations.

Orbits are symbolic-first: the orbit of ``pi(omega)`` under the induced
expanding map is computed by shifting the symbol stream and projecting each
shifted stream through a fixed-depth composition window.  Expanding maps
amplify floating-point error exponentially, so the induced map itself
(:func:`t_apply`) is only used for spot checks; the window projection applies
contractions, whose rounding errors shrink instead.

Sampling is counter-based: the stream for sample ``i`` is generated by a
Philox generator keyed on ``(master_seed, i)``, and every symbol consumes
exactly one uniform.  The sequential per-stream sampler and the vectorized
batch sampler therefore produce bit-identical symbols, which makes
experiments reproducible independently of worker scheduling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .gibbs import (
    BernoulliBackend,
    DensityBackend,
    MeasureBackend,
    SpectralBackend,
    word_index,
)
from .ifs import IfsSystem, _moebius_apply, _point_value, _to_coords, _value_point
from .symbolic import FiniteWord, PointRd, RandomTail, SymbolStream, as_point

__all__ = [
    "MuSampler",
    "sample_mu",
    "sample_symbol_block",
    "t_apply",
    "orbit_symbolic",
    "orbit_array",
    "project_windows",
    "correlation",
]


# ---------------------------------------------------------------------------
# the induced expanding map
# ---------------------------------------------------------------------------

def _invert_map(system: IfsSystem, j: int, x: PointRd) -> PointRd:
    """phi_j^{-1}(x) for branch j."""
    m = system.maps[j - 1]
    p, q, r, s = m.matrix
    # adjugate matrix; projective scale is irrelevant
    z = _moebius_apply((s, -q, -r, p), _point_value(x))
    return _value_point(z.conjugate() if m.reflect else z)


def _box_distance(box, coords: np.ndarray) -> float:
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    gap = np.maximum(np.maximum(lo - coords, coords - hi), 0.0)
    return float(np.sqrt((gap**2).sum()))


def t_apply(system: IfsSystem, x, depth_hint: int = 1, tol: float = 1e-9) -> PointRd:
    """One step of the induced expanding map: phi_j^{-1} on branch j's piece.

    The branch is the lowest index whose closed depth-1 cylinder hull contains
    ``x`` (within ``tol``); overlap points on piece boundaries carry no mass,
    so the tie-break is statistically irrelevant.  ``depth_hint > 1`` sharpens
    membership by testing the depth-``depth_hint`` cylinder hulls inside each
    branch, which rejects points that only touch a branch's bounding hull.
    """
    if depth_hint < 1 or depth_hint > 8:
        raise ValueError("depth_hint must be in 1..8")
    x = as_point(x, system.dim)
    coords = np.asarray(x.coords)
    for j in range(1, system.m + 1):
        if depth_hint == 1:
            hit = _box_distance(system.word_box(FiniteWord((j,), system.m)), coords) <= tol
        else:
            hit = any(
                _box_distance(
                    system.word_box(FiniteWord((j,) + rest, system.m)), coords
                )
                <= tol
                for rest in itertools.product(
                    range(1, system.m + 1), repeat=depth_hint - 1
                )
            )
        if hit:
            return _invert_map(system, j, x)
    raise ValueError(f"point {x.coords} is not within {tol} of any depth-1 piece")


# ---------------------------------------------------------------------------
# symbolic orbits: shift then project through a composition window
# ---------------------------------------------------------------------------

_WINDOW_CHUNK = 1 << 16  # windows projected per pass; bounds the temporaries


def project_windows(symbols: np.ndarray, system: IfsSystem, depth: int) -> np.ndarray:
    """Project every length-``depth`` window of a symbol array to coordinates.

    ``symbols`` is one stream, or a ``(rows, cols)`` block of independent
    sample paths whose windows slide within each row.  Returns the points
    ``phi_{s_n} ... phi_{s_{n+depth-1}}(base)`` for ``n = 0..cols-depth``,
    shape ``(cols - depth + 1,)`` or ``(rows, cols - depth + 1)``, with a
    trailing coordinate axis for plane systems.  Maps are applied
    innermost-first so the contractions damp rounding instead of amplifying
    it; each step gathers the per-symbol coefficients from the system's
    table, in the system's field (complex in the plane).
    """
    syms = np.asarray(symbols)
    if depth < 1 or syms.ndim not in (1, 2) or syms.shape[-1] < depth:
        raise ValueError("need at least `depth` symbols")
    count = syms.shape[-1] - depth + 1
    rows = syms.reshape(-1, syms.shape[-1])
    # a leading dummy entry makes the 1-based symbols direct table indices
    coeffs = [np.concatenate([c[:1], c]) for c in system._coeffs]
    flips = system._flips
    if flips is not None:
        flips = np.concatenate([flips[:1], flips])
    base = _point_value(system.base_point())
    out = np.empty((rows.shape[0], count), dtype=system.dtype)
    width = max(1, _WINDOW_CHUNK // rows.shape[0])
    for c0 in range(0, count, width):
        c1 = min(c0 + width, count)
        X = out[:, c0:c1]
        X[...] = base
        for j in range(depth - 1, -1, -1):
            s = rows[:, c0 + j : c1 + j]
            if flips is not None:
                X[...] = np.where(flips[s], X.conjugate(), X)
            if len(coeffs) == 2:
                X *= coeffs[0][s]
                X += coeffs[1][s]
            else:
                num = coeffs[0][s] * X
                num += coeffs[1][s]
                den = coeffs[2][s] * X
                den += coeffs[3][s]
                np.divide(num, den, out=X)
    return _to_coords(out.reshape(syms.shape[:-1] + (count,)))


def orbit_array(stream: SymbolStream, N: int, system: IfsSystem, tol: float) -> np.ndarray:
    """Orbit points pi(sigma^n omega), n = 0..N, as a float array.

    Each point is the image of the base point under the next
    ``depth_for_diameter(tol)`` symbols of the shifted stream, so every orbit
    point is within ``tol`` of the true projection and no error accumulates
    along the orbit.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    depth = system.depth_for_diameter(tol)
    syms = np.asarray(stream.read(N + depth), dtype=np.int64)
    return project_windows(syms, system, depth)


def orbit_symbolic(
    stream: SymbolStream, N: int, system: IfsSystem, tol: float
) -> List[PointRd]:
    """Orbit (pi(sigma^n omega))_{n=0..N} as points; see :func:`orbit_array`."""
    arr = orbit_array(stream, N, system, tol)
    return [PointRd(tuple(c)) for c in arr.reshape(arr.shape[0], -1)]


# ---------------------------------------------------------------------------
# measure-distributed sampling
# ---------------------------------------------------------------------------

def _stream_generator(master_seed: int, sample_id: int) -> np.random.Generator:
    key = np.array([master_seed, sample_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pick_symbols(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms to 1-based symbols through cumulative-probability rows."""
    idx = (u[:, None] >= cum_rows).sum(axis=1)
    return np.minimum(idx, cum_rows.shape[1] - 1) + 1


class _BernoulliChain:
    """Vectorized i.i.d. symbol chain (rows = concurrent sample streams)."""

    def __init__(self, backend: BernoulliBackend, n_rows: int):
        self.cum = np.cumsum(backend.probs)[None, :]  # one row, broadcast to all

    def step(self, u: np.ndarray) -> np.ndarray:
        return _pick_symbols(self.cum, u)


# Below this conditional cell mass, CDF differences cancel in float64; the
# conditional law is then within O(cell length) of the child-length ratio,
# which has a cancellation-free projective formula.
_DENSITY_LINEAR_CUTOVER = 1e-8


class _DensityChain:
    """Vectorized conditional chain for closed-form interval densities.

    Each row carries the running word's composition matrix (rescaled every
    step, which is projectively harmless).  Child masses are exact CDF
    differences while the running cell is wide enough for float subtraction;
    once the cell mass falls below ``1e-8`` the chain switches to the
    length-ratio limit ``|det phi_j| / |denom_j| / density-weight``, whose
    terms stay O(1) for arbitrarily long chains.
    """

    def __init__(self, backend: DensityBackend, n_rows: int):
        from .ifs import _moebius_det

        self.cdf = backend.cdf
        box = backend.system.attractor_box
        self.root = (box.lo[0], box.hi[0])
        self.child_mats = np.array([m.matrix for m in backend.system.maps])
        self.child_dets = np.array(
            [abs(_moebius_det(m.matrix)) for m in backend.system.maps]
        )
        self.mats = np.tile(np.array([1.0, 0.0, 0.0, 1.0]), (n_rows, 1))

    def step(self, u: np.ndarray) -> np.ndarray:
        P, Q, R, S = self.mats.T
        n_rows = self.mats.shape[0]
        a0, b0 = self.root
        p, q, r, s = (c[:, None] for c in self.child_mats.T)
        cp = P[None, :] * p + Q[None, :] * r
        cq = P[None, :] * q + Q[None, :] * s
        cr = R[None, :] * p + S[None, :] * r
        cs = R[None, :] * q + S[None, :] * s
        d1 = cr * a0 + cs
        d2 = cr * b0 + cs
        e1 = (cp * a0 + cq) / d1
        e2 = (cp * b0 + cq) / d2
        lo = np.minimum(e1, e2)
        hi = np.maximum(e1, e2)
        diffs = np.maximum(self.cdf(hi) - self.cdf(lo), 0.0)
        # child length ratio: |det(M phi_j)| (b0-a0) / |d1 d2| with the
        # row-common factors |det M| and (b0-a0) dropped, weighted by the
        # local density value
        linear = self.child_dets[:, None] / np.abs(d1 * d2) * self._density_at(lo)
        rows = np.where(
            diffs.sum(axis=0, keepdims=True) < _DENSITY_LINEAR_CUTOVER, linear, diffs
        )
        cum = np.cumsum(rows, axis=0)
        cum /= cum[-1:, :]
        symbols = _pick_symbols(cum.T, u)
        sel = symbols - 1
        cols = np.arange(n_rows)
        self.mats = np.stack(
            [cp[sel, cols], cq[sel, cols], cr[sel, cols], cs[sel, cols]], axis=1
        )
        self.mats /= np.abs(self.mats).max(axis=1, keepdims=True)
        return symbols

    def _density_at(self, x: np.ndarray) -> np.ndarray:
        # numerical derivative of the CDF at the cell; the cells in the linear
        # regime are far smaller than the 1e-7 stencil, so this is the local
        # density value, accurate to ~1e-7 relative
        h = 1e-7
        lo = np.clip(x - h, self.root[0], self.root[1])
        hi = np.clip(x + h, self.root[0], self.root[1])
        return (self.cdf(hi) - self.cdf(lo)) / (hi - lo)


class _SpectralChain:
    """Vectorized chain on a cylinder-mass table with a sliding context.

    Within the table depth the conditional is the exact table ratio; beyond
    it, the next-symbol law depends on the last ``depth - 1`` symbols through
    the deepest conditional table.
    """

    def __init__(self, backend: SpectralBackend, n_rows: int):
        self.m = backend.system.m
        self.depth = backend.max_depth
        self.tables = [backend.level_table(k) for k in range(self.depth + 1)]
        deep = self.tables[self.depth].reshape(-1, self.m)
        self.cond = deep / deep.sum(axis=1, keepdims=True)
        self.ctx_mod = self.m ** max(self.depth - 1, 1)
        self.t = 0
        self.idx = np.zeros(n_rows, dtype=np.int64)

    def step(self, u: np.ndarray) -> np.ndarray:
        if self.t < self.depth:
            child = self.tables[self.t + 1]
            parent = self.tables[self.t]
            rows = child[self.idx[:, None] * self.m + np.arange(self.m)]
            rows = rows / parent[self.idx][:, None]
        else:
            rows = self.cond[self.idx]
        cum = np.cumsum(rows, axis=1)
        cum /= cum[:, -1:]
        symbols = _pick_symbols(cum, u)
        if self.t < self.depth:
            self.idx = self.idx * self.m + (symbols - 1)
            self.t += 1
            if self.t == self.depth:
                self.idx = self.idx % self.ctx_mod
        else:
            if self.depth > 1:
                self.idx = (self.idx % (self.ctx_mod // self.m)) * self.m + (
                    symbols - 1
                )
        return symbols


def _make_chain(backend: MeasureBackend, n_rows: int):
    if isinstance(backend, BernoulliBackend):
        return _BernoulliChain(backend, n_rows)
    if isinstance(backend, DensityBackend):
        return _DensityChain(backend, n_rows)
    if isinstance(backend, SpectralBackend):
        return _SpectralChain(backend, n_rows)
    raise TypeError(f"no sampling chain for backend {type(backend).__name__}")


@dataclass
class MuSampler:
    """Reproducible measure-distributed symbol streams.

    The stream for sample ``i`` is fully determined by ``(master_seed, i)``;
    the counter assigns consecutive ids to successive :meth:`stream` calls.
    """

    backend: MeasureBackend
    master_seed: int
    counter: int = 0

    def stream(self, sample_id: Optional[int] = None) -> SymbolStream:
        if sample_id is None:
            sample_id = self.counter
            self.counter += 1
        gen = _stream_generator(self.master_seed, sample_id)
        chain = _make_chain(self.backend, 1)
        state = {"drawn": 0}

        def draw(need: int, so_far: Sequence[int]) -> Sequence[int]:
            if len(so_far) != state["drawn"]:
                raise RuntimeError("sampling chain out of sync with its stream")
            u = gen.random(need)
            out = np.empty(need, dtype=np.int64)
            for i in range(need):
                out[i] = chain.step(u[i : i + 1])[0]
            state["drawn"] += need
            return out.tolist()

        return SymbolStream((), RandomTail(draw), self.backend.system.m)


def sample_mu(sampler: MuSampler, prefix_depth: int = 0) -> SymbolStream:
    """A fresh measure-distributed stream with ``prefix_depth`` symbols drawn."""
    stream = sampler.stream()
    if prefix_depth > 0:
        stream.read(prefix_depth)
    return stream


def sample_symbol_block(
    backend: MeasureBackend,
    master_seed: int,
    sample_ids: Sequence[int],
    length: int,
    chunk: int = 65536,
) -> np.ndarray:
    """Symbols (1-based) for many sample streams at once, shape (ids, length).

    Row ``i`` is bit-identical to the stream of ``MuSampler`` with the same
    ``(master_seed, sample_ids[i])``: both consume one uniform per symbol from
    the same keyed generator and share the chain arithmetic.
    """
    sample_ids = list(sample_ids)
    n = len(sample_ids)
    out = np.empty((n, length), dtype=np.int8)
    if isinstance(backend, BernoulliBackend):
        cum = np.cumsum(backend.probs)[None, :]
        for i, sid in enumerate(sample_ids):
            out[i] = _pick_symbols(cum, _stream_generator(master_seed, sid).random(length))
        return out
    gens = [_stream_generator(master_seed, sid) for sid in sample_ids]
    chain = _make_chain(backend, n)
    done = 0
    while done < length:
        take = min(chunk, length - done)
        U = np.stack([g.random(take) for g in gens])
        for t in range(take):
            out[:, done + t] = chain.step(U[:, t])
        done += take
    return out


# ---------------------------------------------------------------------------
# correlation of cylinder indicators
# ---------------------------------------------------------------------------

IndicatorSpec = Union[FiniteWord, Sequence[FiniteWord]]

_SPECTRAL_GAP_CAP = 65536


def _as_union(spec: IndicatorSpec, m: int) -> List[FiniteWord]:
    words = [spec] if isinstance(spec, FiniteWord) else list(spec)
    if not words:
        raise ValueError("indicator needs at least one cylinder")
    for w in words:
        if not isinstance(w, FiniteWord) or w.m != m:
            raise ValueError("indicator members must be words over the system alphabet")
    for a, b in itertools.combinations(words, 2):
        k = min(len(a), len(b))
        if a.symbols[:k] == b.symbols[:k]:
            raise ValueError("indicator cylinders must be pairwise disjoint")
    return words


def _pair_intersection(backend: MeasureBackend, I: FiniteWord, J: FiniteWord, n: int) -> float:
    """mu([I] intersect sigma^{-n}[J]) by the word-overlap identity."""
    m = backend.system.m
    if n < len(I):
        k = len(I) - n
        ov = min(k, len(J))
        if I.symbols[n : n + ov] != J.symbols[:ov]:
            return 0.0
        merged = I.symbols + J.symbols[k:] if len(J) > k else I.symbols
        return backend.cylinder_measure(FiniteWord(merged, m))
    free = n - len(I)
    L = n + len(J)
    if isinstance(backend, SpectralBackend) and L > backend.max_depth:
        if m**free > _SPECTRAL_GAP_CAP:
            raise ValueError("correlation horizon too deep for the spectral table")
        total = 0.0
        for gap in itertools.product(range(1, m + 1), repeat=free):
            total += backend.cylinder_measure(
                FiniteWord(I.symbols + gap + J.symbols, m)
            )
        return total
    table = backend.level_table(L)
    base = word_index(I) * m ** (L - len(I)) + word_index(J)
    idxs = base + np.arange(m**free, dtype=np.int64) * m ** len(J)
    return float(table[idxs].sum())


def correlation(
    system: IfsSystem,
    backend: MeasureBackend,
    f1: IndicatorSpec,
    f2: IndicatorSpec,
    n: int,
) -> float:
    """C(n) = int f1 . f2 o T^n dmu - int f1 dmu . int f2 dmu.

    ``f1`` and ``f2`` are indicators of finite disjoint unions of cylinders,
    so both integrals and the joint term are exact cylinder sums.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if backend.system is not system:
        raise ValueError("backend belongs to a different system")
    words1 = _as_union(f1, system.m)
    words2 = _as_union(f2, system.m)
    mu1 = sum(backend.cylinder_measure(w) for w in words1)
    mu2 = sum(backend.cylinder_measure(w) for w in words2)
    joint = 0.0
    for I in words1:
        for J in words2:
            joint += _pair_intersection(backend, I, J, n)
    return joint - mu1 * mu2
