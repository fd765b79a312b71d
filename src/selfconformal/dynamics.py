"""The induced map, exact symbolic orbits, measure sampling, and correlations.

Orbits are symbolic-first: the orbit point ``pi(sigma^n omega)`` is the
projection of the length-``k`` window that starts at symbol ``n`` of a
sampled symbol row (:func:`project_windows`), so no error accumulates along
the orbit.  Expanding maps amplify floating-point error exponentially, so the
induced map itself (:func:`t_apply`) is only used for spot checks; the window
projection applies contractions, whose rounding errors shrink instead.

Sampling is counter-based: the row of sample ``i`` is generated by a
Philox generator keyed on ``(master_seed, i)``, and every symbol consumes
exactly one uniform.  Philox is a function of its key and a block counter
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11), and
uniforms drawn in pieces equal one long draw, so a row's symbols depend only
on ``(master_seed, i)``, not on the other ids in the block or on the
windowing, which makes experiments reproducible independently of worker
scheduling.  A :class:`SymbolSource` draws a block's time axis window by
window, one Philox stream per row and one chain for all rows; the
next-symbol law is read from the backend's chain (``backend.chain(n_rows)``,
defined with the backends in :mod:`selfconformal.gibbs`): each step picks a
symbol per row from the chain's cumulative rows, then advances the chain.
I.i.d. (Bernoulli) symbols skip the stepping: a whole window of uniforms is
mapped through the one cumulative row at once, by the same pick rule
(:func:`_pick_symbols`).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Union

import numpy as np

from .gibbs import BernoulliBackend, MeasureBackend, _over_alphabet, _pair_mass
from .ifs import (IfsSystem, _children, _distance_range, _initial_state, _invert_map,
                  _state_boxes, _to_coords, _window_images)
from .symbolic import FiniteWord, PointRd, as_point

__all__ = [
    "sample_symbol_block",
    "SymbolSource",
    "t_apply",
    "project_windows",
    "correlation",
]


# ---------------------------------------------------------------------------
# the induced expanding map
# ---------------------------------------------------------------------------

def t_apply(system: IfsSystem, x, depth_hint: int = 1, tol: float = 1e-9) -> PointRd:
    """One step of the induced expanding map: phi_j^{-1} on branch j's piece.

    The branch is the lowest index whose closed depth-1 cylinder hull contains
    ``x`` (within ``tol``); overlap points on piece boundaries carry no mass,
    so the tie-break is statistically irrelevant.  ``depth_hint > 1`` sharpens
    membership by testing the depth-``depth_hint`` cylinder hulls inside each
    branch, which rejects points that only touch a branch's bounding hull.
    The hulls of one level are built and tested at once; in word order the
    first hit lies in the lowest branch.
    """
    if depth_hint < 1 or depth_hint > 8:
        raise ValueError("depth_hint must be in 1..8")
    x = as_point(x, system.dim)
    state = _initial_state(system)
    for _ in range(depth_hint):
        state = _children(system, state)
    lo, hi = _state_boxes(system, state, system.attractor_box)
    hits = np.flatnonzero(_distance_range(np.asarray(x.coords), lo, hi)[0] <= tol)
    if not hits.size:
        raise ValueError(f"point {x.coords} is not within {tol} of any depth-1 piece")
    return _invert_map(system, int(hits[0]) // system.m ** (depth_hint - 1) + 1, x)


# ---------------------------------------------------------------------------
# symbolic orbits: shift then project through a composition window
# ---------------------------------------------------------------------------

# 8-byte words of temporaries a projection pass may hold: its gathered map
# columns and their index, its points, and a Moebius map's numerator and
# denominator (``ifs._window_images`` sizes the passes)
_WINDOW_CHUNK = 1 << 16


def project_windows(symbols: np.ndarray, system: IfsSystem, depth: int) -> np.ndarray:
    """Project every length-``depth`` window of a symbol array to coordinates.

    ``symbols`` is one symbol row, or a ``(rows, cols)`` block of independent
    sample paths whose windows slide within each row.  Returns the points
    ``phi_{s_n} ... phi_{s_{n+depth-1}}(base)`` for ``n = 0..cols-depth``,
    shape ``(cols - depth + 1,)`` or ``(rows, cols - depth + 1)``, with a
    trailing coordinate axis for plane systems.  Maps are applied
    innermost-first so the contractions damp rounding instead of amplifying
    it, a pass of rows and windows at a time in place, each pass gathering
    its symbols' map coefficients once (``ifs._window_images``).  A block
    with no rows gives an empty result; a symbol outside ``1..m`` raises.
    Each point is computed from its own window alone, elementwise, so column
    windows of a block that overlap by ``depth - 1`` symbols, a lone window
    among them, project to the block's points bit for bit: the counting
    engine projects a time axis that way, one window of the sampler at a time.
    """
    syms = np.asarray(symbols)
    if depth < 1 or syms.ndim not in (1, 2) or syms.shape[-1] < depth:
        raise ValueError("need at least `depth` symbols")
    if syms.size and (syms.min() < 1 or syms.max() > system.m):
        raise ValueError(f"symbols must lie in 1..{system.m}")
    out = _window_images(system, syms.reshape(-1, syms.shape[-1]), depth, 8 * _WINDOW_CHUNK)
    return _to_coords(out.reshape(syms.shape[:-1] + out.shape[-1:]))


# ---------------------------------------------------------------------------
# measure-distributed sampling
# ---------------------------------------------------------------------------

_WINDOW_CELLS = 1 << 17  # symbols (rows x columns) per window of a block's time axis
_DRAW_CELLS = 1 << 16  # Bernoulli uniforms mapped per pass; bounds the draw buffer
_KEY_LIMIT = 1 << 64  # a Philox key word is an unsigned 64-bit integer


def _key_word(value, name: str) -> int:
    """``value`` as one word of a Philox key: an integer in ``[0, 2**64)``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not 0 <= value < _KEY_LIMIT):
        raise ValueError(f"{name}: {value!r} is not an integer in [0, 2**64)")
    return int(value)


def _check_sample_ids(sample_ids: Sequence[int]) -> List[int]:
    """The ids as Philox key words, refusing repeats (a repeat counts one stream twice)."""
    ids = [_key_word(sid, "sample_ids") for sid in sample_ids]
    if len(set(ids)) != len(ids):
        raise ValueError("sample_ids must not repeat")
    return ids


def _window_width(rows: int) -> int:
    """Columns per window of a ``rows``-row block: ``_WINDOW_CELLS`` symbols, but
    at least ``_WINDOW_CELLS // 1024``, so many short rows are not re-keyed per window."""
    return max(1, _WINDOW_CELLS // 1024, _WINDOW_CELLS // max(rows, 1))


_PHILOX_BLOCK = 4  # 64-bit words per Philox4x64 counter block, one uniform each


def _stream_uniforms(
    gen: np.random.Generator, master_seed: int, sample_id: int, start: int, out: np.ndarray
) -> None:
    """Fill ``out`` with uniforms ``start, start + 1, ...`` of stream ``sample_id``.

    ``gen`` wraps a Philox bit generator, which is re-keyed in place: key
    ``(master_seed, sample_id)``, counter at the block before ``start``'s and
    an empty buffer (the next draw increments the counter, then fills the
    buffer), so the draws equal those of a fresh
    ``Generator(Philox(key=(master_seed, sample_id)))`` after ``start`` others.
    """
    block, skip = divmod(start, _PHILOX_BLOCK)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [block, 0, 0, 0], "key": [master_seed, sample_id]},
        "buffer": [0] * _PHILOX_BLOCK,
        "buffer_pos": _PHILOX_BLOCK,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if skip:
        gen.random(skip)
    gen.random(out=out)


def _pick_symbols(cum: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """Write into the int8 ``out`` the symbol each uniform of ``u`` picks: one
    plus the number of inner cumulative weights at or below it.  ``cum`` is one
    row for all uniforms (an i.i.d. window) or one row per uniform (a chain
    step).  Its last entry, the total, is never compared, so a sum that rounds
    below 1 gives the last symbol to the uniforms past it."""
    out[...] = 1
    for j in range(cum.shape[-1] - 1):
        out += u >= cum[..., j]


class SymbolSource:
    """The symbol rows of a block of sample ids, drawn window by window.

    Holds one next-symbol chain for all rows and the number of symbols drawn
    so far; each :meth:`draw` reads every row's next uniforms from its Philox
    stream and continues the chain, so consecutive windows concatenate to the
    block one long draw gives.  The first window re-keys one generator per
    row (:func:`_stream_uniforms`); a second window gives each row its own
    generator, positioned where the row stands, so that later windows read on
    without re-keying.
    """

    def __init__(self, backend: MeasureBackend, master_seed: int, sample_ids: Sequence[int]):
        self.backend = backend
        self.master_seed = _key_word(master_seed, "master_seed")
        self.sample_ids = _check_sample_ids(sample_ids)
        self.drawn = 0
        self._gen = np.random.Generator(np.random.Philox(0))  # re-keyed for every row
        self._row_gens: Optional[List[np.random.Generator]] = None
        self._chain = backend.chain(len(self.sample_ids))

    def _fill(self, u: np.ndarray, r0: int) -> None:
        """Fill row ``i`` of ``u`` with the next uniforms of row ``r0 + i``."""
        if self._row_gens is None:
            for row, sid in zip(u, self.sample_ids[r0 : r0 + u.shape[0]]):
                _stream_uniforms(self._gen, self.master_seed, sid, self.drawn, row)
        else:
            for row, gen in zip(u, self._row_gens[r0 : r0 + u.shape[0]]):
                gen.random(out=row)

    def draw(self, width: int) -> np.ndarray:
        """The next ``width`` symbols (1-based) of every row, shape (rows, width)."""
        ids = self.sample_ids
        if self.drawn and self._row_gens is None:
            self._row_gens = [np.random.Generator(np.random.Philox(0)) for _ in ids]
            for gen, sid in zip(self._row_gens, ids):
                _stream_uniforms(gen, self.master_seed, sid, self.drawn, np.empty(0))
        out = np.empty((len(ids), width), dtype=np.int8)
        if isinstance(self.backend, BernoulliBackend):
            # i.i.d. symbols: the one cumulative row maps a batch of rows at once
            cum = self._chain.cum_rows()[0]
            batch = max(1, _DRAW_CELLS // max(width, 1))
            U = np.empty((min(batch, len(ids)), width))
            for r0 in range(0, len(ids), batch):
                u = U[: len(ids[r0 : r0 + batch])]
                self._fill(u, r0)
                _pick_symbols(cum, u, out[r0 : r0 + u.shape[0]])
        else:
            u = np.empty((len(ids), width))
            self._fill(u, 0)
            for t in range(width):
                _pick_symbols(self._chain.cum_rows(), u[:, t], out[:, t])
                self._chain.advance(out[:, t])
        self.drawn += width
        return out


def sample_symbol_block(
    backend: MeasureBackend,
    master_seed: int,
    sample_ids: Sequence[int],
    length: int,
    *,
    source: Optional[SymbolSource] = None,
) -> np.ndarray:
    """Symbols (1-based) for many sample streams at once, shape (ids, length).

    Symbol ``t`` of row ``i`` is picked by uniform ``t`` of the Philox stream
    keyed ``(master_seed, sample_ids[i])``, through the cumulative row that the
    backend's chain holds after symbols ``0..t-1``.  A row therefore does not
    depend on the other ids in the block, and a shorter block is a prefix of
    a longer one.  ``master_seed`` and the ids must be integers in
    ``[0, 2**64)``, the ids without repeats.

    The block is the concatenation of the windows of a :class:`SymbolSource`,
    ``_window_width(len(sample_ids))`` columns each.  Given an open
    ``source`` for the same backend, seed and ids, the block is that source's
    next ``length`` columns: the counting engine draws a worker block's time
    axis this way, one window per call.
    """
    if source is None:
        source = SymbolSource(backend, master_seed, sample_ids)
    elif (source.backend is not backend or source.master_seed != master_seed
          or source.sample_ids != list(sample_ids)):
        raise ValueError("source was opened for a different backend, seed or ids")
    out = np.empty((len(source.sample_ids), length), dtype=np.int8)
    width = _window_width(out.shape[0])
    for c0 in range(0, length, width):
        out[:, c0 : c0 + width] = source.draw(min(width, length - c0))
    return out


# ---------------------------------------------------------------------------
# correlation of cylinder indicators
# ---------------------------------------------------------------------------

IndicatorSpec = Union[FiniteWord, Sequence[FiniteWord]]


def _as_union(spec: IndicatorSpec, m: int) -> List[FiniteWord]:
    words = [spec] if isinstance(spec, FiniteWord) else list(spec)
    if not words:
        raise ValueError("indicator needs at least one cylinder")
    for w in words:
        if not isinstance(w, FiniteWord):
            raise ValueError("indicator members must be finite words")
        _over_alphabet(w, m)
    for a, b in itertools.combinations(words, 2):
        k = min(len(a), len(b))
        if a.symbols[:k] == b.symbols[:k]:
            raise ValueError("indicator cylinders must be pairwise disjoint")
    return words


def correlation(
    system: IfsSystem,
    backend: MeasureBackend,
    f1: IndicatorSpec,
    f2: IndicatorSpec,
    n: int,
) -> float:
    """C(n) = int f1 . f2 o T^n dmu - int f1 dmu . int f2 dmu.

    ``f1`` and ``f2`` are indicators of finite disjoint unions of cylinders,
    so both integrals are cylinder sums and each joint mass is read off a
    level table (``gibbs._pair_mass``), which refuses ``n < 0`` and any level
    past a spectral table.
    """
    if backend.system is not system:
        raise ValueError("backend belongs to a different system")
    words1 = _as_union(f1, system.m)
    words2 = _as_union(f2, system.m)
    mu1 = sum(backend.cylinder_measure(w) for w in words1)
    mu2 = sum(backend.cylinder_measure(w) for w in words2)
    joint = 0.0
    for I in words1:
        for J in words2:
            joint += _pair_mass(backend, I, J, n)
    return joint - mu1 * mu2
