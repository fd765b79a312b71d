"""Symbolic dynamics: words over a finite alphabet, the shift, and the coding map.

Points of the attractor are addressed by infinite symbol sequences over the
alphabet ``{1, ..., m}``.  Finite words are immutable tuples of symbols;
infinite words are an explicit finite prefix followed by a tail model, either
periodic (for exactly representable points such as ``1/4 = pi((12)^inf)`` on
the ternary Cantor set) or random (for measure-distributed points whose
symbols are materialized on demand from a sampler).

All exact computation in the package runs on symbols; floating point enters
only when a word is projected to coordinates through the coding map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union


__all__ = [
    "FiniteWord",
    "PeriodicTail",
    "RandomTail",
    "SymbolStream",
    "PointRd",
    "as_point",
    "symbolic_dist",
    "shift",
    "coding_map_pi",
]


@dataclass(frozen=True)
class FiniteWord:
    """A finite word over the alphabet ``{1, ..., m}``; may be empty (root).

    Parameters
    ----------
    symbols : tuple of int
        Symbol sequence, each in ``1..m``.  The empty tuple is the root word.
    m : int
        Alphabet size (``m >= 2``).
    """

    symbols: tuple
    m: int

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))
        if self.m < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.m}")
        for s in self.symbols:
            if not 1 <= s <= self.m:
                raise ValueError(f"symbol {s} outside alphabet 1..{self.m}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __iter__(self):
        return iter(self.symbols)

    def concat(self, other: "FiniteWord") -> "FiniteWord":
        """Concatenate two words over the same alphabet."""
        if other.m != self.m:
            raise ValueError("alphabet size mismatch in concat")
        return FiniteWord(self.symbols + other.symbols, self.m)

    def append(self, symbol: int) -> "FiniteWord":
        """Extend by one symbol."""
        return FiniteWord(self.symbols + (int(symbol),), self.m)

    def prefix(self, k: int) -> "FiniteWord":
        """The first ``k`` symbols as a word."""
        return FiniteWord(self.symbols[:k], self.m)

    def suffix(self, k: int) -> "FiniteWord":
        """The last ``k`` symbols as a word (``k = 0`` gives the root)."""
        if k == 0:
            return FiniteWord((), self.m)
        return FiniteWord(self.symbols[-k:], self.m)

    def is_prefix_of(self, other: "FiniteWord") -> bool:
        return other.symbols[: len(self.symbols)] == self.symbols

    def __repr__(self) -> str:
        return f"FiniteWord({''.join(map(str, self.symbols))!r}, m={self.m})"


def word(symbols: Sequence[int], m: int) -> FiniteWord:
    """Convenience constructor: ``word([1,2,1], 2)`` or ``word('121', 2)``."""
    if isinstance(symbols, str):
        symbols = [int(c) for c in symbols]
    return FiniteWord(tuple(symbols), m)


@dataclass(frozen=True)
class PeriodicTail:
    """Eventually repeating tail ``(period)^inf``; the period is nonempty."""

    period: tuple

    def __post_init__(self):
        object.__setattr__(self, "period", tuple(int(s) for s in self.period))
        if len(self.period) == 0:
            raise ValueError("periodic tail requires a nonempty period")


class RandomTail:
    """Symbols materialized on demand from a draw callback.

    The callback receives the number of additional symbols wanted and the
    symbols drawn so far (so Markov samplers can condition on the past), and
    returns a list of new symbols.  Materialization appends to an internal
    buffer that is shared between a stream and its shifts; each logical stream
    addresses the buffer through its own offset, so shifting never re-draws.
    """

    def __init__(self, draw: Callable[[int, Sequence[int]], Sequence[int]]):
        self._draw = draw
        self.buffer: list = []

    def ensure(self, n: int) -> None:
        """Materialize the buffer out to at least ``n`` symbols."""
        while len(self.buffer) < n:
            need = n - len(self.buffer)
            got = list(self._draw(need, self.buffer))
            if not got:
                raise RuntimeError("random tail sampler returned no symbols")
            self.buffer.extend(int(s) for s in got)


Tail = Union[PeriodicTail, RandomTail]


@dataclass(frozen=True)
class SymbolStream:
    """An infinite word: explicit prefix + (periodic | random) tail.

    ``tail_offset`` locates this stream's start inside the tail, which lets
    :func:`shift` drop symbols without copying or re-drawing random tails.
    """

    prefix: tuple
    tail: Tail
    m: int
    tail_offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(int(s) for s in self.prefix))
        for s in self.prefix:
            if not 1 <= s <= self.m:
                raise ValueError(f"symbol {s} outside alphabet 1..{self.m}")
        if isinstance(self.tail, PeriodicTail):
            for s in self.tail.period:
                if not 1 <= s <= self.m:
                    raise ValueError(f"symbol {s} outside alphabet 1..{self.m}")

    # -- reading ---------------------------------------------------------
    def read(self, n: int) -> tuple:
        """The first ``n`` symbols of the stream."""
        if n <= len(self.prefix):
            return self.prefix[:n]
        out = list(self.prefix)
        need = n - len(out)
        if isinstance(self.tail, PeriodicTail):
            per = self.tail.period
            k = len(per)
            off = self.tail_offset
            out.extend(per[(off + i) % k] for i in range(need))
        else:
            self.tail.ensure(self.tail_offset + need)
            out.extend(self.tail.buffer[self.tail_offset : self.tail_offset + need])
        return tuple(out)

    def head(self) -> int:
        """The first symbol."""
        return self.read(1)[0]

    def word_prefix(self, n: int) -> FiniteWord:
        return FiniteWord(self.read(n), self.m)

    # -- structure -------------------------------------------------------
    def shifted(self) -> "SymbolStream":
        """The stream with its first symbol dropped (the shift map)."""
        if self.prefix:
            return SymbolStream(self.prefix[1:], self.tail, self.m, self.tail_offset)
        if isinstance(self.tail, PeriodicTail):
            # keep the offset-free periodic form: rotate the period past
            # the offset and the dropped symbol
            per = self.tail.period
            k = (self.tail_offset + 1) % len(per)
            return SymbolStream((), PeriodicTail(per[k:] + per[:k]), self.m, 0)
        return SymbolStream((), self.tail, self.m, self.tail_offset + 1)

    def is_periodic(self) -> bool:
        return isinstance(self.tail, PeriodicTail)

    def eventually_periodic_form(self):
        """Return ``(preperiod, period)`` tuples for a periodic-tail stream."""
        if not isinstance(self.tail, PeriodicTail):
            raise ValueError("stream has a random tail")
        per = self.tail.period
        k = self.tail_offset % len(per)
        return self.prefix, per[k:] + per[:k]


def periodic_stream(prefix: Sequence[int], period: Sequence[int], m: int) -> SymbolStream:
    """Stream ``prefix . (period)^inf``; accepts strings of digits."""
    if isinstance(prefix, str):
        prefix = [int(c) for c in prefix]
    if isinstance(period, str):
        period = [int(c) for c in period]
    return SymbolStream(tuple(int(s) for s in prefix), PeriodicTail(tuple(int(s) for s in period)), m)


def constant_stream(symbol: int, m: int) -> SymbolStream:
    """The fixed point ``(symbol)^inf`` of the shift."""
    return periodic_stream((), (symbol,), m)


@dataclass(frozen=True)
class PointRd:
    """A point of the ambient space, ``d >= 1`` finite real coordinates."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))
        if len(self.coords) < 1:
            raise ValueError("point needs at least one coordinate")
        for c in self.coords:
            if not math.isfinite(c):
                raise ValueError("point coordinates must be finite")

    @property
    def d(self) -> int:
        return len(self.coords)

    @property
    def x(self) -> float:
        return self.coords[0]

    @property
    def y(self) -> float:
        return self.coords[1]

    def dist(self, other: "PointRd") -> float:
        return math.dist(self.coords, other.coords)

    def __repr__(self) -> str:
        return f"PointRd{self.coords!r}"


def as_point(x, dim: int = None) -> PointRd:
    """Coerce a float / sequence / PointRd to a PointRd (optionally check d)."""
    if isinstance(x, PointRd):
        p = x
    elif isinstance(x, (int, float)):
        p = PointRd((float(x),))
    else:
        p = PointRd(tuple(x))
    if dim is not None and p.d != dim:
        raise ValueError(f"expected a {dim}-dimensional point, got {p.d}")
    return p


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _streams_equal_periodic(I: SymbolStream, J: SymbolStream) -> bool:
    """Exact equality test for two periodic-tail streams."""
    pa, qa = I.eventually_periodic_form()
    pb, qb = J.eventually_periodic_form()
    # Two eventually periodic sequences agree iff they agree on the first
    # max(preperiods) + lcm(periods) symbols.
    n = max(len(pa), len(pb)) + math.lcm(len(qa), len(qb))
    return I.read(n) == J.read(n)


def symbolic_dist(I: SymbolStream, J: SymbolStream, max_depth: int) -> float:
    """The symbolic metric ``m^-k``, ``k`` = longest common prefix length.

    Returns 0.0 exactly when both streams are periodic and provably equal;
    returns ``m^-max_depth`` as an upper bound when the streams agree through
    ``max_depth`` but cannot be certified equal (e.g. random tails).
    Distinct first symbols give ``m^0 = 1`` (empty supremum convention).
    """
    if I.m != J.m:
        raise ValueError("streams over different alphabets")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    a = I.read(max_depth)
    b = J.read(max_depth)
    for k in range(max_depth):
        if a[k] != b[k]:
            return float(I.m) ** (-k)
    if I.is_periodic() and J.is_periodic() and _streams_equal_periodic(I, J):
        return 0.0
    return float(I.m) ** (-max_depth)


def shift(I: SymbolStream) -> SymbolStream:
    """Drop the first symbol, preserving tail structure."""
    return I.shifted()


def coding_map_pi(system, I: SymbolStream, tol: float) -> PointRd:
    """Project a symbol stream to its attractor point within ``tol``.

    Composes the maps of ``system`` along a prefix deep enough that the
    cylinder containing the point has diameter below ``tol``, then applies the
    composition to the base point (the fixed point of the first map).  The
    result is independent of the base point up to ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    depth = system.depth_for_diameter(tol)
    prefix = FiniteWord(I.read(depth), I.m)
    return system.apply_word(prefix, system.base_point())
