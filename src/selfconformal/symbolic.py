"""Symbolic dynamics: finite words over a finite alphabet, and points.

Points of the attractor are addressed by infinite symbol sequences over the
alphabet ``{1, ..., m}``; the package holds only finite pieces of them.
Finite words are immutable tuples of symbols.  Sampled orbits are integer
symbol arrays (``dynamics.sample_symbol_block``), and a length-``k`` window of
such an array is projected to coordinates through the coding map truncated
at depth ``k`` (``dynamics.project_windows``).

All exact computation in the package runs on symbols; floating point enters
only when a word is projected to coordinates through the coding map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


__all__ = [
    "FiniteWord",
    "PointRd",
    "as_point",
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

    def __repr__(self) -> str:
        return f"FiniteWord({''.join(map(str, self.symbols))!r}, m={self.m})"


def word(symbols: Sequence[int], m: int) -> FiniteWord:
    """Convenience constructor: ``word([1,2,1], 2)`` or ``word('121', 2)``."""
    if isinstance(symbols, str):
        symbols = [int(c) for c in symbols]
    return FiniteWord(tuple(symbols), m)


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
