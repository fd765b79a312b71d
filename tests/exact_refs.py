"""Exact references for measure brackets, from the standard library alone.

* The Bernoulli ``(p1, p2)`` measure on the middle-third Cantor set. Its
  maps and float weights are dyadic rationals, so ``fractions.Fraction``
  runs the digit walk of its distribution function exactly; the walk stops
  in a removed gap (an exact value) or once the cylinder left is lighter
  than ``2**-100`` (an interval that narrow around the exact value).
* The invariant density ``1 / (ln 2 (1 + x))`` of the Moebius interval
  quartet, whose distribution function is ``log2(1 + x)``, in ``decimal`` at
  50 digits.

Ball masses are of open balls; both measures are atomless, so an open and a
closed ball weigh the same.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Tuple

_CUT = Fraction(1, 2 ** 100)
DIGITS = 50


def cantor_cdf(probs, y) -> Tuple[Fraction, Fraction]:
    """``[lo, hi]`` around ``F(y) = mu([0, y])``, exact when ``lo == hi``."""
    p1, p2 = Fraction(probs[0]), Fraction(probs[1])
    y = Fraction(y)
    acc, w = Fraction(0), Fraction(1)
    third = Fraction(1, 3)
    while w > _CUT:
        if y <= 0:
            return acc, acc
        if y >= 1:
            return acc + w, acc + w
        if y < third:  # F = p1 F(3y) on the left third
            y, w = 3 * y, w * p1
        elif y <= 2 * third:  # the middle gap
            return acc + w * p1, acc + w * p1
        else:  # F = p1 + p2 F(3y - 2) on the right third
            acc += w * p1
            y, w = 3 * y - 2, w * p2
    return acc, acc + w


def cantor_ball(probs, x, r) -> Tuple[Fraction, Fraction]:
    """``[lo, hi]`` around ``mu(B(x, r))`` for the float center ``x`` and radius ``r``."""
    x, r = Fraction(x), Fraction(r)
    right, left = cantor_cdf(probs, x + r), cantor_cdf(probs, x - r)
    return right[0] - left[1], right[1] - left[0]


def log2_1p(x) -> Decimal:
    """``log2(1 + x)`` for a float or Decimal ``x``, to ``DIGITS`` digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 5
        return +((1 + Decimal(x)).ln() / Decimal(2).ln())


def quartet_ball(x, r) -> Decimal:
    """``mu(B(x, r))`` under the quartet's invariant density, to ``DIGITS`` digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 5
        x, r = Decimal(x), Decimal(r)
        return log2_1p(min(x + r, Decimal(1))) - log2_1p(max(x - r, Decimal(0)))
