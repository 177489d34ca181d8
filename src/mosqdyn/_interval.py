"""Outward-rounded interval arithmetic on pairs of floats.

An interval is a tuple (lo, hi) of floats; a float v stands for (v, v).
Each operation rounds to nearest and then widens its result by one ulp on
each side with `math.nextafter`, so the exact result of the operation on any
reals inside its operands lies inside the returned interval.  An end that
overflows becomes infinite.  Where an operation meets NaN, or infinities of
both signs, `mul`, `div` and `mag` return NaN, which fails every comparison,
so a caller that accepts only what its comparisons prove accepts nothing.
"""

from __future__ import annotations

import math


def down(v: float) -> float:
    return math.nextafter(v, -math.inf)


def up(v: float) -> float:
    return math.nextafter(v, math.inf)


def add(a, b):
    return down(a[0] + b[0]), up(a[1] + b[1])


def sub(a, b):
    return down(a[0] - b[1]), up(a[1] - b[0])


def _hull(ends):
    if math.isnan(sum(ends)):
        return math.nan, math.nan
    return down(min(ends)), up(max(ends))


def mul(a, b):
    return _hull([u * v for u in a for v in b])


def div(a, b):
    """a / b for b of positive lower end."""
    return _hull([u / v for u in a for v in b])


def mag(a) -> float:
    """Largest |v| over the interval."""
    return math.nan if math.isnan(a[0] + a[1]) else max(-a[0], a[1])
