"""Shared compensated-summation helpers.

All aggregation goes through math.fsum (error-free summation) with two-pass
centering; that is what lets the cross-metric identity tests hold at 1e-12
relative tolerance. Every square is x * x through ``sum_sq``: a product is
correctly rounded, so scaling the inputs by a power of two is exact.
"""

from __future__ import annotations

from itertools import repeat, tee
from math import fsum, inf
from operator import mul, sub


def sum_sq(values) -> float:
    return fsum(map(mul, *tee(values)))


def sum_sq_dev(values, center: float) -> float:
    total = sum_sq(map(sub, values, repeat(center)))
    if total == inf:  # a square left the double range
        raise OverflowError("sum of squared deviations out of range")
    return total


def sum_abs_dev(values, center: float) -> float:
    return fsum(map(abs, map(sub, values, repeat(center))))
