"""Shared compensated-summation helpers.

All aggregation goes through math.fsum (error-free summation) with two-pass
centering; that is what lets the cross-metric identity tests hold at 1e-12
relative tolerance.
"""

from __future__ import annotations

from itertools import repeat
from math import fsum
from operator import sub


def sum_sq_dev(values, center: float) -> float:
    return fsum(map(pow, map(sub, values, repeat(center)), repeat(2)))


def sum_abs_dev(values, center: float) -> float:
    return fsum(map(abs, map(sub, values, repeat(center))))
