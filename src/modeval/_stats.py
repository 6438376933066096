"""Shared compensated-summation helpers.

All aggregation goes through math.fsum (error-free summation) with two-pass
centering; that is what lets the cross-metric identity tests hold at 1e-12
relative tolerance.
"""

from __future__ import annotations

from math import fsum


def sum_sq_dev(values, center: float) -> float:
    return fsum((v - center) ** 2 for v in values)


def sum_abs_dev(values, center: float) -> float:
    return fsum(abs(v - center) for v in values)
