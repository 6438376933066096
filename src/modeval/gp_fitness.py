"""Fitness scores for binary classifiers on unbalanced data.

These functions grade raw real-valued classifier outputs where the sign
encodes the predicted class: output > 0 predicts the minority class. The
caller labels which examples are minority; nothing is inferred from counts.

All of them share the scaled sigmoid sig(x) = 2/(1 + e^-x) - 1, which maps
outputs onto (-1, 1). Per-class targets for the pattern-difference score are
+0.5 (minority) and -0.5 (majority).
"""

from __future__ import annotations

import math
from functools import cached_property
from math import fsum

from ._stats import sum_sq_dev
from .dataset import MetricValue, _Frozen, _real_column
from .errors import DataError


class ClassOutputs(_Frozen):
    """Raw classifier outputs split by true class; both sides nonempty.

    Each side must hold real numbers, as ``dataset._real_column`` defines
    them; a DataError names the first other value as ``minority[i]`` or
    ``majority[i]``. The sides stay tuples of boxed floats, unlike the
    ``array("d")`` columns of the dataset types: ``wmw`` compares every
    minority output with every majority output, and an array would box each
    majority output again for every minority output it meets.
    """

    minority: tuple[float, ...]
    majority: tuple[float, ...]

    def __init__(self, minority, majority):
        sides = []
        for name, outputs in (("minority", minority), ("majority", majority)):
            values = tuple(_real_column(outputs, name))
            if not values:
                raise DataError(f"{name} outputs must be nonempty")
            sides.append(values)
        self._set(*sides)

    @cached_property
    def minority_mean(self) -> float:
        return fsum(self.minority) / len(self.minority)

    @cached_property
    def majority_mean(self) -> float:
        return fsum(self.majority) / len(self.majority)

    @cached_property
    def minority_std(self) -> float:
        # population form: divide by N
        return math.sqrt(sum_sq_dev(self.minority, self.minority_mean) / len(self.minority))

    @cached_property
    def majority_std(self) -> float:
        return math.sqrt(sum_sq_dev(self.majority, self.majority_mean) / len(self.majority))


def sig_scaled(x: float) -> float:
    """Scaled sigmoid 2/(1 + e^-x) - 1, a monotone map onto (-1, 1).

    Computed as tanh(x/2), the algebraically identical stable form.
    """
    return math.tanh(0.5 * x)


def wmw(data: ClassOutputs) -> MetricValue:
    """Fraction of minority/majority pairs ranked correctly by a non-negative output.

    WMW = count(P_i > P_j and P_i >= 0 over minority i, majority j)
    / (N_minority * N_majority). Minority examples scored negative never
    count, even when they outrank every majority example.
    """
    count = 0
    for pi in data.minority:
        if pi < 0:
            continue
        for pj in data.majority:
            if pi > pj:
                count += 1
    return MetricValue.defined("WMW", count / (len(data.minority) * len(data.majority)))


def ffa(data: ClassOutputs) -> MetricValue:
    """Pattern-difference fitness against the +/-0.5 class targets; ideal is 1.

    FFA = mean over classes c of 1 - sum((sig(P) - T_c)^2) / (2*N_c).
    """

    def class_score(outputs, target):
        gap = fsum((sig_scaled(p) - target) ** 2 for p in outputs)
        return 1.0 - gap / (2.0 * len(outputs))

    value = (class_score(data.minority, 0.5) + class_score(data.majority, -0.5)) / 2.0
    return MetricValue.defined("FFA", value)


def ffc(data: ClassOutputs) -> MetricValue:
    """Correlation-ratio fitness plus a bonus for correctly signed class means.

    FFC = (r + bonus) / 2, where r = sqrt(between-class SS / total SS) of the
    pooled outputs and bonus = 1 when mean(minority) > 0 > mean(majority).
    """
    pooled = data.minority + data.majority
    pooled_mean = fsum(pooled) / len(pooled)
    total = sum_sq_dev(pooled, pooled_mean)
    if total == 0:
        return MetricValue.undefined("FFC", "zero_denominator")
    between = (len(data.minority) * (data.minority_mean - pooled_mean) ** 2
               + len(data.majority) * (data.majority_mean - pooled_mean) ** 2)
    r = math.sqrt(between) / math.sqrt(total)
    bonus = 1.0 if data.minority_mean > 0 and data.majority_mean < 0 else 0.0
    return MetricValue.defined("FFC", (r + bonus) / 2.0)


def ffd(data: ClassOutputs) -> MetricValue:
    """Separation of the class output distributions, gated on mean signs.

    FFD = |mean(minority) - mean(majority)| / (std(minority) + std(majority))
    with population stds. Unbounded above; 0 whenever the class means are not
    on opposite sides of zero (minority positive, majority negative).
    """
    spread = data.minority_std + data.majority_std
    if spread == 0:
        return MetricValue.undefined("FFD", "zero_denominator")
    if not (data.minority_mean > 0 > data.majority_mean):
        return MetricValue.defined("FFD", 0.0)
    return MetricValue.defined(
        "FFD", abs(data.minority_mean - data.majority_mean) / spread)


def d_score(data: ClassOutputs) -> MetricValue:
    """Harmonic mean of confidence-weighted per-class correctness.

    C1 rewards majority outputs on or below zero, C2 minority outputs above
    zero, each weighted by |sig(output)|; either class fully misclassified
    drives the score to 0.
    """
    c1 = fsum(abs(sig_scaled(p)) for p in data.majority if p <= 0) / len(data.majority)
    c2 = fsum(abs(sig_scaled(p)) for p in data.minority if p > 0) / len(data.minority)
    if c1 + c2 == 0:
        return MetricValue.defined("D_SCORE", 0.0)
    return MetricValue.defined("D_SCORE", 2.0 * c1 * c2 / (c1 + c2))
