"""Ranking and threshold-sweep metrics: ROC/AUC, PR/AP, break-even, lift, CAL.

Every metric here reads ``ScoredBinarySet.ranking``, one stable descending
sort of the scores that is built on first use and then shared.

Tie handling: equal scores collapse into a single curve vertex (a diagonal
ROC step), which makes the trapezoidal AUC equal the pairwise ranking
probability with ties counted as one half. That equivalence is this module's
core oracle test.

A curve is its x, y and threshold columns, in that order, so
``zip(*curve)`` gives its vertices as (x, y, threshold) rows.

``METRICS`` holds the entries the CLI reports, over a ``CurveContext``.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from functools import cached_property
from itertools import chain, repeat
from math import fsum
from operator import add, mul, sub, truediv

from .dataset import Metric, MetricValue, ScoredBinarySet, _check_probabilities
from .errors import DataError, DefinednessError, UsageError

CAL_WINDOW_SIZE = 100


class RocCurve(namedtuple("RocCurve", "fpr tpr thresholds")):
    """Threshold sweep from (0,0) to (1,1); one vertex per distinct score.

    Held as three ``array("d")`` columns: the rates, and the thresholds, which
    are the ranking's thresholds after a leading ``inf``.
    """

    __slots__ = ()


class PrCurve(namedtuple("PrCurve", "recall precision thresholds")):
    """Threshold sweep over distinct scores; recall reaches 1 at the last point.

    Held as three ``array("d")`` columns: the rates, and the ranking's own
    thresholds column.
    """

    __slots__ = ()


class CalibrationReport(namedtuple("CalibrationReport", "window_errors cal")):
    """Per-window calibration errors, each window ``CAL_WINDOW_SIZE`` cases, as
    a tuple of floats, and their mean ``cal``."""

    __slots__ = ()


def roc_curve(data: ScoredBinarySet) -> RocCurve:
    """ROC sweep; ties move diagonally in one step, endpoints always present."""
    positives = data.positive_count
    negatives = data.negative_count
    if positives == 0 or negatives == 0:
        raise DefinednessError(
            "ROC needs at least one positive and one negative label")
    ranking = data.ranking
    # rank 0 (nothing predicted positive) is the (0, 0) vertex
    ranks = array("Q", (0,)) + ranking.ends
    tp = array("Q", map(ranking.cum_positives.__getitem__, ranks))
    return RocCurve(array("d", map(truediv, map(sub, ranks, tp), repeat(negatives))),
                    array("d", map(truediv, tp, repeat(positives))),
                    array("d", (math.inf,)) + ranking.thresholds)


def auc(curve: RocCurve) -> MetricValue:
    """Trapezoidal area under a ROC curve."""
    fpr, tpr = curve.fpr, curve.tpr
    # sum of 0.5 * width * (height sum); halving is exact, so it moves out of the sum
    doubled = fsum(map(mul, map(sub, fpr[1:], fpr), map(add, tpr[1:], tpr)))
    return MetricValue.defined("AUC", 0.5 * doubled)


def pr_curve(data: ScoredBinarySet) -> PrCurve:
    """Precision-recall sweep over distinct scores, descending.

    The first point carries the precision at the highest threshold; no
    extrapolated recall-0 point is added.
    """
    positives = data.positive_count
    if positives == 0:
        raise DefinednessError("a PR curve needs at least one positive label")
    ranking = data.ranking
    ends = ranking.ends
    tp = array("Q", map(ranking.cum_positives.__getitem__, ends))
    return PrCurve(array("d", map(truediv, tp, repeat(positives))),
                   array("d", map(truediv, tp, ends)),
                   ranking.thresholds)


def average_precision(data: ScoredBinarySet) -> MetricValue:
    """Precision weighted by recall increments over the PR sweep."""
    return curve_average_precision(pr_curve(data))


def curve_average_precision(curve: PrCurve) -> MetricValue:
    """AP of an already swept PR curve, so a caller holding one sorts once."""
    recall = curve.recall
    steps = map(sub, recall, chain((0.0,), recall))
    return MetricValue.defined("AP", fsum(map(mul, steps, curve.precision)))


def break_even_point(curve: PrCurve) -> MetricValue:
    """Value where the PR curve crosses precision == recall.

    Located by linear interpolation between the two bracketing points; with
    multiple crossings the first along increasing recall wins.
    """
    recall = curve.recall
    previous = None  # the gap at point i - 1, nonzero
    for i, gap in enumerate(map(sub, curve.precision, recall)):
        if previous is not None and (previous > 0) != (gap > 0):
            s = previous / (previous - gap)
            value = recall[i - 1] + s * (recall[i] - recall[i - 1])
            return MetricValue.defined("BREAK_EVEN", value)
        if gap == 0:
            return MetricValue.defined("BREAK_EVEN", recall[i])
        previous = gap
    return MetricValue.undefined("BREAK_EVEN", "no_crossing")


def lift(data: ScoredBinarySet, fraction: float) -> MetricValue:
    """Positive concentration in the top-scored fraction relative to the fraction.

    The cut keeps the top ceil(fraction*n) scores, at least one, with the
    requested fraction snapped to an exact rational so decimal fractions like
    0.2 cut where expected; ties at the cut are broken by stable input order
    and flagged.
    """
    from fractions import Fraction  # only lift needs it; keep it off the import path

    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise UsageError(f"fraction must lie in (0, 1], got {fraction!r}")
    positives = data.positive_count
    if positives == 0:
        raise DefinednessError("lift needs at least one positive label")
    n = len(data)
    # a fraction below 5e-10 snaps to 0, but the cut is the ceiling of a positive number
    cut = max(1, math.ceil(Fraction(fraction).limit_denominator(10 ** 9) * n))
    ranking = data.ranking
    flags = ()
    if cut < n and ranking.scores[cut - 1] == ranking.scores[cut]:
        flags = ("tie_at_cut",)
    value = ranking.cum_positives[cut] / positives / fraction
    if not math.isfinite(value):
        # a subnormal fraction: the share over it leaves the float range
        return MetricValue.undefined("LIFT", "overflow")
    return MetricValue.defined("LIFT", value, flags=flags)


def calibration_error(data: ScoredBinarySet) -> CalibrationReport:
    """Sliding-window calibration error over score-sorted cases.

    Cases are sorted ascending by score (ties keep input order); every
    contiguous window of 100 contributes |observed positive frequency - mean
    predicted score|, and CAL is the mean of the window errors.
    """
    n = len(data)
    if n < CAL_WINDOW_SIZE:
        raise DataError(
            f"calibration needs at least {CAL_WINDOW_SIZE} cases, got {n}")
    _check_probabilities(data.scores)
    ranking = data.ranking
    cum = ranking.cum_positives
    # The ascending order is the ranking's groups in reverse, each group in input
    # order; hits[p] counts the positives among its first p cases. The reversed
    # ranking differs from it only inside groups, whose scores are equal, so its
    # windows have the same score sums.
    ends = ranking.ends
    hits = []
    for first, end in zip(reversed((0, *ends[:-1])), reversed(ends)):
        # positives ranked below the group, then those ahead of each member in it
        hits.extend(map(add, cum[first:end], repeat(cum[n] - cum[end] - cum[first])))
    hits.append(cum[n])
    scores = ranking.scores[::-1]
    errors = [abs((hits[start + CAL_WINDOW_SIZE] - hits[start]) / CAL_WINDOW_SIZE -
                  fsum(scores[start:start + CAL_WINDOW_SIZE]) / CAL_WINDOW_SIZE)
              for start in range(n - CAL_WINDOW_SIZE + 1)]
    return CalibrationReport(tuple(errors), fsum(errors) / len(errors))


class CurveContext:
    """A scored set, its sweep of one kind (``roc`` or ``pr``) and the options
    of the metrics on it. The sweep and the calibration report are computed on
    first use and kept."""

    def __init__(self, data: ScoredBinarySet, kind: str,
                 lift_fraction: float | None = None, cal: bool = False):
        self.data, self.kind, self.lift_fraction, self.cal = data, kind, lift_fraction, cal

    @cached_property
    def curve(self) -> RocCurve | PrCurve:
        return roc_curve(self.data) if self.kind == "roc" else pr_curve(self.data)

    @cached_property
    def calibration(self) -> CalibrationReport:
        return calibration_error(self.data)

    @property
    def ids(self) -> list[str]:
        """The kind's own metrics, then LIFT and CAL when their options ask for them."""
        ids = ["AUC"] if self.kind == "roc" else ["AP", "BREAK_EVEN"]
        if self.lift_fraction is not None:
            ids.append("LIFT")
        if self.cal:
            ids.append("CAL")
        return ids


METRICS = {m.id: m for m in (
    Metric("AUC", lambda c: auc(c.curve),
           "AUC = trapezoidal area under the ROC curve "
           "[equals pairwise ranking probability, ties counted 1/2]"),
    Metric("AP", lambda c: curve_average_precision(c.curve),
           "AP = sum((recall_n - recall_{n-1}) * precision_n), recall_0 = 0"),
    Metric("BREAK_EVEN", lambda c: break_even_point(c.curve),
           "BREAK_EVEN = interpolated value where precision == recall "
           "(first crossing along increasing recall)"),
    Metric("LIFT", lambda c: lift(c.data, c.lift_fraction),
           lambda c: "LIFT = (share of all positives in the top ceil(fraction*n) scores) "
                     f"/ fraction [fraction = {c.lift_fraction:g}]"),
    Metric("CAL", lambda c: MetricValue.defined("CAL", c.calibration.cal),
           lambda c: f"CAL = mean over sliding windows of {CAL_WINDOW_SIZE} score-sorted "
                     "cases of |positive frequency - mean score| "
                     f"[{len(c.calibration.window_errors)} windows]"),
)}
