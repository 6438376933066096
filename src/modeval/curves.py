"""Ranking and threshold-sweep metrics: ROC/AUC, PR/AP, break-even, lift, CAL.

Tie handling: equal scores collapse into a single curve vertex (a diagonal
ROC step), which makes the trapezoidal AUC equal the pairwise ranking
probability with ties counted as one half. That equivalence is this module's
core oracle test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import NamedTuple

from .dataset import MetricValue, ScoredBinarySet, _check_probabilities
from .errors import DataError, DefinednessError, UsageError

CAL_WINDOW_SIZE = 100

FORMULA_NOTES = {
    "AUC": "AUC = trapezoidal area under the ROC curve "
           "[equals pairwise ranking probability, ties counted 1/2]",
    "AP": "AP = sum((recall_n - recall_{n-1}) * precision_n), recall_0 = 0",
    "BREAK_EVEN": "BREAK_EVEN = interpolated value where precision == recall "
                  "(first crossing along increasing recall)",
    "LIFT": "LIFT = (share of all positives in the top ceil(fraction*n) scores) "
            "/ fraction",
    "CAL": "CAL = mean over sliding windows of 100 score-sorted cases of "
           "|positive frequency - mean score|",
}


class RocPoint(NamedTuple):
    fpr: float
    tpr: float
    threshold: float


class PrPoint(NamedTuple):
    recall: float
    precision: float
    threshold: float


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep from (0,0) to (1,1); one vertex per distinct score."""

    points: tuple[RocPoint, ...]


@dataclass(frozen=True)
class PrCurve:
    """Threshold sweep over distinct scores; recall reaches 1 at the last point."""

    points: tuple[PrPoint, ...]


@dataclass(frozen=True)
class CalibrationReport:
    """Per-window calibration errors and their mean."""

    window_errors: tuple[float, ...]
    cal: float
    window_size: int = CAL_WINDOW_SIZE


def _sweep_groups(data: ScoredBinarySet):
    """Cumulative (tp, fp, score) after each distinct score, descending."""
    ranked = sorted(zip(data.scores, data.flags), key=lambda t: -t[0])
    groups = []
    tp = fp = 0
    i = 0
    while i < len(ranked):
        score = ranked[i][0]
        while i < len(ranked) and ranked[i][0] == score:
            if ranked[i][1]:
                tp += 1
            else:
                fp += 1
            i += 1
        groups.append((tp, fp, score))
    return groups


def roc_curve(data: ScoredBinarySet) -> RocCurve:
    """ROC sweep; ties move diagonally in one step, endpoints always present."""
    positives = data.positive_count
    negatives = data.negative_count
    if positives == 0 or negatives == 0:
        raise DefinednessError(
            "ROC needs at least one positive and one negative label")
    points = [RocPoint(0.0, 0.0, math.inf)]
    for tp, fp, score in _sweep_groups(data):
        points.append(RocPoint(fp / negatives, tp / positives, score))
    return RocCurve(tuple(points))


def auc(curve: RocCurve) -> MetricValue:
    """Trapezoidal area under a ROC curve."""
    pts = curve.points
    terms = (0.5 * (pts[i + 1].fpr - pts[i].fpr) * (pts[i + 1].tpr + pts[i].tpr)
             for i in range(len(pts) - 1))
    return MetricValue.defined("AUC", fsum(terms))


def pr_curve(data: ScoredBinarySet) -> PrCurve:
    """Precision-recall sweep over distinct scores, descending.

    The first point carries the precision at the highest threshold; no
    extrapolated recall-0 point is added.
    """
    positives = data.positive_count
    if positives == 0:
        raise DefinednessError("a PR curve needs at least one positive label")
    points = []
    for tp, fp, score in _sweep_groups(data):
        points.append(PrPoint(tp / positives, tp / (tp + fp), score))
    return PrCurve(tuple(points))


def average_precision(data: ScoredBinarySet) -> MetricValue:
    """Precision weighted by recall increments over the PR sweep."""
    return curve_average_precision(pr_curve(data))


def curve_average_precision(curve: PrCurve) -> MetricValue:
    """AP of an already swept PR curve, so a caller holding one sorts once."""
    pts = curve.points
    previous_recall = 0.0
    terms = []
    for pt in pts:
        terms.append((pt.recall - previous_recall) * pt.precision)
        previous_recall = pt.recall
    return MetricValue.defined("AP", fsum(terms))


def break_even_point(curve: PrCurve) -> MetricValue:
    """Value where the PR curve crosses precision == recall.

    Located by linear interpolation between the two bracketing points; with
    multiple crossings the first along increasing recall wins.
    """
    pts = curve.points
    gaps = [pt.precision - pt.recall for pt in pts]
    for i, pt in enumerate(pts):
        if gaps[i] == 0:
            return MetricValue.defined("BREAK_EVEN", pt.recall)
        if i + 1 < len(pts) and (gaps[i] > 0) != (gaps[i + 1] > 0):
            s = gaps[i] / (gaps[i] - gaps[i + 1])
            value = pts[i].recall + s * (pts[i + 1].recall - pts[i].recall)
            return MetricValue.defined("BREAK_EVEN", value)
    return MetricValue.undefined("BREAK_EVEN", "no_crossing")


def lift(data: ScoredBinarySet, fraction: float) -> MetricValue:
    """Positive concentration in the top-scored fraction relative to the fraction.

    The cut keeps the top ceil(fraction*n) scores, with the requested fraction
    snapped to an exact rational so decimal fractions like 0.2 cut where
    expected; ties at the cut are broken by stable input order and flagged.
    """
    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise UsageError(f"fraction must lie in (0, 1], got {fraction!r}")
    positives = data.positive_count
    if positives == 0:
        raise DefinednessError("lift needs at least one positive label")
    n = len(data)
    cut = math.ceil(Fraction(fraction).limit_denominator(10 ** 9) * n)
    order = sorted(range(n), key=lambda i: -data.scores[i])
    top = order[:cut]
    flags = ()
    if cut < n and data.scores[order[cut - 1]] == data.scores[order[cut]]:
        flags = ("tie_at_cut",)
    share = sum(1 for i in top if data.flags[i]) / positives
    return MetricValue.defined("LIFT", share / fraction, flags=flags)


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
    order = sorted(range(n), key=lambda i: data.scores[i])
    scores = [data.scores[i] for i in order]
    hits = [1 if data.flags[i] else 0 for i in order]
    errors = []
    for start in range(n - CAL_WINDOW_SIZE + 1):
        stop = start + CAL_WINDOW_SIZE
        frequency = sum(hits[start:stop]) / CAL_WINDOW_SIZE
        mean_score = fsum(scores[start:stop]) / CAL_WINDOW_SIZE
        errors.append(abs(frequency - mean_score))
    return CalibrationReport(tuple(errors), fsum(errors) / len(errors))
