"""Confusion-matrix, probabilistic, margin, and distance metrics for classifiers.

Zero-denominator policy: every rate returns an undefined status rather than
0, infinity, or NaN, and composite metrics propagate undefinedness. Reasons
used here:

  zero_denominator       a rate or distance denominator is zero
  undefined_component    a constituent rate of a composite is undefined
  zero_precision_recall  precision and recall are both zero under F-beta
  degenerate_marginals   chance agreement p_e == 1 under Cohen's kappa

Log-style losses floor every logarithm argument at ``CLAMP_EPSILON`` so a
zero probability costs -log(1e-15) instead of blowing up, while an exact 1
still costs exactly 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from math import fsum
from operator import add, sub, truediv

from ._stats import sum_sq
from .dataset import (NEGATIVE, POSITIVE, ConfusionMatrix2, ConfusionMatrixK, Metric,
                      MetricValue, PairedSeries, ScoredBinarySet, _check_probabilities,
                      _Frozen, _real, _real_column, _repr)
from .errors import DataError, UsageError

CLAMP_EPSILON = 1e-15


class RateSet(namedtuple("RateSet", "tpr tnr ppv npv fpr fnr fdr for_rate")):
    """The eight confusion-matrix rates, each a MetricValue; complements pair
    up where defined."""

    __slots__ = ()


def _rate(metric_id: str, numerator: float, denominator: float) -> MetricValue:
    if denominator == 0:
        return MetricValue.undefined(metric_id, "zero_denominator")
    return MetricValue.defined(metric_id, numerator / denominator)


def rates(matrix: ConfusionMatrix2) -> RateSet:
    """All eight basic rates of a 2-class confusion matrix."""
    tp, fp, fn, tn = matrix.tp, matrix.fp, matrix.fn, matrix.tn
    return RateSet(
        tpr=_rate("TPR", tp, tp + fn),
        tnr=_rate("TNR", tn, tn + fp),
        ppv=_rate("PPV", tp, tp + fp),
        npv=_rate("NPV", tn, tn + fn),
        fpr=_rate("FPR", fp, fp + tn),
        fnr=_rate("FNR", fn, fn + tp),
        fdr=_rate("FDR", fp, fp + tp),
        for_rate=_rate("FOR", fn, fn + tn),
    )


def likelihood_ratios(matrix: ConfusionMatrix2):
    """Positive/negative likelihood ratios and the diagnostic odds ratio."""
    return _likelihood_ratios(rates(matrix))


# These helpers take the RateSet that a ThresholdContext computes once for
# every entry that reads a rate; the public functions take the matrix.
def _likelihood_ratios(r: RateSet):
    def ratio(metric_id, num, den):
        if not (num.is_defined and den.is_defined):
            return MetricValue.undefined(metric_id, "undefined_component")
        return _rate(metric_id, num.value, den.value)

    lr_plus = ratio("LR_PLUS", r.tpr, r.fpr)
    lr_minus = ratio("LR_MINUS", r.fnr, r.tnr)
    dor = ratio("DOR", lr_plus, lr_minus)
    return lr_plus, lr_minus, dor


def accuracy(matrix: ConfusionMatrix2) -> MetricValue:
    return MetricValue.defined("ACC", (matrix.tp + matrix.tn) / matrix.total)


def f_beta(matrix: ConfusionMatrix2, beta: float) -> MetricValue:
    """Weighted harmonic mean of precision and recall.

    Evaluated from the counts, (1+b^2)TP / ((1+b^2)TP + b^2 FN + FP), which
    extends the rate form to matrices where exactly one of precision/recall
    is undefined. Precision and recall both undefined, or both zero, yields
    an undefined result. Where that form overflows in floats (a count past a
    double, or a huge beta), the exact count form is rounded once.
    """
    beta = _real(beta, "beta")
    if not beta > 0:
        raise UsageError(f"beta must be positive, got {beta!r}")
    metric_id = f"F{beta:g}"
    tp, fp, fn = matrix.tp, matrix.fp, matrix.fn
    if tp + fp == 0 and tp + fn == 0:
        return MetricValue.undefined(metric_id, "undefined_component")
    if tp == 0 and fp > 0 and fn > 0:
        return MetricValue.undefined(metric_id, "zero_precision_recall")
    if tp == 0:  # one of FP and FN is 0, the other not: F is 0 whatever b is
        return MetricValue.defined(metric_id, 0.0)
    b2 = beta * beta
    try:
        weighted_tp = (1.0 + b2) * float(tp)
        denominator = weighted_tp + b2 * float(fn) + float(fp)
    except OverflowError:  # a count past a double
        denominator = math.inf
    if math.isfinite(denominator):
        return MetricValue.defined(metric_id, weighted_tp / denominator)
    # the float form failed: the exact count form, rounded once
    from fractions import Fraction  # only such counts and betas need it; not on the import path
    b2 = Fraction(beta) ** 2
    return MetricValue.defined(metric_id, float((1 + b2) * tp / ((1 + b2) * tp + b2 * fn + fp)))


def mcc(matrix: ConfusionMatrix2) -> MetricValue:
    tp, fp, fn, tn = matrix.tp, matrix.fp, matrix.fn, matrix.tn
    product = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if product == 0:
        return MetricValue.undefined("MCC", "zero_denominator")
    numerator = tp * tn - fp * fn
    try:
        value = numerator / math.sqrt(product)
    except OverflowError:  # a product past a double: divide exact ints, numerator^2 <= product
        value = math.sqrt(numerator * numerator / product)
        value = -value if numerator < 0 else value
    return MetricValue.defined("MCC", max(-1.0, min(1.0, value)))


def _combine(metric_id, first, second, combine):
    if not (first.is_defined and second.is_defined):
        return MetricValue.undefined(metric_id, "undefined_component")
    return MetricValue.defined(metric_id, combine(first.value, second.value))


def informedness_markedness(matrix: ConfusionMatrix2):
    """Bookmaker informedness (Youden's J) and markedness."""
    return _informedness_markedness(rates(matrix))


def _informedness_markedness(r: RateSet):
    bm = _combine("BM", r.tpr, r.tnr, lambda x, y: x + y - 1.0)
    mk = _combine("MK", r.ppv, r.npv, lambda x, y: x + y - 1.0)
    return bm, mk


def average_class_accuracy(matrix: ConfusionMatrix2, w: float) -> MetricValue:
    """Recall of the two classes weighted by w; w = 0.5 is balanced accuracy.

    By caller convention the positive class is the minority class, so w > 0.5
    makes the minority class contribute more.
    """
    return _average_class_accuracy(rates(matrix), w)


def _average_class_accuracy(r: RateSet, w: float) -> MetricValue:
    w = _real(w, "weight")
    if not 0.0 < w < 1.0:
        raise UsageError(f"weight must lie strictly between 0 and 1, got {w!r}")
    return _combine("ACA", r.tpr, r.tnr, lambda x, y: w * x + (1.0 - w) * y)


def balanced_accuracy(matrix: ConfusionMatrixK) -> MetricValue:
    """Mean per-class recall; classes with no actual observations are excluded."""
    recalls = []
    excluded = 0
    for i, row in enumerate(matrix.counts):
        row_total = sum(row)
        if row_total == 0:
            excluded += 1
        else:
            recalls.append(row[i] / row_total)
    flags = ("empty_classes_excluded",) if excluded else ()
    return MetricValue.defined("BACC", fsum(recalls) / len(recalls),
                               dropped_terms=excluded, flags=flags)


def cohen_kappa(matrix: ConfusionMatrixK) -> MetricValue:
    """Agreement beyond chance between the actual and predicted labelings."""
    total = matrix.total
    pe_numerator = sum(r * c for r, c in zip(matrix.row_totals(), matrix.col_totals()))
    total_sq = total * total
    if pe_numerator == total_sq:
        return MetricValue.undefined("KAPPA", "degenerate_marginals")
    p_o = matrix.diagonal_total() / total
    p_e = pe_numerator / total_sq
    return MetricValue.defined("KAPPA", (p_o - p_e) / (1.0 - p_e))


def hamming_loss(actual, predicted) -> MetricValue:
    """Fraction of positions where the predicted label differs from the actual."""
    actual = list(actual)
    predicted = list(predicted)
    if len(actual) != len(predicted):
        raise DataError(f"{len(actual)} actual labels but {len(predicted)} predicted")
    if not actual:
        raise DataError("no observations")
    mismatches = sum(1 for a, p in zip(actual, predicted) if a != p)
    return MetricValue.defined("HAMMING", mismatches / len(actual))


class ProbabilityMatrix(_Frozen):
    """Per-observation probability vectors over K classes plus the true class."""

    rows: tuple[tuple[float, ...], ...]
    true_class: tuple[int, ...]

    def __init__(self, rows, true_class):
        rows = tuple(tuple(_real_column(row, f"rows[{i}]")) for i, row in enumerate(rows))
        true_class = tuple(true_class)
        if len(rows) != len(true_class):
            raise DataError(f"{len(rows)} probability rows but {len(true_class)} true classes")
        if not rows:
            raise DataError("no observations")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise DataError(f"row {i} has {len(row)} entries, expected {width}")
            if any(not 0.0 <= v <= 1.0 for v in row):
                raise DataError(f"row {i} has probabilities outside [0, 1]")
            if abs(fsum(row) - 1.0) > 1e-9:
                raise DataError(f"row {i} does not sum to 1 within 1e-9")
        for i, c in enumerate(true_class):
            # a scored set's bool labels are int classes (False is 0, True is 1); 0.9 is none
            if not isinstance(c, int) or not 0 <= c < width:
                raise DataError(f"true_class[{i}] = {_repr(c)} is not an integer in 0..{width - 1}")
        self._set(rows, tuple(map(int, true_class)))

    def __len__(self) -> int:
        return len(self.rows)


def _clamped_log(x: float) -> float:
    return math.log(x if x > CLAMP_EPSILON else CLAMP_EPSILON)


def log_loss(probs: ProbabilityMatrix) -> MetricValue:
    """Mean negative log probability assigned to the true class.

    Exactly zero iff every true-class probability is 1; a zero probability
    contributes -log(1e-15) per the clamp.
    """
    terms = [-_clamped_log(row[c]) for row, c in zip(probs.rows, probs.true_class)]
    return MetricValue.defined("LOG_LOSS", fsum(terms) / len(terms))


def mean_cross_entropy(data: ScoredBinarySet) -> MetricValue:
    """Binary cross entropy of scores interpreted as positive-class probabilities.

    Coincides with log_loss on the equivalent two-column probability matrix.
    """
    _check_probabilities(data.scores)
    terms = (-_clamped_log(s) if is_pos else -_clamped_log(1.0 - s)
             for is_pos, s in zip(data.labels, data.scores))
    return MetricValue.defined("MXE", fsum(terms) / len(data))


def brier_score(data: ScoredBinarySet) -> MetricValue:
    """Mean squared gap between forecast probability and the 0/1 outcome."""
    _check_probabilities(data.scores)
    return MetricValue.defined("BRIER", sum_sq(map(sub, data.scores, data.labels)) / len(data))


def hinge_loss(data: ScoredBinarySet) -> MetricValue:
    """Mean hinge penalty max(0, 1 - q*y) with q = +1/-1 and y the raw score."""
    terms = (max(0.0, 1.0 - (1.0 if is_pos else -1.0) * s)
             for is_pos, s in zip(data.labels, data.scores))
    return MetricValue.defined("HINGE", fsum(terms) / len(data))


def _distance(metric_id: str, data: PairedSeries, denominators) -> MetricValue:
    """sum(|A_i - P_i| / d_i); undefined when a d_i is zero.

    Only ``data.actual`` and ``data.predicted`` are read, so any pair of
    equal-length real columns will do, a tuple of bools included.

    ``denominators`` makes a fresh iterator of the d_i on each call, so no
    list of them is held. One pass divides and sums; a zero d_i stops it.
    """
    gaps = map(abs, map(sub, data.actual, data.predicted))
    try:
        total = fsum(map(truediv, gaps, denominators()))
    except ZeroDivisionError:  # x / 0.0 raises for every x, 0.0 included
        return MetricValue.undefined(metric_id, "zero_denominator")
    except OverflowError:
        # the sum overflowed before the pass reached a zero d_i, which decides
        if 0.0 in denominators():
            return MetricValue.undefined(metric_id, "zero_denominator")
        raise
    negative = min(data.actual) < 0 or min(data.predicted) < 0
    return MetricValue.defined(metric_id, total, flags=("negative_inputs",) if negative else ())


def canberra(data: PairedSeries) -> MetricValue:
    """Canberra distance between the actual and predicted vectors (a sum)."""
    return _distance("CM", data, lambda: map(add, map(abs, data.actual),
                                             map(abs, data.predicted)))


def wave_hedges(data: PairedSeries) -> MetricValue:
    """Wave Hedges distance; each gap is normalized by the pairwise maximum."""
    return _distance("WHD", data, lambda: map(max, data.actual, data.predicted))


def probability_matrix_from_scores(data: ScoredBinarySet) -> ProbabilityMatrix:
    """Two-column probability matrix [1-s, s] with the positive class as column 1."""
    _check_probabilities(data.scores)
    rows = tuple((1.0 - s, s) for s in data.scores)
    return ProbabilityMatrix(rows, data.labels)


# ---------------------------------------------------------------------------
# Catalog of metrics on a scored set cut at a threshold


class ThresholdContext:
    """A scored set, its confusion matrix at a threshold, and what metrics share.

    Each shared quantity is computed on first use and kept. ``matrix`` must be
    ``confusion_from_scores(data, threshold)``, the one place the cut is made;
    callers that also report the counts build it once and pass it in.
    """

    def __init__(self, data: ScoredBinarySet, matrix: ConfusionMatrix2,
                 aca_weight: float = 0.5):
        self.data = data
        self.matrix = matrix
        self.aca_weight = aca_weight

    @cached_property
    def rates(self) -> RateSet:
        return rates(self.matrix)

    @cached_property
    def likelihood(self):
        return _likelihood_ratios(self.rates)

    @cached_property
    def kmatrix(self) -> ConfusionMatrixK:
        m = self.matrix
        return ConfusionMatrixK((NEGATIVE, POSITIVE), ((m.tn, m.fp), (m.fn, m.tp)))

    @cached_property
    def cross_entropy(self) -> MetricValue:
        # Log loss on the two-column matrix [1 - s, s] sums exactly these
        # terms, so LOG_LOSS shares MXE's value without building the matrix.
        return mean_cross_entropy(self.data)


# The tally itself, reported ahead of the requested metrics.
COUNTS = {name: Metric(name, lambda c, count=name.lower(): getattr(c.matrix, count), "")
          for name in ("TP", "FP", "FN", "TN")}

_F_BETA_NOTE = "F_beta = (1 + b^2)*TP / ((1 + b^2)*TP + b^2*FN + FP)"
_ON_INDICATORS = " [on (indicator label, score) pairs]"

# CM and WHD read the scored set's own columns, no copy: a bool label is the
# 0/1 indicator, and True - s, abs(True) + abs(s) and max(False, s) round as
# 1.0 - s, 1.0 + abs(s) and max(0.0, s) do (a False maximum divides by zero).
_Indicators = namedtuple("_Indicators", "actual predicted")

METRICS = {m.id: m for m in (
    Metric("TPR", lambda c: c.rates.tpr, "TPR = TP / (TP + FN)"),
    Metric("TNR", lambda c: c.rates.tnr, "TNR = TN / (TN + FP)"),
    Metric("PPV", lambda c: c.rates.ppv, "PPV = TP / (TP + FP)"),
    Metric("NPV", lambda c: c.rates.npv, "NPV = TN / (TN + FN)"),
    Metric("FPR", lambda c: c.rates.fpr, "FPR = FP / (FP + TN)"),
    Metric("FNR", lambda c: c.rates.fnr, "FNR = FN / (FN + TP)"),
    Metric("FDR", lambda c: c.rates.fdr, "FDR = FP / (FP + TP)"),
    Metric("FOR", lambda c: c.rates.for_rate, "FOR = FN / (FN + TN)  [complement of NPV]"),
    Metric("LR_PLUS", lambda c: c.likelihood[0], "LR+ = TPR / FPR"),
    Metric("LR_MINUS", lambda c: c.likelihood[1], "LR- = FNR / TNR"),
    Metric("DOR", lambda c: c.likelihood[2], "DOR = LR+ / LR-  [= (TP*TN)/(FP*FN)]"),
    Metric("ACC", lambda c: accuracy(c.matrix), "ACC = (TP + TN) / (TP + TN + FP + FN)"),
    Metric("F1", lambda c: f_beta(c.matrix, 1.0), _F_BETA_NOTE),
    Metric("F2", lambda c: f_beta(c.matrix, 2.0), _F_BETA_NOTE),
    Metric("MCC", lambda c: mcc(c.matrix),
           "MCC = (TP*TN - FP*FN) / sqrt((TP+FP)(TP+FN)(TN+FP)(TN+FN))  "
           "[four-factor denominator]"),
    Metric("BM", lambda c: _informedness_markedness(c.rates)[0], "BM = TPR + TNR - 1"),
    Metric("MK", lambda c: _informedness_markedness(c.rates)[1], "MK = PPV + NPV - 1"),
    Metric("ACA", lambda c: _average_class_accuracy(c.rates, c.aca_weight),
           lambda c: "ACA = w*TPR + (1 - w)*TNR  [weighted per-class recall] "
                     f"[w = {c.aca_weight:g}]"),
    Metric("BACC", lambda c: balanced_accuracy(c.kmatrix),
           "BACC = mean of per-class recall (empty classes excluded)"),
    Metric("KAPPA", lambda c: cohen_kappa(c.kmatrix), "kappa = (p_o - p_e) / (1 - p_e)"),
    Metric("HAMMING", lambda c: _rate("HAMMING", c.matrix.fp + c.matrix.fn, c.matrix.total),
           "HAMMING = fraction of positions where actual != predicted"),
    Metric("LOG_LOSS", lambda c: MetricValue.defined("LOG_LOSS", c.cross_entropy.value),
           f"LOG_LOSS = -mean(log p[true class]); log arguments floored at {CLAMP_EPSILON:g}"),
    Metric("BRIER", lambda c: brier_score(c.data), "BRIER = mean((s_i - y_i)^2), y in {0,1}"),
    Metric("MXE", lambda c: c.cross_entropy,
           f"MXE = -mean(y*log(s) + (1-y)*log(1-s)); log arguments floored at {CLAMP_EPSILON:g}"),
    Metric("HINGE", lambda c: hinge_loss(c.data), "HINGE = mean(max(0, 1 - q*y)), q = +/-1"),
    Metric("CM", lambda c: canberra(_Indicators(c.data.labels, c.data.scores)),
           "CM = sum(|A_i - P_i| / (|A_i| + |P_i|))" + _ON_INDICATORS),
    Metric("WHD", lambda c: wave_hedges(_Indicators(c.data.labels, c.data.scores)),
           "WHD = sum(|A_i - P_i| / max(A_i, P_i))  [non-negative inputs assumed]"
           + _ON_INDICATORS),
)}

