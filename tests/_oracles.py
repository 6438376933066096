"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive (pair enumeration, Fraction
arithmetic) and shares no code with the implementations under test.
"""

import csv
import math
from fractions import Fraction

from modeval.dataset import MetricValue
from modeval.errors import DataError, EmptyInputError, SchemaError


def pairwise_auc(flags, scores) -> float:
    """Ranking probability over all positive/negative pairs, ties worth 1/2."""
    positives = [s for f, s in zip(flags, scores) if f]
    negatives = [s for f, s in zip(flags, scores) if not f]
    total = Fraction(0)
    for sp in positives:
        for sn in negatives:
            if sp > sn:
                total += 1
            elif sp == sn:
                total += Fraction(1, 2)
    return float(total / (len(positives) * len(negatives)))


def exact_mean(values) -> Fraction:
    values = [Fraction(v) for v in values]
    return sum(values, Fraction(0)) / len(values)


# Reference CSV loaders: the list-based loops the streaming loaders replaced.
# They return plain lists and raise the loaders' error types and messages.

def _reference_rows(text):
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        raise EmptyInputError("CSV has no header row")
    return rows[0], rows[1:]


def _reference_column(header, name):
    try:
        return header.index(name)
    except ValueError:
        raise SchemaError(f"column {name!r} not found in header {header}") from None


def _reference_cell(row, row_number, index, column) -> float:
    try:
        cell = row[index]
    except IndexError:
        raise DataError(f"row {row_number}: missing value in column {column!r}") from None
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"row {row_number}, column {column!r}: cannot parse {cell!r} as a number") from None
    if not math.isfinite(value):
        raise DataError(f"row {row_number}, column {column!r}: non-finite value {cell!r}")
    return value


def reference_paired_csv(text, actual_column, predicted_column, *,
                         drop_bad_rows=False, warnings=None):
    """(actual, predicted) lists as the list-based loader read them."""
    header, rows = _reference_rows(text)
    ai = _reference_column(header, actual_column)
    pi = _reference_column(header, predicted_column)
    actual, predicted, dropped = [], [], 0
    for number, row in enumerate(rows, start=1):
        try:
            a = _reference_cell(row, number, ai, actual_column)
            p = _reference_cell(row, number, pi, predicted_column)
        except DataError:
            if not drop_bad_rows:
                raise
            dropped += 1
            continue
        actual.append(a)
        predicted.append(p)
    if dropped and warnings is not None:
        warnings.append(f"dropped {dropped} row(s) with unusable cells")
    if not actual:
        raise EmptyInputError("no usable data rows")
    return actual, predicted


def reference_scored_csv(text, label_column, score_column, positive_label, *,
                         drop_bad_rows=False, warnings=None):
    """(flags, scores) lists as the list-based loader read them."""
    header, rows = _reference_rows(text)
    li = _reference_column(header, label_column)
    si = _reference_column(header, score_column)
    raw_labels, scores, dropped = [], [], 0
    for number, row in enumerate(rows, start=1):
        try:
            try:
                label = row[li]
            except IndexError:
                raise DataError(
                    f"row {number}: missing value in column {label_column!r}") from None
            score = _reference_cell(row, number, si, score_column)
        except DataError:
            if not drop_bad_rows:
                raise
            dropped += 1
            continue
        raw_labels.append(label)
        scores.append(score)
    if dropped and warnings is not None:
        warnings.append(f"dropped {dropped} row(s) with unusable cells")
    if not raw_labels:
        raise EmptyInputError("no usable data rows")
    distinct = sorted(set(raw_labels))
    if len(distinct) > 2:
        raise SchemaError(
            f"label column {label_column!r} has {len(distinct)} distinct values "
            f"{distinct}; at most two expected")
    if len(distinct) == 2 and positive_label not in distinct:
        raise SchemaError(
            f"positive label {positive_label!r} not among labels {distinct}")
    if len(distinct) == 1 and distinct[0] != positive_label and warnings is not None:
        warnings.append(
            f"single label {distinct[0]!r} differs from positive label "
            f"{positive_label!r}; all rows treated as negative")
    return [label == positive_label for label in raw_labels], scores


# Reference ranking metrics: the sort-per-call sweeps that the cached ranking
# replaced, on plain (flags, scores) lists. Curves are lists of
# (x, y, threshold) rows; callers check definedness themselves.

def _reference_sweep_groups(flags, scores):
    """Cumulative (tp, fp, score) after each distinct score, descending."""
    ranked = sorted(zip(scores, flags), key=lambda t: -t[0])
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


def reference_roc_points(flags, scores):
    positives = sum(flags)
    negatives = len(flags) - positives
    points = [(0.0, 0.0, math.inf)]
    for tp, fp, score in _reference_sweep_groups(flags, scores):
        points.append((fp / negatives, tp / positives, score))
    return points


def reference_auc(points) -> float:
    return math.fsum(0.5 * (points[i + 1][0] - points[i][0]) *
                     (points[i + 1][1] + points[i][1])
                     for i in range(len(points) - 1))


def reference_pr_points(flags, scores):
    positives = sum(flags)
    return [(tp / positives, tp / (tp + fp), score)
            for tp, fp, score in _reference_sweep_groups(flags, scores)]


def reference_average_precision(points) -> float:
    previous_recall = 0.0
    terms = []
    for recall, precision, _ in points:
        terms.append((recall - previous_recall) * precision)
        previous_recall = recall
    return math.fsum(terms)


def reference_break_even(points):
    """The first precision == recall crossing, or None when there is none."""
    gaps = [precision - recall for recall, precision, _ in points]
    for i, (recall, _, _) in enumerate(points):
        if gaps[i] == 0:
            return recall
        if i + 1 < len(points) and (gaps[i] > 0) != (gaps[i + 1] > 0):
            s = gaps[i] / (gaps[i] - gaps[i + 1])
            return recall + s * (points[i + 1][0] - recall)
    return None


def reference_lift(flags, scores, fraction):
    """(value, flags) of LIFT; the cut is clamped to at least one score."""
    n = len(flags)
    cut = max(1, math.ceil(Fraction(fraction).limit_denominator(10 ** 9) * n))
    order = sorted(range(n), key=lambda i: -scores[i])
    tie = cut < n and scores[order[cut - 1]] == scores[order[cut]]
    share = sum(1 for i in order[:cut] if flags[i]) / sum(flags)
    return share / fraction, ("tie_at_cut",) if tie else ()


def reference_cal_windows(flags, scores, window=100):
    """Per-window |positive frequency - mean score| over ascending scores."""
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranked = [scores[i] for i in order]
    hits = [1 if flags[i] else 0 for i in order]
    return [abs(sum(hits[start:start + window]) / window -
                math.fsum(ranked[start:start + window]) / window)
            for start in range(len(scores) - window + 1)]


# Reference vector distances: the per-term loops that the shared distance
# kernel replaced.

def _negative_input_flags(data):
    if any(v < 0 for v in data.actual) or any(v < 0 for v in data.predicted):
        return ("negative_inputs",)
    return ()


def reference_canberra(data):
    flags = _negative_input_flags(data)
    terms = []
    for a, p in zip(data.actual, data.predicted):
        denom = abs(a) + abs(p)
        if denom == 0:
            return MetricValue.undefined("CM", "zero_denominator")
        terms.append(abs(a - p) / denom)
    return MetricValue.defined("CM", math.fsum(terms), flags=flags)


def reference_wave_hedges(data):
    flags = _negative_input_flags(data)
    terms = []
    for a, p in zip(data.actual, data.predicted):
        denom = max(a, p)
        if denom == 0:
            return MetricValue.undefined("WHD", "zero_denominator")
        terms.append(abs(a - p) / denom)
    return MetricValue.defined("WHD", math.fsum(terms), flags=flags)


# Sums of squares as per-row generator expressions, each square as d * d:
# the same float operations in the same order as the library's pipelines, so
# the two must agree bit for bit and raise the same errors.

def generator_origin_sums(actual, predicted):
    """sum(A*P), sum(P^2) and sum(A^2), each correctly rounded."""
    return (math.fsum(a * p for a, p in zip(actual, predicted)),
            math.fsum(p * p for p in predicted),
            math.fsum(a * a for a in actual))


def generator_ro2(values, slope, centered_ss):
    """1 - sum((v - slope*v)^2) / centered_ss."""
    return 1.0 - math.fsum(d * d for d in (v - slope * v for v in values)) / centered_ss


def generator_brier(labels, scores) -> float:
    """mean((s - y)^2) with y = 1.0 for a positive label and 0.0 otherwise."""
    terms = (d * d for d in (s - (1.0 if y else 0.0) for y, s in zip(labels, scores)))
    return math.fsum(terms) / len(scores)


def generator_ffa(minority, majority) -> float:
    """The mean over both classes of 1 - sum((tanh(x/2) - target)^2) / (2 N)."""
    def class_score(outputs, target):
        gap = math.fsum(d * d for d in (math.tanh(0.5 * x) - target for x in outputs))
        return 1.0 - gap / (2.0 * len(outputs))
    return (class_score(minority, 0.5) + class_score(majority, -0.5)) / 2.0


def generator_ffc(minority, majority):
    """(sqrt(between-class SS / total SS) + bonus) / 2, or None where total SS is 0."""
    pooled = list(minority) + list(majority)
    pooled_mean = math.fsum(pooled) / len(pooled)
    total = math.fsum(d * d for d in (x - pooled_mean for x in pooled))
    if total == math.inf:
        raise OverflowError("sum of squared deviations out of range")
    if total == 0:
        return None
    means = [math.fsum(side) / len(side) for side in (minority, majority)]
    between = 0.0
    for side, mean in zip((minority, majority), means):
        between += len(side) * ((mean - pooled_mean) * (mean - pooled_mean))
    bonus = 1.0 if means[0] > 0 > means[1] else 0.0
    return (math.sqrt(between) / math.sqrt(total) + bonus) / 2.0
