"""Independent checks of modeval's outputs, run outside the timed region.

The ``*_expected`` functions compute, from the generated values, what a
report must hold: ``{metric id: (value, exact)}``. ``check`` compares a CLI
call's stdout with such a dict. The formulas here are written from the
metric definitions, not taken from modeval.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from itertools import groupby
from math import fsum

TOLERANCE = 1e-12


def _close(got, want) -> bool:
    return got is not None and abs(got - want) <= TOLERANCE * max(1.0, abs(want))


def check(expected: dict, stdout: bytes) -> list:
    """Problems with a report; ids the report does not hold are skipped."""
    try:
        values = {entry["id"]: entry["value"] for entry in json.loads(stdout)["metrics"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not valid JSON with a metrics list: {exc}"]
    problems = []
    for metric_id, (want, exact) in expected.items():
        if metric_id not in values:
            continue
        got = values[metric_id]
        if not (got == want if exact else _close(got, want)):
            problems.append(f"{metric_id} = {got!r}, oracle says {want!r}")
    return problems


def regression_expected(actual, predicted) -> dict:
    """MAE, RMSE and R2 by ``math.fsum``."""
    n = len(actual)
    errors = [a - p for a, p in zip(actual, predicted)]
    sse = fsum(e * e for e in errors)
    a_mean = fsum(actual) / n
    s_aa = fsum((a - a_mean) ** 2 for a in actual)
    return {"MAE": (fsum(abs(e) for e in errors) / n, False),
            "RMSE": (math.sqrt(sse / n), False),
            "R2": (1.0 - sse / s_aa, False)}


def confusion_expected(flags, scores, threshold: float = 0.5) -> dict:
    """TP/FP/FN/TN tallied here; a score equal to the threshold predicts positive."""
    tp = fp = fn = tn = 0
    for positive, score in zip(flags, scores):
        predicted = score >= threshold
        tp += positive and predicted
        fp += predicted and not positive
        fn += positive and not predicted
        tn += not positive and not predicted
    return {"TP": (tp, True), "FP": (fp, True), "FN": (fn, True), "TN": (tn, True)}


def rank_sum_auc(flags, scores) -> float:
    """Pairwise ranking probability with ties counted one half, in integers."""
    twice_u = negatives_below = 0
    pairs = sorted(zip(scores, flags))
    for _, group in groupby(pairs, key=lambda pair: pair[0]):
        group = [positive for _, positive in group]
        pos = sum(group)
        neg = len(group) - pos
        twice_u += pos * (2 * negatives_below + neg)
        negatives_below += neg
    positives = sum(flags)
    return twice_u / (2 * positives * (len(flags) - positives))


def wmw_value(minority, majority) -> float:
    """WMW from one sort and a bisection per non-negative minority output."""
    ranked = sorted(majority)
    count = sum(bisect_left(ranked, p) for p in minority if p >= 0)
    return count / (len(minority) * len(majority))
