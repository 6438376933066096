"""Exact metamorphic relations: how each metric must move when its input moves.

IEEE 754 rounds every sum, product, quotient and square root correctly, and
``math.fsum`` rounds its exact total once, so scaling every input by a power
of two scales each of them exactly, as long as no value leaves the normal
range (Goldberg, "What Every Computer Scientist Should Know About
Floating-Point Arithmetic", ACM Computing Surveys 23(1), 1991). The values
drawn here have at most six decimals and magnitudes up to 1e3, and ``k`` stays
within 60, far from both ends of that range, so the relations hold bit for
bit. A square taken as ``pow(x, 2)`` breaks them where it misrounds.

The classification and curve ids obey relations of order and of labels:
``fsum`` is exact and order-free and the counts are ints, so a row
permutation keeps every threshold id's bits, and one that keeps tied rows in
their order keeps every curve id's bits. Flipping every label swaps the
tally's cells, and with them pairs of rates. Halving the scores keeps their
order and their ties, and so every curve id but CAL, which reads the scores
themselves. The gp_fitness scores WMW, FFC and FFD keep their bits when the
outputs are scaled by a power of two.
"""

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modeval import classification, curves
from modeval.classification import ThresholdContext
from modeval.curves import CurveContext
from modeval.dataset import MetricValue, PairedSeries, ScoredBinarySet, confusion_from_scores
from modeval.errors import DefinednessError, MetricsError
from modeval.gp_fitness import ClassOutputs, ffc, ffd, wmw
from modeval.regression import METRIC_IDS, regression_report
from modeval.validation import tropsha_criteria

# A geometric mean goes through log and exp: exp turns the last-place error of
# a mean log of magnitude up to about 60 into a relative error below 1e-13.
GEO_REL = 1e-13

# How each regression id moves when A and P are scaled by 2**k: it is scaled
# by (2**k) ** power, bit for bit where the bound is 0, else within it.
SCALING = {
    "ME": (1, 0), "MNB": (0, 0), "MPE": (0, 0), "MAE": (1, 0), "MAPE": (0, 0),
    "RAE": (0, 0), "MARE": (0, 0), "MRAE": (0, 0), "GMAE": (1, GEO_REL), "FAE": (0, 0),
    "MSE": (2, 0), "RMSE": (1, 0), "SSE": (2, 0), "RSE": (0, 0), "RRSE": (0, 0),
    "GRMSE": (1, GEO_REL), "MSPE": (0, 0), "RMSPE": (0, 0), "NRMSE": (0, 0),
    "NRMSE_SD": (0, 0), "NMSE": (0, 0), "R2": (0, 0), "R": (0, 0), "MASE": (0, 0),
}

# six-decimal values in [-1e3, 1e3], zero included, and repeats so that
# constant series and zero actuals occur
_values = st.one_of(st.integers(-10**9, 10**9).map(lambda i: i / 1e6),
                    st.sampled_from([0.0, 1.0, -2.5]))
_series = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.lists(_values, min_size=n, max_size=n),
                        st.lists(_values, min_size=n, max_size=n)))


def _scaled(values, k):
    return [math.ldexp(v, k) for v in values]


def _tropsha(actual, predicted):
    # repr tells every two floats apart, -0.0 from 0.0 included
    try:
        return repr(tuple(tropsha_criteria(PairedSeries(actual, predicted))))
    except DefinednessError as exc:
        return str(exc)


def test_every_regression_id_states_its_scaling():
    assert list(SCALING) == list(METRIC_IDS)


# The two examples are series where pow(x, 2) misrounds a centred square at
# one scale and not at the other: the first moved RSE, RRSE, NMSE, R2, R and
# the Tropsha report, the second the Tropsha report alone.
@given(_series, st.booleans(), st.integers(-60, 60))
@example(([-339.0, -665.70054, 578.501, -429.73815], [-827.7, -969.5, 115.1, -438.0]),
         False, -8)
@example(([496.6, 308.4228, 84.6663], [613.87859, 765.0442, 423.47037]), False, 50)
def test_power_of_two_scaling(series, ordered, k):
    actual, predicted = series
    scaled_actual, scaled_predicted = _scaled(actual, k), _scaled(predicted, k)
    base = regression_report(PairedSeries(actual, predicted, ordered), METRIC_IDS)
    moved = regression_report(PairedSeries(scaled_actual, scaled_predicted, ordered),
                              METRIC_IDS)
    for metric_id, (power, bound) in SCALING.items():
        want, got = base[metric_id], moved[metric_id]
        assert ((got.status, got.reason, got.dropped_terms, got.flags)
                == (want.status, want.reason, want.dropped_terms, want.flags)), metric_id
        if want.value is None:
            continue
        expected = math.ldexp(want.value, power * k)
        if bound:
            assert got.value == pytest.approx(expected, rel=bound), metric_id
        else:
            assert got.value.hex() == expected.hex(), metric_id
    assert _tropsha(scaled_actual, scaled_predicted) == _tropsha(actual, predicted)


# The exact relations of the scored-set ids, by relation. An id of
# classification.COUNTS, classification.METRICS or curves.METRICS that no
# relation names fails test_every_scored_id_states_a_relation.
_FLIP_PAIRS = (("TP", "FP"), ("FN", "TN"), ("TPR", "FPR"), ("TNR", "FNR"), ("PPV", "FDR"),
               ("NPV", "FOR"), ("ACC", "HAMMING"))
# flipping every label gives each id its partner's value
FLIPPED = {**dict(_FLIP_PAIRS), **{b: a for a, b in _FLIP_PAIRS}}
# a row permutation keeps the bits
PERMUTED = ("TP", "FP", "FN", "TN", "TPR", "TNR", "PPV", "NPV", "FPR", "FNR", "FDR", "FOR",
            "LR_PLUS", "LR_MINUS", "DOR", "ACC", "F1", "F2", "MCC", "BM", "MK", "ACA", "BACC",
            "KAPPA", "HAMMING", "LOG_LOSS", "BRIER", "MXE", "HINGE", "CM", "WHD")
# halving every score keeps the bits
HALVED = ("AUC", "AP", "BREAK_EVEN", "LIFT")
# a row permutation that keeps tied rows in their order keeps the bits
TIES_KEPT = ("AUC", "AP", "BREAK_EVEN", "LIFT", "CAL")

SETS = 400


def test_every_scored_id_states_a_relation():
    stated = set(FLIPPED) | set(PERMUTED) | set(HALVED) | set(TIES_KEPT)
    for table in (classification.COUNTS, classification.METRICS, curves.METRICS):
        assert set(table) <= stated, sorted(set(table) - stated)


def _outcome(fn, ctx):
    """An entry's result without its id, as text that tells every two floats
    apart; a refusal is its type, since a message may name a row by index."""
    try:
        value = fn(ctx)
    except MetricsError as exc:
        return type(exc)
    if isinstance(value, MetricValue):
        value = (value.value, value.status, value.reason, value.dropped_terms, value.flags)
    return repr(value)


def _scored_sets(seed, max_rows):
    """Seeded scored sets: probabilities with many ties, zeros of both signs
    and the ends, and now and then a margin outside [0, 1] or a single class."""
    rng = random.Random(seed)
    for _ in range(SETS):
        n = rng.randint(1, max_rows)
        share = rng.choice((0.0, 0.1, 0.5, 0.9, 1.0))
        pool = [rng.choice((0.0, -0.0, 1.0, 0.5, round(rng.random(), 2), rng.random()))
                for _ in range(rng.randint(1, n))]
        if rng.random() < 0.1:
            pool.append(rng.uniform(-2.0, 2.0))
        labels = [rng.random() < share for _ in range(n)]
        yield rng, labels, [rng.choice(pool) for _ in range(n)]


def _threshold_outcomes(labels, scores, threshold):
    data = ScoredBinarySet(labels, scores)
    ctx = ThresholdContext(data, confusion_from_scores(data, threshold))
    table = {**classification.COUNTS, **classification.METRICS}
    return {metric_id: _outcome(m.fn, ctx) for metric_id, m in table.items()}


def test_label_flip_and_row_permutation():
    for rng, labels, scores in _scored_sets(41, 40):
        threshold = rng.choice((*scores, 0.5))
        base = _threshold_outcomes(labels, scores, threshold)
        flipped = _threshold_outcomes([not y for y in labels], scores, threshold)
        for metric_id, partner in FLIPPED.items():
            assert flipped[metric_id] == base[partner], metric_id
        rows = list(zip(labels, scores))
        rng.shuffle(rows)
        permuted = _threshold_outcomes(*zip(*rows), threshold)
        assert {i: permuted[i] for i in PERMUTED} == {i: base[i] for i in PERMUTED}


def _curve_outcomes(labels, scores, fraction, ids):
    data = ScoredBinarySet(labels, scores)
    roc, pr = (CurveContext(data, kind, fraction) for kind in ("roc", "pr"))
    return {metric_id: _outcome(curves.METRICS[metric_id].fn, roc if metric_id == "AUC" else pr)
            for metric_id in ids}


def _ties_kept_order(rng, scores):
    """A random row order in which rows of equal scores keep their order."""
    order = list(range(len(scores)))
    rng.shuffle(order)
    members = {}
    for i, s in enumerate(scores):  # -0.0 and 0.0 are one key, as they are one tie
        members.setdefault(s, []).append(i)
    queues = {s: iter(rows) for s, rows in members.items()}
    return [next(queues[scores[i]]) for i in order]


def test_halved_scores_and_tie_keeping_permutation():
    for rng, labels, scores in _scored_sets(43, 160):
        fraction = rng.choice((0.05, 0.1, 1 / 3, 0.5, 1.0))
        base = _curve_outcomes(labels, scores, fraction, curves.METRICS)
        halved = _curve_outcomes(labels, [s / 2 for s in scores], fraction, HALVED)
        assert halved == {i: base[i] for i in HALVED}
        order = _ties_kept_order(rng, scores)
        moved = _curve_outcomes([labels[i] for i in order], [scores[i] for i in order],
                                fraction, TIES_KEPT)
        assert moved == {i: base[i] for i in TIES_KEPT}


def test_gp_scores_keep_their_bits_under_power_of_two_scaling():
    rng = random.Random(47)
    for _ in range(2000):
        pool = [0.0, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)]
        sides = [[rng.choice(pool) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0)
                  for _ in range(rng.randint(1, 12))] for _ in "ab"]
        k = rng.randint(-300, 300)
        base = ClassOutputs(*sides)
        scaled = ClassOutputs(*([math.ldexp(v, k) for v in side] for side in sides))
        for fn in (wmw, ffc, ffd):
            assert repr(fn(scaled)) == repr(fn(base)), (fn.__name__, sides, k)
