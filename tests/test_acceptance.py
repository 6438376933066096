"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from _golden import FIXTURES, GOLDEN_RUNS
from _oracles import pairwise_auc
from modeval.classification import (accuracy, average_class_accuracy,
                                    balanced_accuracy, brier_score, cohen_kappa,
                                    f_beta, hamming_loss, informedness_markedness,
                                    likelihood_ratios, log_loss, mcc,
                                    mean_cross_entropy,
                                    probability_matrix_from_scores, rates)
from modeval.cli import main
from modeval.curves import auc, average_precision, lift, roc_curve
from modeval.dataset import (ConfusionMatrix2, ConfusionMatrixK, PairedSeries,
                             ScoredBinarySet, confusion_from_labels)
from modeval.regression import METRIC_IDS, point_metric, regression_report
from modeval.validation import (gandomi_objective, reference_index,
                                roy_rm, tropsha_criteria)

CHAIN_IDS = ("MSE", "SSE", "RMSE", "RSE", "RRSE", "R2", "GMAE", "GRMSE",
             "MAPE", "MARE", "MPE", "MNB")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    print(f"criterion {number:2d} PASS  {description}")


def close(a, b, rel=1e-12, abs_tol=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def make_series(rng) -> PairedSeries:
    """Random paired series avoiding every undefined-reason trigger."""
    n = rng.randint(2, 100)
    while True:
        a = [rng.uniform(0.5, 1000.0) * rng.choice((-1.0, 1.0)) for _ in range(n)]
        if len(set(a)) > 1 and all(a[i] != a[i - 1] for i in range(1, n)):
            break
    while True:
        p = [rng.uniform(-1000.0, 1000.0) for _ in range(n)]
        if len(set(p)) > 1:
            break
    return PairedSeries(a, p, ordered=True)


@pytest.fixture(scope="module")
def random_series_10k():
    rng = random.Random(20250810)
    return [make_series(rng) for _ in range(10000)]


def test_criterion_1_identity_suite(random_series_10k):
    with criterion(1, "identity chains on 10,000 random series (< 10 s)"):
        start = time.perf_counter()
        for series in random_series_10k:
            report = regression_report(series, CHAIN_IDS)
            n = len(series)
            sse = report["SSE"].value
            assert close(report["MSE"].value, sse / n)
            assert close(report["RMSE"].value, math.sqrt(report["MSE"].value))
            assert close(report["R2"].value, 1.0 - report["RSE"].value)
            assert close(report["RRSE"].value, math.sqrt(report["RSE"].value))
            assert close(report["GMAE"].value, report["GRMSE"].value)
            assert close(report["MAPE"].value, 100.0 * report["MARE"].value)
            assert close(report["MPE"].value, 100.0 * report["MNB"].value)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"identity suite took {elapsed:.2f}s"


def test_criterion_2_ordering_bounds(random_series_10k):
    with criterion(2, "MAE <= RMSE <= sqrt(n)*MAE on every criterion-1 fixture"):
        for series in random_series_10k:
            report = regression_report(series, ("MAE", "RMSE"))
            mae, rmse = report["MAE"].value, report["RMSE"].value
            n = len(series)
            assert mae <= rmse * (1.0 + 1e-12) + 1e-12
            assert rmse <= math.sqrt(n) * mae * (1.0 + 1e-12) + 1e-12


def test_criterion_3_auc_oracle():
    with criterion(3, "trapezoidal AUC equals the pairwise statistic on 1,000 "
                      "random sets with ties (< 5 s)"):
        rng = random.Random(31415)
        start = time.perf_counter()
        for index in range(1000):
            n = rng.randint(2, 50)
            while True:
                flags = [rng.random() < 0.5 for _ in range(n)]
                if any(flags) and not all(flags):
                    break
            if index % 2 == 0:
                grid = rng.choice((2, 4, 8))  # coarse grid forces ties
                scores = [rng.randrange(grid) / grid for _ in range(n)]
            else:
                scores = [rng.random() for _ in range(n)]
            data = ScoredBinarySet(flags, scores)
            value = auc(roc_curve(data)).value
            assert close(value, pairwise_auc(flags, scores))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"AUC oracle took {elapsed:.2f}s"


def test_criterion_4_fixture_values(f1, c1, s1):
    with criterion(4, "frozen fixture values (rationals exact, irrationals 1e-9)"):
        # regression fixture, rational values exact
        report = regression_report(f1, ("MAE", "MSE", "SSE", "R2", "R"))
        assert report["MAE"].value == float(Fraction(3, 4))
        assert report["MSE"].value == float(Fraction(3, 4))
        assert report["SSE"].value == 3.0
        assert report["R2"].value == pytest.approx(float(Fraction(2, 5)), rel=1e-12)
        # R is irrational: 5.5 / sqrt(5 * 6.75)
        assert report["R"].value == pytest.approx(5.5 / math.sqrt(5 * 6.75),
                                                  abs=1e-9)
        assert report["R"].value == pytest.approx(0.946729, abs=1e-6)

        # classification fixture
        assert accuracy(c1).value == float(Fraction(13, 20))
        assert f_beta(c1, 1.0).value == float(Fraction(16, 23))
        assert mcc(c1).value == pytest.approx(30.0 / math.sqrt(9100), abs=1e-9)
        kmatrix = ConfusionMatrixK(("neg", "pos"), ((5, 5), (2, 8)))
        assert cohen_kappa(kmatrix).value == pytest.approx(float(Fraction(3, 10)),
                                                           rel=1e-12)
        bm, _ = informedness_markedness(c1)
        assert bm.value == pytest.approx(float(Fraction(3, 10)), rel=1e-12)

        # curve fixture against the brute-force oracle
        auc_value = auc(roc_curve(s1)).value
        assert auc_value == pytest.approx(float(Fraction(8, 9)), rel=1e-12)
        assert auc_value == pytest.approx(pairwise_auc(s1.labels, s1.scores),
                                          rel=1e-12)
        assert average_precision(s1).value == pytest.approx(float(Fraction(11, 12)),
                                                            rel=1e-12)


REASON_FIXTURES = [
    ("zero_actual", "MAPE", PairedSeries([0, 1], [1, 1])),
    ("zero_pair", "FAE", PairedSeries([0, 2], [0, 3])),
    ("constant_actual", "RAE", PairedSeries([2, 2], [1, 3])),
    ("zero_mean_actual", "NRMSE", PairedSeries([-1, 1], [0, 1])),
    ("constant_predicted", "R", PairedSeries([1, 2], [3, 3])),
    ("unordered_series", "MASE", PairedSeries([1, 2], [2, 2], ordered=False)),
    ("too_short", "NMSE", PairedSeries([1], [2])),
    ("zero_naive_error", "MASE", PairedSeries([3, 3], [1, 2], ordered=True)),
]


def test_criterion_5_definedness_catalog(random_series_10k):
    with criterion(5, "every undefined reason fires on its minimal fixture and "
                      "never on 10,000 clean fixtures"):
        for reason, metric_id, series in REASON_FIXTURES:
            mv = point_metric(metric_id, series)
            assert not mv.is_defined and mv.reason == reason, (reason, metric_id)

        # classification reasons
        assert rates(ConfusionMatrix2(0, 0, 3, 4)).ppv.reason == "zero_denominator"
        assert cohen_kappa(ConfusionMatrixK(("a", "b"), ((5, 0), (0, 0)))
                           ).reason == "degenerate_marginals"
        bm, _ = informedness_markedness(ConfusionMatrix2(tp=0, fp=2, fn=0, tn=2))
        assert bm.reason == "undefined_component"
        assert f_beta(ConfusionMatrix2(tp=0, fp=2, fn=3, tn=1),
                      1.0).reason == "zero_precision_recall"

        # ranking reasons: a subnormal lift fraction sends share / fraction to inf
        ranked = ScoredBinarySet([True, False, True], [0.9, 0.5, 0.1])
        assert lift(ranked, 1e-310).reason == "overflow"

        # randomized sweep that avoids every trigger: nothing may be undefined
        for series in random_series_10k:
            report = regression_report(series, METRIC_IDS)
            for metric_id, mv in report.items():
                assert mv.is_defined, (metric_id, mv.reason)
        rng = random.Random(271828)
        for _ in range(10000):
            matrix = ConfusionMatrix2(tp=rng.randint(1, 100), fp=rng.randint(1, 100),
                                      fn=rng.randint(1, 100), tn=rng.randint(1, 100))
            r = rates(matrix)
            for mv in r:
                assert mv.is_defined
            assert mcc(matrix).is_defined
            assert f_beta(matrix, 1.0).is_defined
            kmatrix = ConfusionMatrixK(("neg", "pos"),
                                       ((matrix.tn, matrix.fp),
                                        (matrix.fn, matrix.tp)))
            assert cohen_kappa(kmatrix).is_defined
            assert balanced_accuracy(kmatrix).is_defined
        for _ in range(200):
            n = rng.randint(2, 40)
            flags = [True] + [rng.random() < 0.3 for _ in range(n - 1)]
            data = ScoredBinarySet(flags, [rng.random() for _ in range(n)])
            assert lift(data, rng.uniform(1e-6, 1.0)).is_defined


def test_criterion_6_multi_criteria_validation():
    with criterion(6, "slope criterion, Rm, objective and RI behave on the "
                      "documented fixtures"):
        perfect = PairedSeries([1, 2, 3, 5, 8], [1, 2, 3, 5, 8])
        rep = tropsha_criteria(perfect)
        assert rep.k == pytest.approx(1.0, rel=1e-15)
        assert rep.k_prime == pytest.approx(1.0, rel=1e-15)
        assert rep.m_index == pytest.approx(0.0, abs=1e-15)
        assert rep.n_index == pytest.approx(0.0, abs=1e-15)
        assert rep.overall_pass
        assert roy_rm(perfect).rm == pytest.approx(1.0, rel=1e-12)

        actual = list(range(1, 21))
        shuffled = actual[:]
        random.Random(42).shuffle(shuffled)
        assert not tropsha_criteria(PairedSeries(actual, shuffled)).overall_pass

        train = PairedSeries([1, 2, 3], [1, 2, 3])
        holdout = PairedSeries([4, 5, 7], [4, 5, 7])
        assert gandomi_objective(train, holdout).value == 0.0

        better = PairedSeries([10, 20, 30], [10.5, 20.5, 30.5])
        worse = PairedSeries([10, 20, 30], [14, 26, 37])
        ranking = reference_index([("a", better), ("b", worse)])
        assert ranking.ri == (0.0, 1.0)


def test_criterion_7_cross_module_identities():
    with criterion(7, "brier==MSE, MXE==log loss, ACA(0.5)==BACC, "
                      "hamming==1-accuracy"):
        rng = random.Random(616)
        for _ in range(300):
            n = rng.randint(1, 40)
            flags = [rng.random() < 0.4 for _ in range(n)]
            scores = [rng.random() for _ in range(n)]
            data = ScoredBinarySet(flags, scores)
            indicators = PairedSeries([1.0 if f else 0.0 for f in flags], scores)
            assert brier_score(data).value == point_metric("MSE", indicators).value
            mxe = mean_cross_entropy(data).value
            ll = log_loss(probability_matrix_from_scores(data)).value
            assert close(mxe, ll)

        for _ in range(300):
            matrix = ConfusionMatrix2(tp=rng.randint(1, 60), fp=rng.randint(0, 60),
                                      fn=rng.randint(0, 60), tn=rng.randint(1, 60))
            kmatrix = ConfusionMatrixK(("neg", "pos"),
                                       ((matrix.tn, matrix.fp),
                                        (matrix.fn, matrix.tp)))
            assert average_class_accuracy(matrix, 0.5).value == \
                balanced_accuracy(kmatrix).value

        classes = ("x", "y", "z")
        for _ in range(300):
            n = rng.randint(2, 50)
            actual = [rng.choice(classes) for _ in range(n)]
            predicted = [rng.choice(classes) for _ in range(n)]
            if len(set(actual) | set(predicted)) < 2:
                continue
            kmatrix = confusion_from_labels(actual, predicted)
            error_rate = (kmatrix.total - kmatrix.diagonal_total()) / kmatrix.total
            assert hamming_loss(actual, predicted).value == error_rate


def test_criterion_8_invariance_laws():
    with criterion(8, "joint-scaling invariance and AUC monotone-transform "
                      "invariance on 1,000 fixtures each"):
        rng = random.Random(828)
        scale_free = ("MAPE", "MARE", "RAE", "MRAE", "FAE", "RSE", "RRSE",
                      "NRMSE", "NMSE", "R2", "R", "MASE")
        for _ in range(1000):
            series = make_series(rng)
            c = rng.uniform(0.1, 10.0)
            scaled = PairedSeries([c * a for a in series.actual],
                                  [c * p for p in series.predicted], ordered=True)
            base = regression_report(series, scale_free + ("MAE", "RMSE", "ME",
                                                           "MSE", "SSE"))
            after = regression_report(scaled, scale_free + ("MAE", "RMSE", "ME",
                                                            "MSE", "SSE"))
            for metric_id in scale_free:
                assert math.isclose(after[metric_id].value, base[metric_id].value,
                                    rel_tol=1e-10, abs_tol=1e-10), metric_id
            for metric_id in ("MAE", "RMSE", "ME"):
                assert math.isclose(after[metric_id].value,
                                    c * base[metric_id].value,
                                    rel_tol=1e-10, abs_tol=1e-10), metric_id
            for metric_id in ("MSE", "SSE"):
                assert math.isclose(after[metric_id].value,
                                    c * c * base[metric_id].value,
                                    rel_tol=1e-10, abs_tol=1e-10), metric_id

        for index in range(1000):
            n = rng.randint(2, 40)
            while True:
                flags = [rng.random() < 0.5 for _ in range(n)]
                if any(flags) and not all(flags):
                    break
            if index % 3 == 0:
                scores = [rng.randrange(5) / 5 for _ in range(n)]
            else:
                scores = [rng.uniform(-3, 3) for _ in range(n)]
            data = ScoredBinarySet(flags, scores)
            base_auc = auc(roc_curve(data)).value
            warped = ScoredBinarySet(flags, [math.atan(s) * 2.0 + 7.0
                                             for s in scores])
            assert math.isclose(auc(roc_curve(warped)).value, base_auc,
                                rel_tol=1e-10, abs_tol=1e-10)


def test_criterion_9_cli_determinism(capsys):
    with criterion(9, "byte-identical JSON on 10 golden runs plus the exit-code "
                      "contract (< 5 s)"):
        start = time.perf_counter()
        for argv in GOLDEN_RUNS:
            first = main(list(argv))
            first_out = capsys.readouterr().out
            second = main(list(argv))
            second_out = capsys.readouterr().out
            assert first == second
            assert first_out == second_out
            json.loads(first_out)

        # exit-code contract, one fixture per class
        assert main(["regress", "--input", str(FIXTURES / "f1.csv"),
                     "--actual-col", "a"]) == 1                      # usage
        capsys.readouterr()
        assert main(["regress", "--input", str(FIXTURES / "f1.csv"),
                     "--actual-col", "zzz", "--predicted-col", "p"]) == 2  # schema
        capsys.readouterr()
        assert main(["regress", "--input", str(FIXTURES / "bad_cell.csv"),
                     "--actual-col", "a", "--predicted-col", "p"]) == 2    # data
        capsys.readouterr()
        assert main(["regress", "--input", str(FIXTURES / "zero_actual.csv"),
                     "--actual-col", "a", "--predicted-col", "p",
                     "--metrics", "MAPE", "--strict"]) == 3          # strict
        capsys.readouterr()
        assert main(["curves", "--kind", "roc", "--input",
                     str(FIXTURES / "s1.csv"), "--label-col", "label",
                     "--score-col", "score", "--positive", "pos", "--cal"]) == 2
        capsys.readouterr()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"CLI determinism took {elapsed:.2f}s"


def test_criterion_10_statistical_sanity():
    with criterion(10, "random-label lift within 1 +/- 0.05 and random-score "
                       "AUC within 0.5 +/- 0.02"):
        rng = random.Random(1009)
        n = 10000
        flags = [rng.random() < 0.5 for _ in range(n)]
        scores = [rng.random() for _ in range(n)]
        data = ScoredBinarySet(flags, scores)
        lift_value = lift(data, 0.2).value
        assert abs(lift_value - 1.0) <= 0.05, lift_value
        auc_value = auc(roc_curve(data)).value
        assert abs(auc_value - 0.5) <= 0.02, auc_value
