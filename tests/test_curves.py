import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (pairwise_auc, reference_auc, reference_average_precision,
                      reference_break_even, reference_cal_windows, reference_lift,
                      reference_pr_points, reference_roc_points)
from modeval.curves import (CalibrationReport, auc, average_precision,
                            break_even_point, calibration_error, lift, pr_curve,
                            roc_curve)
from modeval.dataset import MetricValue, ScoredBinarySet
from modeval.errors import DataError, DefinednessError, UsageError


def random_scored(rng, n=None, tie_grid=None):
    n = n or rng.randint(2, 50)
    while True:
        flags = [rng.random() < 0.5 for _ in range(n)]
        if any(flags) and not all(flags):
            break
    if tie_grid:
        scores = [rng.randrange(tie_grid) / tie_grid for _ in range(n)]
    else:
        scores = [rng.random() for _ in range(n)]
    return ScoredBinarySet(flags, scores)


class TestRocCurve:
    def test_s1_point_list(self, s1):
        points = list(zip(*roc_curve(s1)))
        assert len(points) == 7
        expected = [(0.0, 0.0, math.inf),
                    (0.0, 1 / 3, 0.9), (0.0, 2 / 3, 0.8), (1 / 3, 2 / 3, 0.7),
                    (1 / 3, 1.0, 0.4), (2 / 3, 1.0, 0.3), (1.0, 1.0, 0.2)]
        for (fpr, tpr, threshold), want in zip(points, expected):
            want_fpr, want_tpr, want_threshold = want
            assert fpr == pytest.approx(want_fpr, abs=1e-15)
            assert tpr == pytest.approx(want_tpr, abs=1e-15)
            assert threshold == want_threshold

    def test_perfect_separation_passes_through_corner(self):
        data = ScoredBinarySet([True, True, False, False], [0.9, 0.8, 0.2, 0.1])
        curve = roc_curve(data)
        assert (0.0, 1.0) in zip(curve.fpr, curve.tpr)
        assert auc(curve).value == 1.0

    def test_all_scores_identical(self):
        data = ScoredBinarySet([True, False, True, False], [0.3] * 4)
        curve = roc_curve(data)
        assert list(zip(curve.fpr, curve.tpr)) == [(0.0, 0.0), (1.0, 1.0)]
        assert auc(curve).value == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DefinednessError):
            roc_curve(ScoredBinarySet([True, True], [0.5, 0.6]))

    def test_monotone_axes(self):
        rng = random.Random(61)
        for _ in range(100):
            curve = roc_curve(random_scored(rng, tie_grid=rng.choice([None, 4, 10])))
            points = list(zip(*curve))
            assert points[0] == (0.0, 0.0, math.inf)
            assert points[-1][:2] == (1.0, 1.0)
            for (fpr_a, tpr_a, _), (fpr_b, tpr_b, _) in zip(points, points[1:]):
                assert fpr_b >= fpr_a and tpr_b >= tpr_a
                assert 0.0 <= fpr_b <= 1.0 and 0.0 <= tpr_b <= 1.0


class TestAuc:
    def test_s1_value(self, s1):
        assert auc(roc_curve(s1)).value == pytest.approx(8 / 9, rel=1e-12)

    def test_matches_pairwise_oracle(self, s1):
        assert auc(roc_curve(s1)).value == pytest.approx(
            pairwise_auc(s1.labels, s1.scores), rel=1e-12)

    def test_oracle_with_ties(self):
        rng = random.Random(67)
        for _ in range(300):
            data = random_scored(rng, tie_grid=rng.choice([None, 3, 8]))
            value = auc(roc_curve(data)).value
            assert value == pytest.approx(pairwise_auc(data.labels, data.scores),
                                          rel=1e-12, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = random.Random(71)
        for _ in range(100):
            data = random_scored(rng, tie_grid=rng.choice([None, 5]))
            base = auc(roc_curve(data)).value
            warped = ScoredBinarySet(data.labels,
                                     [math.exp(2.0 * s) for s in data.scores])
            assert auc(roc_curve(warped)).value == base

    def test_sign_flip_reverses(self):
        rng = random.Random(73)
        for _ in range(100):
            data = random_scored(rng, tie_grid=rng.choice([None, 5]))
            base = auc(roc_curve(data)).value
            flipped = ScoredBinarySet(data.labels, [-s for s in data.scores])
            assert auc(roc_curve(flipped)).value == pytest.approx(1.0 - base,
                                                                  rel=1e-12,
                                                                  abs=1e-12)


class TestPrCurve:
    def test_s1_points(self, s1):
        points = list(zip(*pr_curve(s1)))
        expected = [(1 / 3, 1.0, 0.9), (2 / 3, 1.0, 0.8), (2 / 3, 2 / 3, 0.7),
                    (1.0, 3 / 4, 0.4), (1.0, 3 / 5, 0.3), (1.0, 1 / 2, 0.2)]
        assert len(points) == len(expected)
        for (recall, precision, threshold), want in zip(points, expected):
            want_recall, want_precision, want_threshold = want
            assert recall == pytest.approx(want_recall, abs=1e-15)
            assert precision == pytest.approx(want_precision, abs=1e-15)
            assert threshold == want_threshold

    def test_recall_reaches_one(self):
        rng = random.Random(79)
        for _ in range(100):
            data = random_scored(rng, tie_grid=rng.choice([None, 4]))
            recall = pr_curve(data).recall
            assert recall[-1] == 1.0
            for a, b in zip(recall, recall[1:]):
                assert b >= a

    def test_no_positives_rejected(self):
        with pytest.raises(DefinednessError):
            pr_curve(ScoredBinarySet([False, False], [0.2, 0.4]))


class TestAveragePrecision:
    def test_perfect_ranking(self):
        data = ScoredBinarySet([True, True, False], [0.9, 0.8, 0.1])
        assert average_precision(data).value == 1.0

    def test_s1_value(self, s1):
        assert average_precision(s1).value == pytest.approx(11 / 12, rel=1e-12)

    def test_single_positive_ranked_last(self):
        m = 5
        flags = [False] * (m - 1) + [True]
        scores = [float(m - i) for i in range(m)]
        assert average_precision(ScoredBinarySet(flags, scores)).value == \
            pytest.approx(1 / m, rel=1e-12)

    def test_range_and_perfection(self):
        # AP == 1 exactly when every positive outranks every negative
        rng = random.Random(83)
        for _ in range(200):
            data = random_scored(rng, tie_grid=rng.choice([None, 4]))
            value = average_precision(data).value
            assert -1e-12 <= value <= 1.0 + 1e-12
            separable = all(
                sp > sn
                for sp, f1 in zip(data.scores, data.labels) if f1
                for sn, f2 in zip(data.scores, data.labels) if not f2)
            if separable:
                assert value == pytest.approx(1.0, rel=1e-12)
            else:
                assert value < 1.0


class TestBreakEven:
    def test_perfect_ranking(self):
        data = ScoredBinarySet([True, False], [0.9, 0.1])
        assert break_even_point(pr_curve(data)).value == 1.0

    def test_s1_crossing_on_vertex(self, s1):
        # precision == recall == 2/3 exactly at the 0.7 threshold vertex
        assert break_even_point(pr_curve(s1)).value == pytest.approx(2 / 3,
                                                                     rel=1e-12)

    def test_constant_precision_half(self):
        data = ScoredBinarySet([True, False, True, False], [2.0, 2.0, 1.0, 1.0])
        assert break_even_point(pr_curve(data)).value == pytest.approx(0.5,
                                                                       rel=1e-12)

    def test_no_crossing(self):
        data = ScoredBinarySet([True, False, False, False], [0.5] * 4)
        mv = break_even_point(pr_curve(data))
        assert mv.reason == "no_crossing"

    def test_interpolated_crossing(self):
        # ranked [+, -, -, +]: gaps swing from +2/3 at recall 1/2 to -1/4 at 1
        data = ScoredBinarySet([True, False, False, True], [4.0, 3.0, 2.0, 1.0])
        curve = pr_curve(data)
        recall = curve.recall
        gaps = [precision - r for r, precision in zip(recall, curve.precision)]
        assert gaps[0] > 0 > gaps[-1]
        value = break_even_point(pr_curve(data)).value
        # hand interpolation between (1/2, 2/3) and (1/2, 1/2): gap hits zero at
        # the second segment; recompute the same walk the long way
        expected = None
        for i in range(len(recall) - 1):
            g0, g1 = gaps[i], gaps[i + 1]
            if g0 == 0:
                expected = recall[i]
                break
            if (g0 > 0) != (g1 > 0):
                s = g0 / (g0 - g1)
                expected = recall[i] + s * (recall[i + 1] - recall[i])
                break
        assert value == pytest.approx(expected, rel=1e-12)
        assert 0.0 <= value <= 1.0

    def test_gap_reaching_zero_after_a_positive_gap_is_interpolated(self):
        # PR points (1/3, 1), (5/6, 5/6), (1, 6/7): the gap falls from positive
        # to exactly zero, which counts as a crossing of the segment before the
        # zero point, as it always has; interpolating it gives 1/3 + 1.0 * (5/6
        # - 1/3), one ulp below the zero point's own recall of 5/6
        data = ScoredBinarySet([True, True, True, True, True, False, True],
                               [0.9, 0.9, 0.5, 0.5, 0.5, 0.5, 0.1])
        recall = pr_curve(data).recall
        assert list(recall) == [2 / 6, 5 / 6, 1.0]
        expected = 2 / 6 + 1.0 * (5 / 6 - 2 / 6)
        assert expected != 5 / 6
        assert break_even_point(pr_curve(data)).value.hex() == expected.hex()


class TestLift:
    def test_perfect_ranking_half(self):
        data = ScoredBinarySet([True, True, False, False], [4.0, 3.0, 2.0, 1.0])
        assert lift(data, 0.5).value == pytest.approx(2.0, rel=1e-12)

    def test_whole_dataset_is_exactly_one(self):
        rng = random.Random(89)
        for _ in range(50):
            data = random_scored(rng)
            assert lift(data, 1.0).value == 1.0

    def test_decimal_fraction_cuts_exactly(self):
        # top 20% of 10 items is exactly 2, despite 0.2 being inexact in binary
        flags = [True, True] + [False] * 8
        scores = [float(10 - i) for i in range(10)]
        assert lift(ScoredBinarySet(flags, scores), 0.2).value == \
            pytest.approx(1.0 / 0.2, rel=1e-12)

    def test_tie_at_cut_flagged(self):
        data = ScoredBinarySet([True, False, True, False], [1.0, 0.5, 0.5, 0.1])
        mv = lift(data, 0.5)
        assert "tie_at_cut" in mv.flags

    def test_tiny_fraction_keeps_the_top_score(self, s1):
        # 1e-12 snaps to the rational 0, yet the cut still keeps the top score
        mv = lift(s1, 1e-12)
        assert mv.value == (1 / 3) / 1e-12
        assert mv.flags == ()

    def test_fraction_bounds(self, s1):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(UsageError):
                lift(s1, bad)

    def test_no_positives(self):
        with pytest.raises(DefinednessError):
            lift(ScoredBinarySet([False, False], [0.1, 0.2]), 0.5)


class TestCalibration:
    def test_alternating_constant_scores(self):
        # 200 cases, all scored 0.5, labels alternating: every window holds 50
        flags = [i % 2 == 0 for i in range(200)]
        report = calibration_error(ScoredBinarySet(flags, [0.5] * 200))
        assert report.cal == 0.0
        assert len(report.window_errors) == 101

    def test_confident_and_wrong(self):
        report = calibration_error(ScoredBinarySet([False] * 120, [1.0] * 120))
        assert report.cal == 1.0
        assert all(e == 1.0 for e in report.window_errors)

    def test_too_few_cases(self):
        with pytest.raises(DataError, match="100"):
            calibration_error(ScoredBinarySet([True] * 50, [0.5] * 50))

    def test_score_out_of_range(self):
        with pytest.raises(DataError):
            calibration_error(ScoredBinarySet([True] * 100, [1.5] * 100))

    def test_single_flip_moves_cal_by_window_share(self):
        n = 150
        flags = [i % 2 == 0 for i in range(n)]
        base = calibration_error(ScoredBinarySet(flags, [0.5] * n))
        assert base.cal == 0.0
        window_count = n - 100 + 1
        for position in (10, 75):
            mutated = list(flags)
            mutated[position] = not mutated[position]
            report = calibration_error(ScoredBinarySet(mutated, [0.5] * n))
            containing = (min(position, n - 100) - max(0, position - 99)) + 1
            expected = containing * (1 / 100) / window_count
            assert report.cal == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariant_with_distinct_scores(self):
        rng = random.Random(97)
        n = 130
        scores = rng.sample([i / 1000 for i in range(1000)], n)
        flags = [rng.random() < s for s in scores]
        base = calibration_error(ScoredBinarySet(flags, scores)).cal
        order = list(range(n))
        rng.shuffle(order)
        shuffled = calibration_error(
            ScoredBinarySet([flags[i] for i in order],
                            [scores[i] for i in order])).cal
        assert shuffled == base

    def test_report_mean_invariant(self):
        rng = random.Random(101)
        scores = [rng.random() for _ in range(110)]
        flags = [rng.random() < 0.5 for _ in range(110)]
        report = calibration_error(ScoredBinarySet(flags, scores))
        assert report.cal == pytest.approx(
            math.fsum(report.window_errors) / len(report.window_errors), rel=1e-15)


def _tie_heavy_scores(n):
    """n scores in [0, 1]: few distinct values, mixed 0.0/-0.0, or a single value."""
    return st.one_of(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
        st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=n, max_size=n),
        st.sampled_from([0.0, -0.0, 0.25]).map(lambda s: [s] * n),
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))


def scored_sets(min_size):
    return st.integers(min_size, 300).flatmap(lambda n: st.tuples(
        st.lists(st.booleans(), min_size=n, max_size=n), _tie_heavy_scores(n)))


def _columns(points):
    return [(x.hex(), y.hex(), repr(threshold)) for x, y, threshold in points]


def _hex(value):
    return None if value is None else value.hex()


class TestRankingOracle:
    """The cached ranking gives the sort-per-call sweeps' floats bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(scored_sets(1), st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from([1e-12, 5e-324, 0.08, 0.1, 0.2, 1 / 3, 0.5, 1.0])))
    def test_sweeps_and_lift_match_reference(self, case, fraction):
        flags, scores = case
        data = ScoredBinarySet(flags, scores)
        if any(flags) and not all(flags):
            curve = roc_curve(data)
            reference = reference_roc_points(flags, scores)
            assert _columns(zip(*curve)) == _columns(reference)
            assert auc(curve).value.hex() == reference_auc(reference).hex()
        else:
            with pytest.raises(DefinednessError):
                roc_curve(data)
        if not any(flags):
            for metric in (pr_curve, lambda d: lift(d, fraction)):
                with pytest.raises(DefinednessError):
                    metric(data)
            return
        curve = pr_curve(data)
        reference = reference_pr_points(flags, scores)
        assert _columns(zip(*curve)) == _columns(reference)
        assert average_precision(data).value.hex() == \
            reference_average_precision(reference).hex()
        assert _hex(break_even_point(curve).value) == \
            _hex(reference_break_even(reference))
        value, tie_flags = reference_lift(flags, scores, fraction)
        mv = lift(data, fraction)
        if math.isfinite(value):
            assert (mv.value.hex(), mv.flags) == (value.hex(), tie_flags)
        else:
            assert mv == MetricValue.undefined("LIFT", "overflow")

    @settings(max_examples=60, deadline=None)
    @given(scored_sets(100))
    def test_calibration_windows_match_reference(self, case):
        flags, scores = case
        report = calibration_error(ScoredBinarySet(flags, scores))
        reference = reference_cal_windows(flags, scores)
        assert [e.hex() for e in report.window_errors] == [e.hex() for e in reference]
        assert report.cal.hex() == (math.fsum(reference) / len(reference)).hex()
