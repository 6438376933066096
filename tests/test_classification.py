import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import generator_brier, reference_canberra, reference_wave_hedges
from modeval.classification import (ProbabilityMatrix, accuracy,
                                    average_class_accuracy, balanced_accuracy,
                                    brier_score, canberra, cohen_kappa, f_beta,
                                    hamming_loss, hinge_loss,
                                    informedness_markedness, likelihood_ratios,
                                    log_loss, mcc, mean_cross_entropy,
                                    probability_matrix_from_scores, rates,
                                    wave_hedges)
from modeval.dataset import (ConfusionMatrix2, ConfusionMatrixK, MetricValue, PairedSeries,
                             ScoredBinarySet, confusion_from_labels)
from modeval.errors import DataError, UsageError
from modeval.regression import point_metric

matrices = st.tuples(st.integers(0, 50), st.integers(0, 50),
                     st.integers(0, 50), st.integers(0, 50)).filter(
    lambda t: sum(t) >= 1).map(
    lambda t: ConfusionMatrix2(tp=t[0], fp=t[1], fn=t[2], tn=t[3]))


class TestRates:
    def test_c1_values(self, c1):
        r = rates(c1)
        assert r.tpr.value == pytest.approx(0.8, rel=1e-15)
        assert r.tnr.value == pytest.approx(0.5, rel=1e-15)
        assert r.ppv.value == pytest.approx(8 / 13, rel=1e-15)
        assert r.npv.value == pytest.approx(5 / 7, rel=1e-15)
        assert r.fpr.value == pytest.approx(0.5, rel=1e-15)
        assert r.fnr.value == pytest.approx(0.2, rel=1e-15)
        assert r.fdr.value == pytest.approx(5 / 13, rel=1e-15)
        assert r.for_rate.value == pytest.approx(2 / 7, rel=1e-15)

    def test_no_predicted_positives(self):
        r = rates(ConfusionMatrix2(tp=0, fp=0, fn=3, tn=4))
        assert r.ppv.reason == "zero_denominator"
        assert r.fdr.reason == "zero_denominator"
        assert r.tpr.is_defined and r.tnr.is_defined

    def test_perfect_matrix(self):
        r = rates(ConfusionMatrix2(tp=4, fp=0, fn=0, tn=6))
        assert (r.tpr.value, r.tnr.value, r.ppv.value, r.npv.value) == (1, 1, 1, 1)
        assert (r.fpr.value, r.fnr.value, r.fdr.value, r.for_rate.value) == (0, 0, 0, 0)

    @given(matrices)
    def test_complement_identities(self, m):
        r = rates(m)
        for a, b in ((r.tpr, r.fnr), (r.tnr, r.fpr), (r.ppv, r.fdr),
                     (r.npv, r.for_rate)):
            if a.is_defined and b.is_defined:
                assert a.value + b.value == pytest.approx(1.0, abs=1e-15)


class TestLikelihoodRatios:
    def test_c1_values(self, c1):
        lr_plus, lr_minus, dor = likelihood_ratios(c1)
        assert lr_plus.value == pytest.approx(1.6, rel=1e-12)
        assert lr_minus.value == pytest.approx(0.4, rel=1e-12)
        assert dor.value == pytest.approx(4.0, rel=1e-12)

    def test_dor_equals_count_form(self, c1):
        _, _, dor = likelihood_ratios(c1)
        assert dor.value == pytest.approx((8 * 5) / (5 * 2), rel=1e-12)

    def test_zero_fpr_kills_lr_plus(self):
        lr_plus, _, dor = likelihood_ratios(ConfusionMatrix2(tp=3, fp=0, fn=1, tn=4))
        assert lr_plus.reason == "zero_denominator"
        assert dor.reason == "undefined_component"

    @given(matrices)
    def test_dor_identity_where_defined(self, m):
        lr_plus, lr_minus, dor = likelihood_ratios(m)
        if dor.is_defined and m.fp * m.fn > 0:
            assert dor.value == pytest.approx((m.tp * m.tn) / (m.fp * m.fn),
                                              rel=1e-12)
            assert dor.value == pytest.approx(lr_plus.value / lr_minus.value,
                                              rel=1e-12)


class TestAccuracyAndF:
    def test_c1_accuracy(self, c1):
        assert accuracy(c1).value == pytest.approx(0.65, rel=1e-15)

    def test_boundary_accuracies(self):
        assert accuracy(ConfusionMatrix2(tp=3, fp=0, fn=0, tn=2)).value == 1.0
        assert accuracy(ConfusionMatrix2(tp=0, fp=3, fn=2, tn=0)).value == 0.0

    def test_c1_f1_exact_rational(self, c1):
        assert f_beta(c1, 1.0).value == float(Fraction(16, 23))

    def test_c1_f2_frozen(self, c1):
        # count form: 5*8 / (5*8 + 4*2 + 5) = 40/53
        assert f_beta(c1, 2.0).value == float(Fraction(40, 53))

    def test_perfect_any_beta(self):
        m = ConfusionMatrix2(tp=5, fp=0, fn=0, tn=5)
        for beta in (0.5, 1.0, 2.0):
            assert f_beta(m, beta).value == 1.0

    def test_both_zero_precision_recall(self):
        mv = f_beta(ConfusionMatrix2(tp=0, fp=2, fn=3, tn=1), 1.0)
        assert mv.reason == "zero_precision_recall"

    def test_all_true_negatives(self):
        mv = f_beta(ConfusionMatrix2(tp=0, fp=0, fn=0, tn=4), 1.0)
        assert mv.reason == "undefined_component"

    def test_bad_beta(self, c1):
        with pytest.raises(UsageError):
            f_beta(c1, 0.0)

    @given(matrices)
    def test_f1_count_identity(self, m):
        mv = f_beta(m, 1.0)
        if mv.is_defined:
            assert mv.value == (2 * m.tp) / (2 * m.tp + m.fp + m.fn)

    @pytest.mark.parametrize("matrix, beta, value", [
        (ConfusionMatrix2(1, 1, 1, 1), 1e200, 0.5),  # the recall
        (ConfusionMatrix2(10 ** 10, 1, 1, 1), 1e150, 10 ** 10 / (10 ** 10 + 1)),
        (ConfusionMatrix2(10 ** 10, 10 ** 300, 0, 1), 1e150, 10 ** 10 / (10 ** 10 + 1)),
        (ConfusionMatrix2(5 * 10 ** 307, 1, 1, 1), 2.0, 1.0),
    ])
    def test_a_weighted_count_past_a_double_is_divided_by_b2(self, matrix, beta, value):
        # (1 + b^2) TP overflows: the count form would divide inf by inf
        assert f_beta(matrix, beta).value == value

    def test_the_count_form_holds_up_to_the_overflow(self):
        # (1 + b^2) TP is finite, (2 + b^2) TP is not, and the divided form rounds differently
        matrix = ConfusionMatrix2(43 * 10 ** 306, 0, 10 ** 305, 1)
        assert f_beta(matrix, 1.5).value == 0.9983925701018039

    @pytest.mark.parametrize("matrix, beta", [
        (ConfusionMatrix2(0, 0, 1, 1), 1e200),  # b^2 is inf, and inf * 0 is NaN
        (ConfusionMatrix2(0, 0, 1, 1), 1e-200),  # b^2 FN + FP underflows to 0
        (ConfusionMatrix2(0, 10 ** 400, 0, 1), 1.0),
    ])
    def test_no_true_positive_is_zero_at_any_beta(self, matrix, beta):
        assert f_beta(matrix, beta) == MetricValue.defined(f"F{beta:g}", 0.0)

    @pytest.mark.parametrize("matrix, beta, value", [
        (ConfusionMatrix2(10 ** 400, 1, 1, 1), 1.0, 1.0),
        (ConfusionMatrix2(10 ** 400, 1, 10 ** 400, 1), 1.0, float(Fraction(2, 3))),
        (ConfusionMatrix2(3, 10 ** 400, 1, 1), 2.0, 0.0),  # 15 / (10**400 + 19) underflows
        (ConfusionMatrix2(10 ** 400, 3 * 10 ** 400, 10 ** 400, 1), 0.5,
         float(Fraction(5, 5 + 1 + 12))),
    ])
    def test_a_count_past_a_double_takes_the_exact_count_form(self, matrix, beta, value):
        assert f_beta(matrix, beta).value == value

    @settings(max_examples=100)
    @given(st.tuples(*[st.integers(0, 2 ** 1100)] * 3).filter(lambda c: max(c) >= 2 ** 1024),
           st.floats(1e-150, 1e150))
    @example((1, 1, 10 ** 10), 1e150)  # small counts whose b^2 FN overflows
    def test_huge_counts_are_correctly_rounded(self, counts, beta):
        tp, fp, fn = counts
        mv = f_beta(ConfusionMatrix2(tp, fp, fn, 1), beta)
        if mv.is_defined:
            b2 = Fraction(beta) ** 2
            assert mv.value == float((1 + b2) * tp / ((1 + b2) * tp + b2 * fn + fp))

    @settings(max_examples=200)
    @given(st.tuples(*[st.integers(0, 2 ** 60)] * 4).filter(any),
           st.floats(1e-150, 1e150))
    @example((1, 0, 2 ** 60, 0), 1e150)  # b^2 FN overflows, (1 + b^2) TP does not
    def test_a_finite_count_form_denominator_keeps_the_count_form(self, counts, beta):
        mv = f_beta(ConfusionMatrix2(*counts), beta)
        tp, fp, fn, _ = counts
        if mv.is_defined:
            b2 = beta * beta
            denominator = (1.0 + b2) * tp + b2 * fn + fp
            assert mv.value == (1.0 + b2) * tp / denominator or not math.isfinite(denominator)


class TestMcc:
    def test_c1_value(self, c1):
        assert mcc(c1).value == pytest.approx(30 / math.sqrt(9100), rel=1e-12)

    def test_perfect_and_inverted(self):
        assert mcc(ConfusionMatrix2(tp=4, fp=0, fn=0, tn=6)).value == 1.0
        assert mcc(ConfusionMatrix2(tp=0, fp=6, fn=4, tn=0)).value == -1.0

    def test_zero_factor(self):
        assert mcc(ConfusionMatrix2(tp=0, fp=0, fn=3, tn=4)).reason == "zero_denominator"

    @given(matrices)
    def test_swap_symmetry_and_range(self, m):
        mv = mcc(m)
        if mv.is_defined:
            assert -1.0 <= mv.value <= 1.0
            swapped = mcc(ConfusionMatrix2(tp=m.tn, fp=m.fn, fn=m.fp, tn=m.tp))
            assert swapped.value == pytest.approx(mv.value, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("counts, value", [
        ((10 ** 200, 10 ** 200, 1, 1), 0.0),
        ((10 ** 200, 1, 1, 10 ** 200), 1.0),
        ((1, 10 ** 200, 10 ** 200, 1), -1.0),
        ((3 * 10 ** 200, 10 ** 200, 10 ** 200, 3 * 10 ** 200), 0.5),
        ((10 ** 200, 3 * 10 ** 200, 3 * 10 ** 200, 10 ** 200), -0.5),
    ])
    def test_a_product_past_a_double_stays_in_exact_ints(self, counts, value):
        # repr tells 0.0 from -0.0
        assert repr(mcc(ConfusionMatrix2(*counts)).value) == repr(value)

    @settings(max_examples=200)
    @given(st.tuples(*[st.integers(0, 2 ** 60)] * 4).filter(any))
    def test_a_product_that_fits_a_double_keeps_its_bits(self, counts):
        mv = mcc(ConfusionMatrix2(*counts))
        tp, fp, fn, tn = counts
        product = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        if mv.is_defined:
            assert mv.value == max(-1.0, min(1.0, (tp * tn - fp * fn) / math.sqrt(product)))


class TestInformednessMarkedness:
    def test_c1_values(self, c1):
        bm, mk = informedness_markedness(c1)
        assert bm.value == pytest.approx(0.3, rel=1e-12)
        assert mk.value == pytest.approx(float(Fraction(30, 91)), rel=1e-12)

    def test_chance_baseline(self):
        bm, _ = informedness_markedness(ConfusionMatrix2(tp=3, fp=5, fn=3, tn=5))
        assert bm.value == pytest.approx(0.0, abs=1e-15)

    def test_perfect(self):
        bm, mk = informedness_markedness(ConfusionMatrix2(tp=2, fp=0, fn=0, tn=2))
        assert bm.value == 1.0 and mk.value == 1.0

    def test_undefined_component(self):
        bm, mk = informedness_markedness(ConfusionMatrix2(tp=0, fp=2, fn=0, tn=2))
        assert bm.reason == "undefined_component"

    @given(matrices)
    def test_bm_equals_balanced_accuracy_identity(self, m):
        bm, _ = informedness_markedness(m)
        if bm.is_defined:
            k = ConfusionMatrixK(("neg", "pos"), ((m.tn, m.fp), (m.fn, m.tp)))
            bacc = balanced_accuracy(k)
            assert bm.value == pytest.approx(2 * bacc.value - 1, rel=1e-12,
                                             abs=1e-15)


class TestAverageClassAccuracy:
    def test_balanced_weight(self, c1):
        assert average_class_accuracy(c1, 0.5).value == pytest.approx(0.65, rel=1e-15)

    def test_minority_weighted(self, c1):
        assert average_class_accuracy(c1, 0.9).value == pytest.approx(0.77, rel=1e-12)

    def test_perfect(self):
        m = ConfusionMatrix2(tp=1, fp=0, fn=0, tn=9)
        for w in (0.1, 0.5, 0.9):
            assert average_class_accuracy(m, w).value == 1.0

    @pytest.mark.parametrize("w", [0.0, 1.0, -0.2, 1.5])
    def test_weight_bounds(self, c1, w):
        with pytest.raises(UsageError):
            average_class_accuracy(c1, w)

    def test_aca_half_equals_balanced_accuracy_exactly(self):
        rng = random.Random(31)
        for _ in range(200):
            m = ConfusionMatrix2(tp=rng.randint(1, 40), fp=rng.randint(0, 40),
                                 fn=rng.randint(0, 40), tn=rng.randint(1, 40))
            k = ConfusionMatrixK(("neg", "pos"), ((m.tn, m.fp), (m.fn, m.tp)))
            assert average_class_accuracy(m, 0.5).value == balanced_accuracy(k).value


class TestBalancedAccuracy:
    def test_two_class_c1(self):
        k = ConfusionMatrixK(("neg", "pos"), ((5, 5), (2, 8)))
        assert balanced_accuracy(k).value == pytest.approx(0.65, rel=1e-15)

    def test_diagonal(self):
        k = ConfusionMatrixK(("a", "b"), ((3, 0), (0, 9)))
        assert balanced_accuracy(k).value == 1.0

    def test_three_class_hand_value(self):
        k = ConfusionMatrixK(("a", "b", "c"), ((2, 0, 1), (0, 3, 0), (1, 0, 2)))
        assert balanced_accuracy(k).value == pytest.approx(7 / 9, rel=1e-12)

    def test_empty_class_excluded_and_counted(self):
        k = ConfusionMatrixK(("a", "b"), ((4, 1), (0, 0)))
        mv = balanced_accuracy(k)
        assert mv.value == pytest.approx(0.8, rel=1e-15)
        assert mv.dropped_terms == 1
        assert "empty_classes_excluded" in mv.flags


class TestCohenKappa:
    def test_c1_value(self):
        k = ConfusionMatrixK(("neg", "pos"), ((5, 5), (2, 8)))
        assert cohen_kappa(k).value == pytest.approx(0.3, rel=1e-12)

    def test_complete_agreement(self):
        k = ConfusionMatrixK(("a", "b"), ((4, 0), (0, 6)))
        assert cohen_kappa(k).value == 1.0

    def test_independence_table(self):
        k = ConfusionMatrixK(("a", "b"), ((1, 1), (1, 1)))
        assert cohen_kappa(k).value == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_marginals(self):
        k = ConfusionMatrixK(("a", "b"), ((5, 0), (0, 0)))
        assert cohen_kappa(k).reason == "degenerate_marginals"

    def test_kappa_at_most_one(self):
        rng = random.Random(17)
        for _ in range(200):
            counts = [[rng.randint(0, 9) for _ in range(3)] for _ in range(3)]
            if sum(map(sum, counts)) == 0:
                continue
            k = ConfusionMatrixK(("a", "b", "c"), tuple(map(tuple, counts)))
            mv = cohen_kappa(k)
            if mv.is_defined:
                assert mv.value <= 1.0 + 1e-15

    def test_kappa_one_iff_diagonal(self):
        k = confusion_from_labels(list("aabbc"), list("aabbc"))
        assert cohen_kappa(k).value == 1.0
        k2 = confusion_from_labels(list("aabbc"), list("aabbb"))
        assert cohen_kappa(k2).value < 1.0


class TestHammingLoss:
    def test_fraction_of_mismatches(self):
        actual = list("aaaaabbbbb")
        predicted = list("aaaaabbbaa")
        assert hamming_loss(actual, predicted).value == pytest.approx(0.2, rel=1e-15)

    def test_identity_and_disjoint(self):
        assert hamming_loss(list("abc"), list("abc")).value == 0.0
        assert hamming_loss(list("abc"), list("bca")).value == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            hamming_loss(["a"], ["a", "b"])

    def test_hamming_equals_error_rate_of_diagonal(self):
        rng = random.Random(23)
        classes = ["x", "y", "z"]
        for _ in range(100):
            n = rng.randint(2, 40)
            actual = [rng.choice(classes) for _ in range(n)]
            predicted = [rng.choice(classes) for _ in range(n)]
            if len(set(actual) | set(predicted)) < 2:
                continue
            k = confusion_from_labels(actual, predicted)
            error_rate = (k.total - k.diagonal_total()) / k.total
            assert hamming_loss(actual, predicted).value == error_rate


class TestLogLoss:
    def test_perfect_probabilities_exact_zero(self):
        pm = ProbabilityMatrix(((0.0, 1.0), (1.0, 0.0)), (1, 0))
        assert log_loss(pm).value == 0.0

    def test_half_probability(self):
        pm = ProbabilityMatrix(((0.5, 0.5),), (0,))
        assert log_loss(pm).value == pytest.approx(math.log(2), rel=1e-15)

    def test_zero_probability_clamped(self):
        pm = ProbabilityMatrix(((0.0, 1.0),), (0,))
        assert log_loss(pm).value == pytest.approx(-math.log(1e-15), rel=1e-12)

    def test_row_validation(self):
        with pytest.raises(DataError):
            ProbabilityMatrix(((0.6, 0.6),), (0,))
        with pytest.raises(DataError):
            ProbabilityMatrix(((0.5, 0.5),), (2,))
        with pytest.raises(DataError):
            ProbabilityMatrix(((1.2, -0.2),), (0,))

    @pytest.mark.parametrize("bad", [0.9, 1.0, "1"])
    def test_true_class_is_an_integer(self, bad):
        with pytest.raises(DataError, match=r"^true_class\[1\] = .* is not an integer"):
            ProbabilityMatrix(((0.5, 0.5), (0.5, 0.5)), (0, bad))

    def test_true_class_takes_the_flags_of_a_scored_set(self):
        pm = ProbabilityMatrix(((0.25, 0.75), (1.0, 0.0)), (True, False))
        assert pm.true_class == (1, 0)
        assert all(type(c) is int for c in pm.true_class)


class TestCrossEntropyAndBrier:
    def test_perfect_confident(self):
        data = ScoredBinarySet([True, False], [1.0, 0.0])
        assert mean_cross_entropy(data).value == 0.0
        assert brier_score(data).value == 0.0

    def test_half_scores(self):
        data = ScoredBinarySet([True, False], [0.5, 0.5])
        assert mean_cross_entropy(data).value == pytest.approx(math.log(2), rel=1e-15)
        assert brier_score(data).value == pytest.approx(0.25, rel=1e-15)

    def test_maximally_wrong(self):
        data = ScoredBinarySet([True, False], [0.0, 1.0])
        assert brier_score(data).value == 1.0
        assert mean_cross_entropy(data).value == pytest.approx(-math.log(1e-15),
                                                               rel=1e-12)

    def test_score_out_of_range(self):
        data = ScoredBinarySet([True], [1.5])
        with pytest.raises(DataError):
            mean_cross_entropy(data)
        with pytest.raises(DataError):
            brier_score(data)

    def test_mxe_equals_log_loss_on_induced_matrix(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 30)
            data = ScoredBinarySet([rng.random() < 0.5 for _ in range(n)],
                                   [rng.random() for _ in range(n)])
            mxe = mean_cross_entropy(data).value
            ll = log_loss(probability_matrix_from_scores(data)).value
            assert mxe == pytest.approx(ll, rel=1e-12)

    def test_brier_equals_mse_on_indicators_exactly(self):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(1, 30)
            flags = [rng.random() < 0.4 for _ in range(n)]
            scores = [rng.random() for _ in range(n)]
            brier = brier_score(ScoredBinarySet(flags, scores)).value
            mse = point_metric("MSE", PairedSeries(
                [1.0 if f else 0.0 for f in flags], scores)).value
            assert brier == mse

    @given(st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0)), min_size=1, max_size=40))
    def test_brier_matches_its_generator_form_bit_for_bit(self, rows):
        labels, scores = [y for y, _ in rows], [s for _, s in rows]
        brier = brier_score(ScoredBinarySet(labels, scores)).value
        assert brier.hex() == generator_brier(labels, scores).hex()

    @pytest.mark.parametrize("prevalence,seed", [(0.2, 47), (0.5, 53), (0.7, 59)])
    def test_constant_forecast_minimized_at_base_rate(self, prevalence, seed):
        rng = random.Random(seed)
        flags = [rng.random() < prevalence for _ in range(400)]
        base_rate = sum(flags) / len(flags)
        grid = [i / 100 for i in range(1, 100)]

        def best(loss_fn):
            losses = [loss_fn(ScoredBinarySet(flags, [p] * len(flags))).value
                      for p in grid]
            return grid[losses.index(min(losses))]

        assert abs(best(brier_score) - base_rate) <= 0.01 + 1e-12
        assert abs(best(mean_cross_entropy) - base_rate) <= 0.01 + 1e-12


class TestHingeLoss:
    def test_all_margins_good(self):
        data = ScoredBinarySet([True, False], [2.0, -1.5])
        assert hinge_loss(data).value == 0.0

    def test_positive_scored_zero(self):
        assert hinge_loss(ScoredBinarySet([True], [0.0])).value == 1.0

    def test_negative_scored_plus_two(self):
        assert hinge_loss(ScoredBinarySet([False], [2.0])).value == 3.0


_ADVERSARIAL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(-100.0, 100.0),
    st.floats(allow_nan=False, allow_infinity=False))


def _distance_outcome(metric, data):
    """(value hex, status, reason, flags), or the error type and message."""
    try:
        mv = metric(data)
    except (DataError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    value = None if mv.value is None else mv.value.hex()
    return value, mv.status, mv.reason, mv.flags


class TestVectorDistances:
    def test_identical_vectors(self):
        s = PairedSeries([1, 2, 3], [1, 2, 3])
        assert canberra(s).value == 0.0
        assert wave_hedges(s).value == 0.0

    def test_hand_values(self):
        s = PairedSeries([1, 2], [3, 2])
        assert canberra(s).value == pytest.approx(0.5, rel=1e-15)
        assert wave_hedges(s).value == pytest.approx(2 / 3, rel=1e-15)

    def test_zero_pair_undefined(self):
        s = PairedSeries([0], [0])
        assert canberra(s).reason == "zero_denominator"
        assert wave_hedges(s).reason == "zero_denominator"

    def test_negative_inputs_flagged(self):
        s = PairedSeries([-1, 2], [1, 2])
        assert "negative_inputs" in canberra(s).flags
        assert "negative_inputs" in wave_hedges(s).flags

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(_ADVERSARIAL, _ADVERSARIAL),
        st.tuples(st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0]))),
        min_size=1, max_size=20))
    def test_kernel_matches_per_term_loops(self, pairs):
        s = PairedSeries([a for a, _ in pairs], [p for _, p in pairs])
        assert _distance_outcome(canberra, s) == _distance_outcome(reference_canberra, s)
        assert _distance_outcome(wave_hedges, s) == \
            _distance_outcome(reference_wave_hedges, s)


    def test_zero_denominator_outranks_an_overflowing_sum(self):
        # the first two WHD terms are 1e308 each, so their sum overflows before
        # the third term's zero denominator is reached
        s = PairedSeries([1.0, 1.0, 0.0], [-1e308, -1e308, 0.0])
        assert _distance_outcome(wave_hedges, s) == \
            _distance_outcome(reference_wave_hedges, s) == \
            (None, "undefined", "zero_denominator", ())
        with pytest.raises(OverflowError):
            wave_hedges(PairedSeries([1.0, 1.0], [-1e308, -1e308]))


class TestThresholdReport:
    def test_catalog_order_ids_and_weighted_note(self):
        from modeval.classification import METRICS, ThresholdContext
        from modeval.cli import _report
        from modeval.dataset import confusion_from_scores, evaluate

        data = ScoredBinarySet([True, True, False, False, True],
                               [0.9, 0.3, 0.6, 0.1, 0.7])
        ctx = ThresholdContext(data, confusion_from_scores(data, 0.5), 0.7)
        values = evaluate(METRICS, ctx, reversed(list(METRICS)), "classification")
        assert [mv.id for mv in values.values()] == list(values) == list(METRICS)
        notes = {entry["id"]: entry["formula_note"] for entry in _report(METRICS, values, ctx)}
        assert notes["ACA"].endswith("[w = 0.7]")
        assert ctx.indicator_series is ctx.indicator_series

    def test_unknown_id(self):
        from modeval.classification import METRICS, ThresholdContext
        from modeval.dataset import confusion_from_scores, evaluate

        data = ScoredBinarySet([True, False], [0.9, 0.1])
        ctx = ThresholdContext(data, confusion_from_scores(data, 0.5))
        with pytest.raises(UsageError):
            evaluate(METRICS, ctx, {"ACC", "BOGUS"}, "classification")

    @given(st.lists(st.tuples(st.booleans(),
                              st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-2, 2)),
                    min_size=1, max_size=40),
           st.data())
    def test_hamming_is_the_off_diagonal_share_of_the_tally(self, rows, draw):
        from modeval.classification import METRICS, ThresholdContext
        from modeval.dataset import confusion_from_scores

        labels, scores = zip(*rows)
        data = ScoredBinarySet(labels, scores)
        # a threshold equal to one of the scores puts ties at the cut
        threshold = draw.draw(st.sampled_from(scores) | st.floats(-3, 3))
        ctx = ThresholdContext(data, confusion_from_scores(data, threshold))
        predicted = [s >= threshold for s in data.scores]
        assert METRICS["HAMMING"].fn(ctx) == hamming_loss(data.labels, predicted)
