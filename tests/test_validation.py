import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import generator_origin_sums, generator_ro2
from modeval import validation
from modeval.dataset import PairedSeries
from modeval.errors import DataError, DefinednessError, UsageError
from modeval.validation import (SLOPE_RANGE, adequacy_verdict, data_adequacy_ratio,
                                gandomi_objective, reference_index,
                                reference_index_from_metrics, roy_rm,
                                tropsha_criteria)


def fraction_slope_oracle(actual, predicted):
    """Exact-rational recomputation of k, k', R2, Ro2, Ro2' and the indexes."""
    a = [Fraction(x) for x in actual]
    p = [Fraction(x) for x in predicted]
    n = len(a)
    am, pm = sum(a) / n, sum(p) / n
    saa = sum((x - am) ** 2 for x in a)
    spp = sum((x - pm) ** 2 for x in p)
    sap = sum((x - am) * (y - pm) for x, y in zip(a, p))
    r2 = Fraction(sap * sap, saa * spp)
    k = sum(x * y for x, y in zip(a, p)) / sum(y * y for y in p)
    k_prime = sum(x * y for x, y in zip(a, p)) / sum(x * x for x in a)
    ro2 = 1 - sum((y - k * y) ** 2 for y in p) / spp
    ro2_prime = 1 - sum((x - k_prime * x) ** 2 for x in a) / saa
    m = (r2 - ro2) / r2
    n_index = (r2 - ro2_prime) / r2
    return k, k_prime, r2, ro2, ro2_prime, m, n_index


class TestTropsha:
    def test_perfect_model(self):
        series = PairedSeries([1, 2, 3, 5], [1, 2, 3, 5])
        rep = tropsha_criteria(series)
        assert rep.k == pytest.approx(1.0, rel=1e-15)
        assert rep.k_prime == pytest.approx(1.0, rel=1e-15)
        assert rep.m_index == pytest.approx(0.0, abs=1e-15)
        assert rep.n_index == pytest.approx(0.0, abs=1e-15)
        assert rep.pass_k and rep.pass_m and rep.pass_n and rep.overall_pass

    def test_doubled_predictions(self):
        rep = tropsha_criteria(PairedSeries([1, 2, 3], [2, 4, 6]))
        # hand sums: sum(A*P) = 28, sum(P^2) = 56, sum(A^2) = 14
        assert rep.k == pytest.approx(0.5, rel=1e-15)
        assert rep.k_prime == pytest.approx(2.0, rel=1e-15)
        assert not rep.pass_k

    @pytest.mark.parametrize("actual, predicted", [
        ([12, 5, 0, 0], [2, 2, 4, 4]),
        ([0, 2, 13], [2, 4, 10]),
        ([1, 13, 9, 3], [12, 11, 6, 4]),
        ([7, 1, 3, 11], [10, 11, 9, 9]),
    ], ids=["k_low", "k_high", "k_prime_low", "k_prime_high"])
    def test_a_slope_on_the_range_boundary_passes(self, actual, predicted):
        # integer sums are exact, so the slope is the double nearest 0.85 or 1.15,
        # and the other slope lies outside the range
        rep = tropsha_criteria(PairedSeries(actual, predicted))
        assert SLOPE_RANGE.count(rep.k) + SLOPE_RANGE.count(rep.k_prime) == 1
        assert rep.pass_k

    def test_shuffled_predictions_fail_overall(self):
        # documented fixture: actuals 1..20 against a seed-42 shuffle of themselves
        actual = list(range(1, 21))
        predicted = actual[:]
        random.Random(42).shuffle(predicted)
        rep = tropsha_criteria(PairedSeries(actual, predicted))
        k, k_prime, r2, ro2, ro2p, m, n = fraction_slope_oracle(actual, predicted)
        assert rep.k == pytest.approx(float(k), rel=1e-12)
        assert rep.k_prime == pytest.approx(float(k_prime), rel=1e-12)
        assert rep.r2 == pytest.approx(float(r2), rel=1e-12)
        assert rep.ro2 == pytest.approx(float(ro2), rel=1e-12)
        assert rep.m_index == pytest.approx(float(m), rel=1e-9)
        assert rep.n_index == pytest.approx(float(n), rel=1e-9)
        assert not rep.overall_pass

    def test_swap_exchanges_slopes(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(3, 30)
            a = [rng.uniform(1, 50) for _ in range(n)]
            p = [rng.uniform(1, 50) for _ in range(n)]
            fwd = tropsha_criteria(PairedSeries(a, p))
            rev = tropsha_criteria(PairedSeries(p, a))
            assert fwd.k == pytest.approx(rev.k_prime, rel=1e-12)
            assert fwd.k_prime == pytest.approx(rev.k, rel=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(DefinednessError):
            tropsha_criteria(PairedSeries([2, 2, 2], [1, 2, 3]))
        with pytest.raises(DefinednessError):
            tropsha_criteria(PairedSeries([1, 2, 3], [4, 4, 4]))

    def test_too_short(self):
        with pytest.raises(DefinednessError):
            tropsha_criteria(PairedSeries([1, 2], [1, 2]))


def _outcome(fn, *args):
    # repr tells every two floats apart, -0.0 from 0.0 included
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError, DefinednessError) as exc:
        return type(exc), str(exc)


def _origin_slopes_by_generator(actual, predicted):
    s_ap, s_pp, s_aa = generator_origin_sums(actual, predicted)
    if s_pp == 0:
        raise DefinednessError("sum(P^2) is zero; through-origin slope k undefined")
    if s_aa == 0:
        raise DefinednessError("sum(A^2) is zero; through-origin slope k' undefined")
    return s_ap / s_pp, s_ap / s_aa


# unit-scale values times 10**e, from underflowing squares to overflowing ones
_scaled_series = st.tuples(
    st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=3, max_size=30),
    st.integers(-170, 200).map(lambda e: 10.0 ** e))


@given(_scaled_series, st.floats(-1e3, 1e3), st.floats(0.1, 1e3))
def test_the_tropsha_sums_match_their_generator_forms_bit_for_bit(series, slope, spread):
    rows, scale = series
    centered_ss = spread * scale * scale  # may underflow to 0 or overflow to inf
    actual = [a * scale for a, _ in rows]
    predicted = [p * scale for _, p in rows]
    data = PairedSeries(actual, predicted)
    assert (_outcome(validation._origin_slopes, data)
            == _outcome(_origin_slopes_by_generator, actual, predicted))
    for values in (data.actual, data.predicted):
        assert (_outcome(validation._ro2, values, slope, centered_ss)
                == _outcome(generator_ro2, values, slope, centered_ss))


class TestRoyRm:
    def test_perfect_model(self):
        rep = roy_rm(PairedSeries([1, 2, 3, 5], [1, 2, 3, 5]))
        assert rep.rm == pytest.approx(1.0, rel=1e-12)
        assert rep.pass_rm

    def test_f1_fixture_frozen_value(self, f1):
        # Fraction oracle: R2 = 121/135, Ro2 = 839/1323,
        # Rm = R2 * (1 - sqrt(R2 - Ro2)) = 0.43740351696886376
        rep = roy_rm(f1)
        r2 = Fraction(121, 135)
        ro2 = Fraction(839, 1323)
        expected = float(r2) * (1 - math.sqrt(float(r2 - ro2)))
        assert expected == pytest.approx(0.43740351696886376, rel=1e-12)
        assert rep.rm == pytest.approx(expected, rel=1e-12)
        assert not rep.pass_rm

    def test_constant_actual_rejected(self):
        with pytest.raises(DefinednessError):
            roy_rm(PairedSeries([2, 2, 2], [1, 2, 3]))


class TestAdequacy:
    @pytest.mark.parametrize("obs,params,ratio,verdict,adequate", [
        (30, 10, 3.0, "within", True),
        (100, 10, 10.0, "above", True),
        (10, 10, 1.0, "below", False),
        (50, 10, 5.0, "within", True),
    ])
    def test_verdicts(self, obs, params, ratio, verdict, adequate):
        assert data_adequacy_ratio(obs, params) == ratio
        assert adequacy_verdict(ratio) == verdict
        assert (adequacy_verdict(ratio) != "below") == adequate

    def test_zero_parameters(self):
        with pytest.raises(UsageError):
            data_adequacy_ratio(10, 0)

    def test_negative_observations(self):
        with pytest.raises(UsageError):
            data_adequacy_ratio(-1, 2)

    @pytest.mark.parametrize("obs,params,named", [
        (10.9, 3, "observation count must be an integer, got 10.9"),
        ("7", 2.9, "observation count must be an integer, got '7'"),
        (7, 2.9, "parameter count must be an integer, got 2.9"),
        (True, 1, "observation count must be an integer, got True"),
        (10, False, "parameter count must be an integer, got False"),
        (10.0, 2, "observation count must be an integer, got 10.0"),
    ])
    def test_count_must_be_an_integer(self, obs, params, named):
        with pytest.raises(UsageError, match=f"^{re.escape(named)}$"):
            data_adequacy_ratio(obs, params)


class TestGandomiObjective:
    def test_perfect_splits(self):
        train = PairedSeries([1, 2, 3], [1, 2, 3])
        holdout = PairedSeries([4, 5, 6, 7], [4, 5, 6, 7])
        assert gandomi_objective(train, holdout).value == 0.0

    def test_equal_split_sizes_drop_first_term(self, f1):
        # Nt == Nv makes the whole objective (RMSE_v + MAE_v) / R2_v
        perfect_train = PairedSeries([1, 2, 3, 4], [1, 2, 3, 4])
        mv = gandomi_objective(perfect_train, f1)
        r2 = float(Fraction(121, 135))
        expected = (math.sqrt(0.75) + 0.75) / r2
        assert mv.value == pytest.approx(expected, rel=1e-12)

    def test_unequal_split_sizes_weight_both_terms(self, f1):
        # Nt = 4, Nv = 3; the holdout's residuals are (0, 0, -1) and its R2 is 27/28
        holdout = PairedSeries([1, 2, 3], [1, 2, 4])
        expected = ((1 / 7) * (math.sqrt(0.75) + 0.75) / float(Fraction(121, 135))
                    + (6 / 7) * (math.sqrt(1 / 3) + 1 / 3) / float(Fraction(27, 28)))
        assert gandomi_objective(f1, holdout).value == pytest.approx(expected, rel=1e-12)

    def test_f1_both_splits_frozen_value(self, f1):
        mv = gandomi_objective(f1, f1)
        assert mv.value == pytest.approx(1.803003549676853, rel=1e-12)

    def test_zero_iff_zero_residuals(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(3, 20)
            a = [rng.uniform(1, 50) for _ in range(n)]
            noisy = [x + rng.uniform(0.1, 2.0) for x in a]
            mv = gandomi_objective(PairedSeries(a, a), PairedSeries(a, noisy))
            assert mv.value > 0.0

    def test_degenerate_split_rejected(self):
        constant = PairedSeries([3, 3, 3], [1, 2, 3])
        good = PairedSeries([1, 2, 3], [1, 2, 3])
        with pytest.raises(DefinednessError):
            gandomi_objective(constant, good)


class TestReferenceIndex:
    def test_strict_dominance_endpoints(self):
        better = PairedSeries([10, 20, 30], [10.5, 20.5, 30.5])
        worse = PairedSeries([10, 20, 30], [14, 26, 37])
        ranking = reference_index([("a", better), ("b", worse)])
        assert ranking.ri == (0.0, 1.0)
        assert ranking.ranking == (0, 1)
        assert ranking.model_ids == ("a", "b")

    def test_hand_built_triples(self):
        ranking = reference_index_from_metrics(
            ["m1", "m2", "m3"], [(1, 1, 1), (2, 2, 2), (3, 3, 3)])
        assert ranking.ri == (0.0, 0.5, 1.0)
        assert ranking.ranking == (0, 1, 2)
        for column in ("RMSE", "MAE", "MAPE"):
            assert ranking.normalized[column] == (0.0, 0.5, 1.0)

    def test_identical_models_tie(self):
        ranking = reference_index_from_metrics(["x", "y"], [(2, 3, 4), (2, 3, 4)])
        assert ranking.ri == (0.0, 0.0)
        assert set(ranking.tied_columns) == {"RMSE", "MAE", "MAPE"}

    def test_column_rescaling_keeps_ranking(self):
        rng = random.Random(21)
        triples = [(rng.uniform(1, 9), rng.uniform(1, 9), rng.uniform(1, 9))
                   for _ in range(5)]
        ids = [f"m{i}" for i in range(5)]
        base = reference_index_from_metrics(ids, triples)
        # power-of-two factor keeps the normalized columns bit-identical
        scaled = [(4.0 * r, m, p) for r, m, p in triples]
        again = reference_index_from_metrics(ids, scaled)
        assert again.ranking == base.ranking
        assert again.normalized["RMSE"] == base.normalized["RMSE"]

    def test_model_permutation_keeps_id_ranking(self):
        rng = random.Random(22)
        series = {f"m{i}": PairedSeries([rng.uniform(1, 50) for _ in range(8)],
                                        [rng.uniform(1, 50) for _ in range(8)])
                  for i in range(4)}
        models = list(series.items())
        base = reference_index(models)
        shuffled = models[::-1]
        again = reference_index(shuffled)
        order_base = [base.model_ids[i] for i in base.ranking]
        order_again = [again.model_ids[i] for i in again.ranking]
        assert order_base == order_again

    def test_undefined_metric_names_model(self):
        ok = PairedSeries([1, 2, 3], [2, 3, 4])
        broken = PairedSeries([0, 1, 2], [1, 2, 3])  # zero actual kills MAPE
        with pytest.raises(DefinednessError, match="bad_model"):
            reference_index([("fine", ok), ("bad_model", broken)])

    @pytest.mark.parametrize("call", [
        lambda big, ok: reference_index([("a", big), ("b", ok)]),
        lambda big, ok: gandomi_objective(big, ok),
    ], ids=["ri", "objective"])
    def test_rmse_is_checked_before_mae(self, call):
        # a residual that overflows to inf makes both sums infinite: RMSE is named first
        big = PairedSeries([1e308, 1, 2], [-1e308, 1, 3])
        with pytest.raises(DataError, match=r"^RMSE: a defined metric must carry a finite value$"):
            call(big, PairedSeries([1, 2, 3], [1, 2, 4]))

    def test_needs_two_models(self):
        with pytest.raises(UsageError):
            reference_index([("only", PairedSeries([1, 2], [1, 2]))])
        with pytest.raises(UsageError):
            reference_index_from_metrics(["only"], [(1, 2, 3)])

    @pytest.mark.parametrize("bad", [(3, 4), (3, 4, 5, 6), (3, 4, math.inf),
                                     (math.nan, 4, 5), (-1e308, 4, 5), ("1", "2", "3"),
                                     (True, 1, 1), (None, 4, 5), (10 ** 400, 4, 5)],
                             ids=["short", "long", "inf", "nan", "negative", "str", "bool",
                                  "None", "huge_int"])
    def test_triple_must_be_three_finite_non_negative_numbers(self, bad):
        with pytest.raises(DataError, match=r"^model 'b': \(RMSE, MAE, MAPE\) must be"):
            reference_index_from_metrics(["a", "b"], [(1e308, 2, 3), bad])

    def test_the_first_model_with_a_bad_triple_is_named(self):
        with pytest.raises(DataError, match=r"^model 'a': .* got \('1', '2', '3'\)$"):
            reference_index_from_metrics(["a", "b"], [("1", "2", "3"), (True, 1, 1)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(UsageError):
            reference_index_from_metrics(["a", "a"], [(1, 1, 1), (2, 2, 2)])
