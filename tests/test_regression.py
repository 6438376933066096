import math
import random
from fractions import Fraction
from functools import cached_property
from math import fsum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modeval.dataset import MetricValue, PairedSeries
from modeval.errors import DataError, UsageError
from modeval.regression import (METRIC_IDS, METRICS, SeriesContext,
                                _term_mean, point_metric, regression_report)

# Frozen expected values for the reference fixture A=[1,2,3,4], P=[2,2,4,5],
# confirmed beforehand by Fraction arithmetic (see the exact forms below).
F1_EXPECTED = {
    "ME": -0.75,                      # -3/4
    "MNB": float(Fraction(-19, 48)),
    "MPE": 100 * float(Fraction(-19, 48)),
    "MAE": 0.75,                      # 3/4
    "MAPE": 100 * float(Fraction(19, 48)),
    "RAE": 0.75,                      # 3 / 4
    "MARE": float(Fraction(19, 48)),
    "MRAE": float(Fraction(5, 6)),
    "GMAE": 0.0,                      # one residual is exactly zero
    "FAE": float(Fraction(37, 126)),
    "MSE": 0.75,
    "RMSE": math.sqrt(0.75),
    "SSE": 3.0,
    "RSE": 0.6,                       # 3/5
    "RRSE": math.sqrt(0.6),
    "GRMSE": 0.0,
    "MSPE": float(Fraction(4225, 144)),
    "RMSPE": float(Fraction(650, 12)),  # 100 * 13/24
    "NRMSE": math.sqrt(0.75) / 2.5,
    "NRMSE_SD": math.sqrt(0.75) / math.sqrt(5 / 3),
    "NMSE": 0.45,                     # 9/20
    "R2": 0.4,                        # 2/5
    "R": 0.9467292624062575,          # 5.5 / sqrt(5 * 6.75)
    "MASE": 0.75,                     # naive one-step denominator is 1
}


def random_series(rng, n=None, ordered=True):
    """Series avoiding every undefined trigger: nonzero actuals, non-constant."""
    n = n or rng.randint(2, 60)
    while True:
        a = [rng.uniform(0.5, 1000.0) * rng.choice([-1, 1]) for _ in range(n)]
        if len(set(a)) > 1:
            break
    p = [rng.uniform(-1000.0, 1000.0) for _ in range(n)]
    if len(set(p)) == 1:
        p[0] += 1.0
    return PairedSeries(a, p, ordered)


class TestResiduals:
    def test_elementwise(self, f1):
        assert tuple(SeriesContext(f1).e) == (-1.0, 0.0, -1.0, -1.0)

    def test_identity(self):
        s = PairedSeries([1, 2, 3], [1, 2, 3])
        assert tuple(SeriesContext(s).e) == (0.0, 0.0, 0.0)

    def test_single_pair(self):
        assert tuple(SeriesContext(PairedSeries([5], [2])).e) == (3.0,)


class TestFixtureValues:
    @pytest.mark.parametrize("metric_id", sorted(F1_EXPECTED))
    def test_f1_fixture(self, f1, metric_id):
        mv = point_metric(metric_id, f1)
        assert mv.is_defined
        assert mv.value == pytest.approx(F1_EXPECTED[metric_id], rel=1e-12, abs=1e-15)

    def test_perfect_prediction(self):
        # no actual equals the mean (7/3), so even per-term MRAE is defined
        s = PairedSeries([1, 2, 4], [1, 2, 4], ordered=True)
        for metric_id in METRIC_IDS:
            mv = point_metric(metric_id, s)
            assert mv.is_defined, metric_id
            if metric_id in ("R2", "R"):
                assert mv.value == 1.0
            else:
                assert mv.value == 0.0, metric_id

    def test_zero_residual_pins_geometric_mean(self):
        s = PairedSeries([1, 2, 3], [1, 5, 9])
        assert point_metric("GMAE", s).value == 0.0
        assert point_metric("GRMSE", s).value == 0.0


UNDEFINED_CASES = [
    # (metric ids, series kwargs, expected reason)
    (("MNB", "MPE", "MAPE", "MARE", "MSPE", "RMSPE"),
     dict(actual=[0, 1], predicted=[1, 1]), "zero_actual"),
    (("FAE",), dict(actual=[0, 2], predicted=[0, 3]), "zero_pair"),
    (("RAE", "MRAE", "RSE", "RRSE", "R2", "R"),
     dict(actual=[2, 2], predicted=[1, 3]), "constant_actual"),
    (("NMSE", "NRMSE_SD"),
     dict(actual=[2, 2], predicted=[1, 3]), "constant_actual"),
    (("NRMSE",), dict(actual=[-1, 1], predicted=[0, 1]), "zero_mean_actual"),
    (("R",), dict(actual=[1, 2], predicted=[3, 3]), "constant_predicted"),
    (("MASE",), dict(actual=[1, 2], predicted=[2, 2], ordered=False),
     "unordered_series"),
    (("MASE", "NMSE", "NRMSE_SD"),
     dict(actual=[1], predicted=[2], ordered=True), "too_short"),
    (("MASE",), dict(actual=[3, 3], predicted=[1, 2], ordered=True),
     "zero_naive_error"),
]


class TestUndefinedReasons:
    @pytest.mark.parametrize("ids,kwargs,reason", UNDEFINED_CASES)
    def test_minimal_trigger(self, ids, kwargs, reason):
        series = PairedSeries(**kwargs)
        for metric_id in ids:
            mv = point_metric(metric_id, series)
            assert not mv.is_defined, metric_id
            assert mv.reason == reason, metric_id

    def test_mrae_per_term_trigger(self):
        # one actual equals the mean even though the series is not constant
        series = PairedSeries([1, 2, 3], [5, 5, 5])
        mv = point_metric("MRAE", series)
        assert mv.reason == "constant_actual"

    def test_no_spurious_undefined_on_clean_data(self):
        rng = random.Random(7)
        for _ in range(200):
            series = random_series(rng)
            for metric_id in METRIC_IDS:
                assert point_metric(metric_id, series).is_defined, metric_id


class TestSkipUndefinedTerms:
    def test_mape_recomputed_over_subset(self):
        series = PairedSeries([0, 1, 2], [1, 2, 3])
        mv = point_metric("MAPE", series, skip_undefined_terms=True)
        assert mv.is_defined
        assert mv.dropped_terms == 1
        # surviving terms |E/A| are 1/1 and 1/2
        assert mv.value == pytest.approx(100 * (1.0 + 0.5) / 2, rel=1e-12)

    def test_all_terms_dropped_stays_undefined(self):
        series = PairedSeries([0, 0], [1, 2])
        mv = point_metric("MAPE", series, skip_undefined_terms=True)
        assert not mv.is_defined
        assert mv.reason == "zero_actual"
        assert mv.dropped_terms == 2

    def test_fae_subset(self):
        series = PairedSeries([0, 1], [0, 3])
        mv = point_metric("FAE", series, skip_undefined_terms=True)
        assert mv.value == pytest.approx(2 * 2 / 4, rel=1e-12)
        assert mv.dropped_terms == 1


class TestReport:
    def test_requested_subset(self, f1):
        report = regression_report(f1, {"MAE", "MSE", "SSE"})
        assert set(report) == {"MAE", "MSE", "SSE"}
        assert report["MAE"].value == 0.75
        assert report["MSE"].value == 0.75
        assert report["SSE"].value == 3.0

    def test_all_ids_mase_needs_order(self):
        series = PairedSeries([1, 2, 3, 4], [2, 2, 4, 5], ordered=False)
        report = regression_report(series, METRIC_IDS)
        assert report["MASE"].reason == "unordered_series"

    def test_empty_ids(self, f1):
        with pytest.raises(UsageError):
            regression_report(f1, set())

    def test_unknown_id(self, f1):
        with pytest.raises(UsageError):
            regression_report(f1, {"MAE", "BOGUS"})
        with pytest.raises(UsageError):
            point_metric("BOGUS", f1)

    @pytest.mark.parametrize("ids", ["RMSE", "R"])
    def test_string_of_ids_rejected(self, f1, ids):
        # a str is no collection of ids: "RMSE" is not {"R", "M", "S", "E"}
        with pytest.raises(UsageError, match=f"^regression metric ids must be a collection of "
                                             f"ids, got the string '{ids}'$"):
            regression_report(f1, ids)

    def test_residuals_overflowing_to_both_infinities_are_an_overflow(self):
        # fsum refuses a +inf and a -inf term; evaluate names it an overflow
        series = PairedSeries([1e308, -1e308], [-1e308, 1e308])
        with pytest.raises(OverflowError):
            point_metric("ME", series)
        with pytest.raises(OverflowError):
            regression_report(series, ["ME"])

    def test_notes_cover_catalog(self):
        # every catalog entry states its own formula, which names the metric
        assert tuple(METRICS) == METRIC_IDS
        assert all(m.id == i and m.note.startswith(f"{i} = ") for i, m in METRICS.items())


finite_series = st.lists(
    st.tuples(st.floats(-100, 100, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
              st.floats(-100, 100, allow_nan=False)),
    min_size=2, max_size=25)


class TestIdentities:
    @given(finite_series)
    def test_identity_chain(self, rows):
        series = PairedSeries([r[0] for r in rows], [r[1] for r in rows],
                              ordered=True)
        values = {i: point_metric(i, series) for i in
                  ("MSE", "SSE", "RMSE", "RSE", "RRSE", "R2", "GMAE", "GRMSE",
                   "MAPE", "MARE", "MPE", "MNB")}
        n = len(series)
        assert values["MSE"].value == pytest.approx(values["SSE"].value / n, rel=1e-12)
        assert values["RMSE"].value == pytest.approx(math.sqrt(values["MSE"].value),
                                                     rel=1e-12)
        assert values["GMAE"].value == pytest.approx(values["GRMSE"].value, rel=1e-12)
        assert values["MAPE"].value == pytest.approx(100 * values["MARE"].value,
                                                     rel=1e-12)
        assert values["MPE"].value == pytest.approx(100 * values["MNB"].value,
                                                    rel=1e-12, abs=1e-15)
        if values["RSE"].is_defined:
            assert values["R2"].value == pytest.approx(1 - values["RSE"].value,
                                                       rel=1e-12)
            assert values["RRSE"].value == pytest.approx(
                math.sqrt(values["RSE"].value), rel=1e-12)

    @given(finite_series)
    def test_mae_rmse_ordering(self, rows):
        series = PairedSeries([r[0] for r in rows], [r[1] for r in rows])
        mae = point_metric("MAE", series).value
        rmse = point_metric("RMSE", series).value
        n = len(series)
        assert mae <= rmse * (1 + 1e-12) + 1e-15
        assert rmse <= math.sqrt(n) * mae * (1 + 1e-12) + 1e-15

    def test_nrmse_times_mean_recovers_rmse(self):
        rng = random.Random(11)
        for _ in range(50):
            series = random_series(rng)
            nrmse = point_metric("NRMSE", series)
            rmse = point_metric("RMSE", series).value
            a_mean = math.fsum(series.actual) / len(series)
            assert nrmse.value * a_mean == pytest.approx(rmse, rel=1e-12)


class TestScaleBehaviour:
    SCALE_FREE = ("MAPE", "MARE", "RAE", "MRAE", "FAE", "RSE", "RRSE", "NRMSE",
                  "NMSE", "R2", "R", "MASE", "NRMSE_SD", "MNB", "MPE", "MSPE",
                  "RMSPE")
    LINEAR = ("MAE", "RMSE", "ME", "GMAE", "GRMSE", "NRMSE_SD")

    def test_joint_scaling(self):
        rng = random.Random(3)
        for _ in range(40):
            series = random_series(rng)
            c = rng.uniform(0.1, 10.0)
            scaled = PairedSeries([c * a for a in series.actual],
                                  [c * p for p in series.predicted], ordered=True)
            for metric_id in self.SCALE_FREE:
                base = point_metric(metric_id, series).value
                after = point_metric(metric_id, scaled).value
                assert after == pytest.approx(base, rel=1e-10), metric_id
            for metric_id in ("MAE", "RMSE", "ME"):
                base = point_metric(metric_id, series).value
                after = point_metric(metric_id, scaled).value
                assert after == pytest.approx(c * base, rel=1e-10), metric_id
            for metric_id in ("MSE", "SSE"):
                base = point_metric(metric_id, series).value
                after = point_metric(metric_id, scaled).value
                assert after == pytest.approx(c * c * base, rel=1e-10), metric_id

    def test_r_affine_invariance(self):
        rng = random.Random(5)
        for _ in range(40):
            series = random_series(rng)
            base = point_metric("R", series).value
            a, b = rng.uniform(0.1, 5.0), rng.uniform(-10, 10)
            shifted = PairedSeries(series.actual,
                                   [a * p + b for p in series.predicted])
            assert point_metric("R", shifted).value == pytest.approx(base, rel=1e-9)
            flipped = PairedSeries(series.actual,
                                   [-a * p + b for p in series.predicted])
            assert point_metric("R", flipped).value == pytest.approx(-base, rel=1e-9)

    @pytest.mark.parametrize("actual, predicted, scale", [
        ([0, 1e-90, 2e-90], [0, 3e-90, 1e-90], 1e90),          # s_aa * s_pp underflows
        ([1e100, 2e100, 3e100], [1.1e100, 2e100, 2.9e100], 1e-100),  # and overflows
    ])
    def test_r_survives_extreme_scales(self, actual, predicted, scale):
        extreme = point_metric("R", PairedSeries(actual, predicted)).value
        rescaled = PairedSeries([scale * a for a in actual], [scale * p for p in predicted])
        assert extreme == pytest.approx(point_metric("R", rescaled).value, abs=1e-12)

    def test_mean_error_sign_tracks_underestimation(self):
        under = PairedSeries([2, 4, 6], [1, 3, 5])   # actual above predicted
        over = PairedSeries([1, 3, 5], [2, 4, 6])
        assert point_metric("ME", under).value > 0
        assert point_metric("ME", over).value < 0


class TestSharedStatistics:
    def test_unused_statistic_cannot_overflow(self):
        # s_aa overflows on these actuals, but MAE never needs it
        series = PairedSeries([1e200, -1e200, 3e200], [0, 0, 0])
        mae = regression_report(series, {"MAE"})["MAE"]
        assert mae.is_defined and mae.value == pytest.approx(5e200 / 3, rel=1e-12)

    def test_centred_sums_computed_only_when_needed(self, monkeypatch):
        import modeval.regression as regression

        calls = []

        def counting(values, center):
            calls.append(center)
            return sum_sq_dev(values, center)

        sum_sq_dev = regression.sum_sq_dev
        monkeypatch.setattr(regression, "sum_sq_dev", counting)
        series = random_series(random.Random(7), n=40)
        regression_report(series, {"MAE", "RMSE", "MAPE"})
        assert calls == []
        regression_report(series, METRIC_IDS)
        assert len(calls) <= 2

    def test_registry_ids_match_values(self, f1):
        report = regression_report(f1, METRIC_IDS)
        assert list(report) == list(METRIC_IDS)
        assert all(mv.id == metric_id for metric_id, mv in report.items())


class GeneratorContext(SeriesContext):
    """The shared sums as the generator expressions that the map pipelines
    replaced: each term is the same float operation, so fsum gives the same bits."""

    @cached_property
    def e(self):
        return tuple(a - p for a, p in zip(self.a, self.p))

    @cached_property
    def abs_e(self):
        return tuple(abs(ei) for ei in self.e)

    @cached_property
    def sse(self):
        return fsum(ei * ei for ei in self.e)

    @cached_property
    def s_aa(self):
        return fsum((v - self.a_mean) ** 2 for v in self.a)

    @cached_property
    def s_pp(self):
        return fsum((v - self.p_mean) ** 2 for v in self.p)

    @cached_property
    def abs_dev_a(self):
        return fsum(abs(v - self.a_mean) for v in self.a)

    @cached_property
    def s_ap(self):
        return fsum((ai - self.a_mean) * (pi - self.p_mean) for ai, pi in zip(self.a, self.p))

    def _ratios(self):
        return (ei / ai for ei, ai in zip(self.e, self.a) if ai != 0)

    @cached_property
    def abs_ratio_sum(self):
        return fsum(abs(t) for t in self._ratios())

    @cached_property
    def sq_ratio_sum(self):
        return fsum(t * t for t in self._ratios())

    @cached_property
    def geo_mean_abs(self):
        if any(v == 0.0 for v in self.abs_e):
            return 0.0
        return math.exp(fsum(math.log(v) for v in self.abs_e) / self.n)


def _list_mrae(c):
    m = c.a_mean
    devs = [abs(ai - m) for ai in c.a]
    return _term_mean(c, "MRAE", "constant_actual", devs.count(0.0),
                      lambda: fsum(ei / d for ei, d in zip(c.abs_e, devs) if d != 0))


def _list_fae(c):
    denoms = [abs(ai) + abs(pi) for ai, pi in zip(c.a, c.p)]
    return _term_mean(c, "FAE", "zero_pair", denoms.count(0.0),
                      lambda: fsum(2.0 * ei / d for ei, d in zip(c.abs_e, denoms) if d != 0))


def _list_mase(c):
    if not c.data.ordered or c.n < 2:
        return METRICS["MASE"].fn(c)  # undefined before the sum
    a = c.a
    naive = fsum(abs(a[i] - a[i - 1]) for i in range(1, c.n)) / (c.n - 1)
    if naive == 0:
        return MetricValue.undefined("MASE", "zero_naive_error")
    return MetricValue.defined("MASE", (c.sum_abs_e / c.n) / naive)


GENERATOR_METRICS = {"MRAE": _list_mrae, "FAE": _list_fae, "MASE": _list_mase}

# exact zeros of both signs, values at the ends of the float range and
# repeats, so that A_i == mean(A), zero pairs and overflowing sums all occur
_ADVERSARIAL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 2.5, 1e308, -1e308, 5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def adversarial_series(draw):
    n = draw(st.integers(1, 30))
    values = st.lists(_ADVERSARIAL, min_size=n, max_size=n)
    return PairedSeries(draw(values), draw(values), draw(st.booleans()))


def _bits(fn, ctx):
    try:
        mv = fn(ctx)
    except (ArithmeticError, ValueError, DataError) as exc:
        return type(exc), str(exc)
    value = None if mv.value is None else mv.value.hex()
    return value, mv.status, mv.reason, mv.dropped_terms, mv.flags


class TestStreamingSumsMatchGenerators:
    @given(adversarial_series(), st.booleans())
    def test_every_id_is_bit_identical(self, series, skip):
        for metric_id, metric in METRICS.items():
            want = _bits(GENERATOR_METRICS.get(metric_id, metric.fn),
                         GeneratorContext(series, skip))
            assert _bits(metric.fn, SeriesContext(series, skip)) == want, metric_id
