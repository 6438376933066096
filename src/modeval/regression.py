"""Pointwise and aggregate error metrics for regression predictions.

The catalog covers the signed/absolute/squared/percentage error families,
geometric means, normalized variants, correlation R, the coefficient of
determination R2, and the scaled error MASE. The residual sign convention is
E_i = A_i - P_i everywhere, so a positive mean error means the model
underestimates on average.

Every metric returns a MetricValue: impossible inputs yield an explicit
undefined status with a machine-readable reason instead of NaN or an
exception. Reasons used here:

  zero_actual         some A_i == 0 under a division by A_i
  zero_pair           |A_i| + |P_i| == 0 under FAE
  constant_actual     deviations of A from its mean vanish
  zero_mean_actual    mean(A) == 0 under NRMSE
  constant_predicted  deviations of P from its mean vanish (R only)
  unordered_series    MASE on a series whose order is not meaningful
  too_short           n < 2 where a difference or an n-1 variance is needed
  zero_naive_error    MASE's naive one-step denominator vanishes

Per-term failures (for example one zero actual under MAPE) make the whole
metric undefined by default; ``skip_undefined_terms`` instead recomputes over
the defined subset and records how many terms were dropped.

``regression_report`` returns a plain dict of MetricValues keyed by id, and
``SeriesContext.e`` is the one residual column.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import cached_property
from itertools import compress, islice, repeat, tee
from math import fsum
from operator import add, mul, not_, sub, truediv

from ._stats import sum_abs_dev, sum_sq_dev
from .dataset import Metric, MetricValue, PairedSeries, evaluate


class SeriesContext:
    """A paired series and the statistics its metrics share.

    Each statistic is computed on first use and kept, so a report pays only
    for what its requested ids need and never computes one twice. Besides
    ``e``, an unboxed ``array("d")`` column of 8 bytes per value, no
    statistic keeps n values: sums over |E_i| and per-term ratios stream
    from maps and keep only the sum.
    """

    def __init__(self, data: PairedSeries, skip_undefined_terms: bool = False):
        self.data = data
        self.a, self.p, self.n = data.actual, data.predicted, len(data)
        self.skip = skip_undefined_terms

    @cached_property
    def e(self) -> array:
        return array("d", map(sub, self.a, self.p))

    @cached_property
    def a_mean(self) -> float:
        return fsum(self.a) / self.n

    @cached_property
    def p_mean(self) -> float:
        return fsum(self.p) / self.n

    @cached_property
    def sse(self) -> float:
        return fsum(map(mul, self.e, self.e))

    @cached_property
    def sum_abs_e(self) -> float:
        return fsum(map(abs, self.e))

    @cached_property
    def s_aa(self) -> float:
        return sum_sq_dev(self.a, self.a_mean)

    @cached_property
    def abs_dev_a(self) -> float:
        return sum_abs_dev(self.a, self.a_mean)

    @cached_property
    def s_pp(self) -> float:
        return sum_sq_dev(self.p, self.p_mean)

    @cached_property
    def s_ap(self) -> float:
        return fsum(map(mul, map(sub, self.a, repeat(self.a_mean)),
                        map(sub, self.p, repeat(self.p_mean))))

    @cached_property
    def r(self) -> float:
        """Pearson correlation clipped to [-1, 1]; needs s_aa and s_pp nonzero."""
        product = self.s_aa * self.s_pp
        if sys.float_info.min <= product < math.inf:
            scale = math.sqrt(product)
        else:  # the product left the normal range: take each root on its own
            scale = math.sqrt(self.s_aa) * math.sqrt(self.s_pp)
        return max(-1.0, min(1.0, self.s_ap / scale))

    @cached_property
    def zero_actuals(self) -> int:
        """Terms that an E_i / A_i ratio leaves undefined."""
        return self.a.count(0.0)

    def _ratios(self):
        return _quotients(self.e, lambda: self.a)

    @cached_property
    def ratio_sum(self) -> float:
        return fsum(self._ratios())

    @cached_property
    def abs_ratio_sum(self) -> float:
        return fsum(map(abs, self._ratios()))

    @cached_property
    def sq_ratio_sum(self) -> float:
        return fsum(map(mul, *tee(self._ratios())))

    @cached_property
    def geo_mean_abs(self) -> float:
        # log domain dodges over/underflow; an exact-zero residual (-0.0 too) gives 0
        if 0.0 in self.e:
            return 0.0
        return math.exp(fsum(map(math.log, map(abs, self.e))) / self.n)


def _quotients(numerators, denominators):
    """n_i / d_i over the d_i != 0; ``denominators()`` gives each pass its own iterator."""
    return map(truediv, compress(numerators, denominators()), filter(None, denominators()))


def _term_mean(ctx, metric_id, reason, bad, total, scale=lambda mean: mean):
    """Mean of per-term values where ``bad`` terms are undefined.

    Any undefined term makes the metric undefined unless the context skips
    them; ``total`` returns the sum of the defined terms and runs only when
    the mean is needed.
    """
    if bad and not ctx.skip:
        return MetricValue.undefined(metric_id, reason)
    if bad == ctx.n:
        return MetricValue.undefined(metric_id, reason, dropped_terms=bad)
    return MetricValue.defined(metric_id, scale(total() / (ctx.n - bad)),
                               dropped_terms=bad)


def _ratio_mean(metric_id, total, scale=lambda mean: mean):
    """Mean over the E_i / A_i terms, from the named context sum of those terms."""
    return lambda c: _term_mean(c, metric_id, "zero_actual", c.zero_actuals,
                                lambda: getattr(c, total), scale)


def _percent(mean):
    return 100.0 * mean


def _mrae(c):
    # |A_i - m| == 0 exactly when A_i == m: a float difference is never 0 otherwise
    m = c.a_mean
    return _term_mean(c, "MRAE", "constant_actual", c.a.count(m),
                      lambda: fsum(_quotients(map(abs, c.e),
                                              lambda: map(abs, map(sub, c.a, repeat(m))))))


def _fae(c):
    # |A_i| + |P_i| == 0 exactly when both are zero
    zero_pairs = sum(map(not_, compress(c.p, map(not_, c.a))))
    return _term_mean(c, "FAE", "zero_pair", zero_pairs,
                      lambda: fsum(_quotients(map(mul, repeat(2.0), map(abs, c.e)),
                                              lambda: map(add, map(abs, c.a), map(abs, c.p)))))


def _unless_zero(metric_id, statistic, reason, finish):
    """A metric that is undefined with ``reason`` when the named statistic is zero."""
    def fn(c):
        if getattr(c, statistic) == 0:
            return MetricValue.undefined(metric_id, reason)
        return MetricValue.defined(metric_id, finish(c))
    return fn


def _over_variance(metric_id, finish):
    # Two-pass n-1 variance of the actuals.
    def fn(c):
        if c.n < 2:
            return MetricValue.undefined(metric_id, "too_short")
        var = c.s_aa / (c.n - 1)
        if var == 0:
            return MetricValue.undefined(metric_id, "constant_actual")
        return MetricValue.defined(metric_id, finish(c, var))
    return fn


def _r(c):
    if c.s_aa == 0:
        return MetricValue.undefined("R", "constant_actual")
    if c.s_pp == 0:
        return MetricValue.undefined("R", "constant_predicted")
    return MetricValue.defined("R", c.r)


def _mase(c):
    if not c.data.ordered:
        return MetricValue.undefined("MASE", "unordered_series")
    if c.n < 2:
        return MetricValue.undefined("MASE", "too_short")
    a = c.a
    naive = fsum(map(abs, map(sub, islice(a, 1, None), a))) / (c.n - 1)
    if naive == 0:
        return MetricValue.undefined("MASE", "zero_naive_error")
    return MetricValue.defined("MASE", (c.sum_abs_e / c.n) / naive)


METRICS = {m.id: m for m in (
    Metric("ME", lambda c: MetricValue.defined("ME", fsum(c.e) / c.n),
           "ME = mean(E_i), E_i = A_i - P_i"),
    Metric("MNB", _ratio_mean("MNB", "ratio_sum"),
           "MNB = mean(E_i / A_i)"),
    Metric("MPE", _ratio_mean("MPE", "ratio_sum", _percent),
           "MPE = 100 * mean(E_i / A_i)"),
    Metric("MAE", lambda c: MetricValue.defined("MAE", c.sum_abs_e / c.n),
           "MAE = mean(|E_i|)"),
    Metric("MAPE", _ratio_mean("MAPE", "abs_ratio_sum", _percent),
           "MAPE = 100 * mean(|E_i / A_i|)"),
    Metric("RAE", _unless_zero("RAE", "abs_dev_a", "constant_actual",
                               lambda c: c.sum_abs_e / c.abs_dev_a),
           "RAE = sum(|E_i|) / sum(|A_i - mean(A)|)  [mean-of-actuals baseline]"),
    Metric("MARE", _ratio_mean("MARE", "abs_ratio_sum"),
           "MARE = mean(|E_i / A_i|)"),
    Metric("MRAE", _mrae,
           "MRAE = mean(|E_i| / |A_i - mean(A)|)  [per-term mean-of-actuals baseline]"),
    Metric("GMAE", lambda c: MetricValue.defined("GMAE", c.geo_mean_abs),
           "GMAE = exp(mean(log|E_i|)); 0 when any E_i == 0"),
    Metric("FAE", _fae, "FAE = mean(2|E_i| / (|A_i| + |P_i|))"),
    Metric("MSE", lambda c: MetricValue.defined("MSE", c.sse / c.n),
           "MSE = sum(E_i^2) / n"),
    Metric("RMSE", lambda c: MetricValue.defined("RMSE", math.sqrt(c.sse / c.n)),
           "RMSE = sqrt(MSE)"),
    Metric("SSE", lambda c: MetricValue.defined("SSE", c.sse), "SSE = sum(E_i^2)"),
    Metric("RSE", _unless_zero("RSE", "s_aa", "constant_actual",
                               lambda c: c.sse / c.s_aa),
           "RSE = sum(E_i^2) / sum((A_i - mean(A))^2)"),
    Metric("RRSE", _unless_zero("RRSE", "s_aa", "constant_actual",
                                lambda c: math.sqrt(c.sse / c.s_aa)),
           "RRSE = sqrt(RSE)"),
    Metric("GRMSE", lambda c: MetricValue.defined("GRMSE", c.geo_mean_abs),
           "GRMSE = exp(mean(log|E_i|)); algebraically equal to GMAE"),
    Metric("MSPE", _ratio_mean("MSPE", "sq_ratio_sum", _percent),
           "MSPE = 100 * mean((E_i / A_i)^2)"),
    Metric("RMSPE", _ratio_mean("RMSPE", "sq_ratio_sum",
                                lambda mean: 100.0 * math.sqrt(mean)),
           "RMSPE = 100 * sqrt(mean((E_i / A_i)^2))"),
    Metric("NRMSE", _unless_zero("NRMSE", "a_mean", "zero_mean_actual",
                                 lambda c: math.sqrt(c.sse / c.n) / c.a_mean),
           "NRMSE = RMSE / mean(A)"),
    Metric("NRMSE_SD", _over_variance("NRMSE_SD",
                                      lambda c, var: math.sqrt(c.sse / c.n) / math.sqrt(var)),
           "NRMSE_SD = RMSE / stdev(A)  [n-1 denominator]"),
    Metric("NMSE", _over_variance("NMSE", lambda c, var: (c.sse / c.n) / var),
           "NMSE = MSE / variance(A)  [n-1 denominator, single power]"),
    Metric("R2", _unless_zero("R2", "s_aa", "constant_actual",
                              lambda c: 1.0 - c.sse / c.s_aa),
           "R2 = 1 - sum((P_i - A_i)^2) / sum((A_i - mean(A))^2)"),
    Metric("R", _r, "R = Pearson correlation of A and P"),
    Metric("MASE", _mase,
           "MASE = MAE / mean(|A_i - A_{i-1}|, i=2..n)  [naive one-step scaling; "
           "requires an ordered series]"),
)}

METRIC_IDS: tuple[str, ...] = tuple(METRICS)


def point_metric(metric_id: str, data: PairedSeries, *,
                 skip_undefined_terms: bool = False) -> MetricValue:
    """Evaluate one metric from the catalog on a paired series."""
    ctx = SeriesContext(data, skip_undefined_terms)
    return evaluate(METRICS, ctx, [metric_id], "regression")[metric_id]


def regression_report(data: PairedSeries, ids, *,
                      skip_undefined_terms: bool = False) -> dict:
    """Evaluate a set of metric ids, computing each shared statistic at most once.

    Returns one MetricValue per id, keyed by id and ordered by catalog order
    regardless of the order ids were supplied in.
    """
    return evaluate(METRICS, SeriesContext(data, skip_undefined_terms), ids, "regression")
