"""Multi-criteria model-validation procedures beyond single-metric reporting.

Covers the through-origin slope criterion (k, k', m, n), the external
predictability indicator Rm, the observation-to-parameter adequacy ratio, the
train/validation composite objective, and the normalized reference index for
ranking candidate models. Rm is built from the slope criterion's R2 and Ro2,
so one ``TropshaReport`` carries both.

R-squared here is the squared Pearson correlation of actuals and predictions,
which requires both series to be non-constant; degenerate inputs raise
DefinednessError rather than returning a number.

``CHECKS`` names, for each check, the CLI flags it reads, the call that
builds its report from them and its table of entries over that report. A
number is reported as a MetricValue, a pass flag, verdict or ranking as the
plain value.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat
from math import fsum
from operator import mul, sub

from ._stats import sum_sq
from .dataset import Metric, MetricValue, PairedSeries, _not_real, _repr, _text, evaluate
from .errors import DataError, DefinednessError, UsageError
from .regression import METRICS, SeriesContext

# Not called here: the centred sums and the RMSE/MAE/MAPE values come from one
# shared SeriesContext per series. The names stay importable because
# perfbench/tracing.py patches them to time these layers.
from ._stats import sum_sq_dev  # noqa: F401
from .regression import point_metric  # noqa: F401

SLOPE_RANGE = (0.85, 1.15)
INDEX_LIMIT = 0.1
RM_THRESHOLD = 0.5
ADEQUACY_RANGE = (3.0, 5.0)

# the reference index's error metrics, in the order their definedness is checked
_ERRORS = {metric_id: METRICS[metric_id] for metric_id in ("RMSE", "MAE", "MAPE")}


class TropshaReport(namedtuple("TropshaReport", "r2 k k_prime ro2 ro2_prime m_index n_index "
                                                "pass_k pass_m pass_n overall_pass rm pass_rm")):
    """Through-origin slopes, their performance indexes and pass flags, and the
    external predictability indicator Rm with its own pass flag. The numbers
    are floats, but ``m_index`` and ``n_index`` are None when R2 is 0; the
    flags are bools."""

    __slots__ = ()


class RiRanking(namedtuple("RiRanking", "model_ids normalized ri ranking tied_columns")):
    """Per-model normalized metrics, reference indexes, and the ranking.

    ``normalized`` maps each metric id to a tuple of per-model values. The
    other fields are tuples: the model ids, each model's RI, the model indexes
    in rank order and the zero-range metric ids."""

    __slots__ = ()

    @property
    def warnings(self) -> list[str]:
        """The report's warning about zero-range metric columns, if any."""
        if not self.tied_columns:
            return []
        return ["tied metric column(s): " + ",".join(self.tied_columns)]


def _squared_pearson(ctx: SeriesContext) -> float:
    if ctx.s_aa == 0:
        raise DefinednessError("actual series is constant; correlation undefined")
    if ctx.s_pp == 0:
        raise DefinednessError("predicted series is constant; correlation undefined")
    return ctx.r * ctx.r


def _origin_slopes(data: PairedSeries) -> tuple[float, float]:
    a, p = data.actual, data.predicted
    s_ap = fsum(map(mul, a, p))
    s_pp = sum_sq(p)
    s_aa = sum_sq(a)
    if s_pp == 0:
        raise DefinednessError("sum(P^2) is zero; through-origin slope k undefined")
    if s_aa == 0:
        raise DefinednessError("sum(A^2) is zero; through-origin slope k' undefined")
    return s_ap / s_pp, s_ap / s_aa


def _ro2(values, slope, centered_ss) -> float:
    # 1 - sum((v - slope*v)^2) / sum((v - mean)^2)
    return 1.0 - sum_sq(map(sub, values, map(mul, repeat(slope), values))) / centered_ss


def tropsha_criteria(data: PairedSeries) -> TropshaReport:
    """Slope-through-origin validation.

    Passes when at least one slope lies within ``SLOPE_RANGE`` and both
    performance indexes are below ``INDEX_LIMIT`` in magnitude. Rm passes
    above ``RM_THRESHOLD``.
    """
    if len(data) < 3:
        raise DefinednessError("slope criterion needs at least 3 observations")
    ctx = SeriesContext(data)
    r2 = _squared_pearson(ctx)
    k, k_prime = _origin_slopes(data)
    ro2 = _ro2(data.predicted, k, ctx.s_pp)
    ro2_prime = _ro2(data.actual, k_prime, ctx.s_aa)
    low, high = SLOPE_RANGE
    if r2 == 0:
        m_index = n_index = None
    else:
        m_index = (r2 - ro2) / r2
        n_index = (r2 - ro2_prime) / r2
    pass_k = (low <= k <= high) or (low <= k_prime <= high)
    pass_m = m_index is not None and abs(m_index) < INDEX_LIMIT
    pass_n = n_index is not None and abs(n_index) < INDEX_LIMIT
    rm = r2 * (1.0 - math.sqrt(abs(r2 - ro2)))
    return TropshaReport(r2=r2, k=k, k_prime=k_prime, ro2=ro2, ro2_prime=ro2_prime,
                         m_index=m_index, n_index=n_index, pass_k=pass_k,
                         pass_m=pass_m, pass_n=pass_n,
                         overall_pass=pass_k and pass_m and pass_n,
                         rm=rm, pass_rm=rm > RM_THRESHOLD)


def roy_rm(data: PairedSeries) -> TropshaReport:
    """External predictability indicator Rm = R2 * (1 - sqrt(|R2 - Ro2|)), with
    the R2 and Ro2 of the slope criterion: its report carries all three."""
    return tropsha_criteria(data)


def data_adequacy_ratio(observation_count: int, parameter_count: int) -> float:
    """Observations per input parameter; ``adequacy_verdict`` grades it."""
    for name, count in (("observation", observation_count), ("parameter", parameter_count)):
        # a bool is an int but no count, and 10.9 or "7" is no count either
        if not isinstance(count, int) or isinstance(count, bool):
            raise UsageError(f"{name} count must be an integer, got {_repr(count)}")
    if parameter_count < 1:
        raise UsageError(f"parameter count must be >= 1, got {_repr(parameter_count)}")
    if observation_count < 0:
        raise UsageError(f"observation count must be >= 0, got {_repr(observation_count)}")
    return observation_count / parameter_count


def adequacy_verdict(ratio: float) -> str:
    """``below``, ``within`` or ``above`` ``ADEQUACY_RANGE``; below is inadequate."""
    low, high = ADEQUACY_RANGE
    if ratio < low:
        return "below"
    return "within" if ratio <= high else "above"


def _split_terms(series: PairedSeries):
    ctx = SeriesContext(series)
    rmse, mae = (mv.value for mv in evaluate(_ERRORS, ctx, ("RMSE", "MAE")).values())
    r2 = _squared_pearson(ctx)
    if r2 == 0:
        raise DefinednessError("squared correlation is zero; objective undefined")
    return rmse, mae, r2


def gandomi_objective(train: PairedSeries, validation: PairedSeries) -> MetricValue:
    """Two-term train/validation composite; zero iff both splits fit perfectly."""
    rmse_t, mae_t, r2_t = _split_terms(train)
    rmse_v, mae_v, r2_v = _split_terms(validation)
    nt, nv = len(train), len(validation)
    total = nt + nv
    value = (((nt - nv) / total) * (rmse_t + mae_t) / r2_t
             + (2.0 * nv / total) * (rmse_v + mae_v) / r2_v)
    return MetricValue.defined("OBJ", value)


def _min_max_normalize(column):
    low, high = min(column), max(column)
    if high == low:
        return [0.0] * len(column), True
    return [(v - low) / (high - low) for v in column], False


def reference_index_from_metrics(model_ids, triples) -> RiRanking:
    """Rank models by the mean of min-max normalized (RMSE, MAE, MAPE).

    ``triples`` holds one (rmse, mae, mape) per model: three finite
    non-negative numbers, or a DataError names the model. Zero-range columns
    normalize to 0 for every model and are reported in ``tied_columns``.
    """
    model_ids = tuple(_text(m, "model id") for m in model_ids)
    triples = [tuple(t) for t in triples]
    if len(model_ids) != len(triples):
        raise UsageError(f"{len(model_ids)} model ids but {len(triples)} metric triples")
    if len(model_ids) < 2:
        raise UsageError("reference index needs at least 2 models")
    if len(set(model_ids)) != len(model_ids):
        raise UsageError(f"duplicate model ids in {model_ids}")
    for model_id, triple in zip(model_ids, triples):
        # a negative error would let a column's range overflow to inf and its ri be NaN
        if len(triple) != 3 or any(map(_not_real, triple)) or min(triple) < 0:
            raise DataError(f"model {model_id!r}: (RMSE, MAE, MAPE) must be three "
                            f"finite non-negative numbers, got {_repr(triple)}")
    normalized = {}
    tied = []
    for j, name in enumerate(("RMSE", "MAE", "MAPE")):
        column, is_tied = _min_max_normalize([t[j] for t in triples])
        normalized[name] = tuple(column)
        if is_tied:
            tied.append(name)
    ri = tuple(fsum(normalized[name][i] for name in ("RMSE", "MAE", "MAPE")) / 3.0
               for i in range(len(model_ids)))
    ranking = tuple(sorted(range(len(model_ids)), key=ri.__getitem__))
    return RiRanking(model_ids=model_ids, normalized=normalized, ri=ri,
                     ranking=ranking, tied_columns=tuple(tied))


def reference_index(models) -> RiRanking:
    """Evaluate RMSE/MAE/MAPE per (model_id, PairedSeries) pair and rank them."""
    ids, triples = [], []
    for model_id, series in models:
        values = evaluate(_ERRORS, SeriesContext(series)).values()
        for mv in values:
            if not mv.is_defined:
                raise DefinednessError(f"model {_repr(model_id)}: {mv.id} undefined ({mv.reason})")
        ids.append(model_id)  # reference_index_from_metrics turns it into text
        triples.append(tuple(mv.value for mv in values))
    return reference_index_from_metrics(ids, triples)


def _number(metric_id: str, value: float | None) -> MetricValue:
    """A report's number; a None one had a zero denominator."""
    if value is None:
        return MetricValue.undefined(metric_id, "zero_denominator")
    return MetricValue.defined(metric_id, value)


def _ranked(ri: RiRanking) -> list[MetricValue]:
    return [MetricValue.defined(f"RI[{ri.model_ids[i]}]", ri.ri[i]) for i in ri.ranking]


def _table(*metrics: Metric) -> dict:
    return {m.id: m for m in metrics}


class Check(namedtuple("Check", "needs report table")):
    """A validation check: a tuple of the CLI flags it reads, by argparse dest;
    the call that builds its report from their values, one keyword argument
    per flag; and its entries by id, each a Metric read from that report.
    ``model`` gives (model id, PairedSeries) pairs. The call names its
    function rather than holding it, so it runs whatever perfbench/tracing.py
    has patched in."""

    __slots__ = ()


CHECKS = {
    "tropsha": Check(("input",), lambda input: tropsha_criteria(input), _table(
        Metric("R2", lambda r: _number("R2", r.r2),
               "k = sum(A*P)/sum(P^2); k' = sum(A*P)/sum(A^2); "
               "Ro2 = 1 - sum((P - k*P)^2)/sum((P - mean(P))^2); "
               "Ro2' = 1 - sum((A - k'*A)^2)/sum((A - mean(A))^2); "
               "m = (R2 - Ro2)/R2; n = (R2 - Ro2')/R2; R2 = squared Pearson R"),
        Metric("K", lambda r: _number("K", r.k), ""),
        Metric("K_PRIME", lambda r: _number("K_PRIME", r.k_prime), ""),
        Metric("RO2", lambda r: _number("RO2", r.ro2), ""),
        Metric("RO2_PRIME", lambda r: _number("RO2_PRIME", r.ro2_prime), ""),
        Metric("M_INDEX", lambda r: _number("M_INDEX", r.m_index), ""),
        Metric("N_INDEX", lambda r: _number("N_INDEX", r.n_index), ""),
        Metric("PASS_K", lambda r: r.pass_k,
               f"{SLOPE_RANGE[0]:g} <= k <= {SLOPE_RANGE[1]:g} or "
               f"{SLOPE_RANGE[0]:g} <= k' <= {SLOPE_RANGE[1]:g}"),
        Metric("PASS_M", lambda r: r.pass_m, f"|m| < {INDEX_LIMIT:g}"),
        Metric("PASS_N", lambda r: r.pass_n, f"|n| < {INDEX_LIMIT:g}"),
        Metric("OVERALL_PASS", lambda r: r.overall_pass, ""),
    )),
    "rm": Check(("input",), lambda input: roy_rm(input), _table(
        Metric("RM", lambda r: _number("RM", r.rm),
               f"Rm = R2 * (1 - sqrt(|R2 - Ro2|)); good fit when Rm > {RM_THRESHOLD:g}"),
        Metric("R2", lambda r: _number("R2", r.r2), ""),
        Metric("RO2", lambda r: _number("RO2", r.ro2), ""),
        Metric("PASS_RM", lambda r: r.pass_rm, f"Rm > {RM_THRESHOLD:g}"),
    )),
    # the adequacy check's report is its ratio
    "adequacy": Check(("observations", "parameters"),
                      lambda observations, parameters:
                      data_adequacy_ratio(observations, parameters), _table(
        Metric("RATIO", lambda r: _number("RATIO", r),
               "ratio = observations / parameters; adequate when ratio >= {0:g} "
               "({0:g} to {1:g} is the recommended band)".format(*ADEQUACY_RANGE)),
        Metric("VERDICT", lambda r: adequacy_verdict(r), ""),
        Metric("ADEQUATE", lambda r: adequacy_verdict(r) != "below", ""),
    )),
    # the objective's report is its one value
    "objective": Check(("train", "validation"),
                       lambda train, validation: gandomi_objective(train, validation), _table(
        Metric("OBJ", lambda r: r,
               "OBJ = ((Nt - Nv)/(Nt + Nv)) * (RMSE_t + MAE_t)/R2_t "
               "+ (2*Nv/(Nt + Nv)) * (RMSE_v + MAE_v)/R2_v; lower is better"),
    )),
    # one RI entry per model, best first
    "ri": Check(("model",), lambda model: reference_index(model), _table(
        Metric("RI", _ranked,
               "RI = mean of min-max normalized (RMSE, MAE, MAPE) across the model "
               "set; lower is better; zero-range columns normalize to 0"),
        Metric("RANKING", lambda r: ",".join(r.model_ids[i] for i in r.ranking), ""),
    )),
}
