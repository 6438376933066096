"""Exact metamorphic relations: how each metric must move when its input moves.

IEEE 754 rounds every sum, product, quotient and square root correctly, and
``math.fsum`` rounds its exact total once, so scaling every input by a power
of two scales each of them exactly, as long as no value leaves the normal
range (Goldberg, "What Every Computer Scientist Should Know About
Floating-Point Arithmetic", ACM Computing Surveys 23(1), 1991). The values
drawn here have at most six decimals and magnitudes up to 1e3, and ``k`` stays
within 60, far from both ends of that range, so the relations hold bit for
bit. A square taken as ``pow(x, 2)`` breaks them where it misrounds.
"""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modeval.dataset import PairedSeries
from modeval.errors import DefinednessError
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
