"""The contract every public value type keeps: keyword construction by field
name, equality and hashing by field, a ``Name(field=value, ...)`` repr, and
no assignment or deletion after construction."""

import math
from array import array

import pytest

from modeval.classification import ProbabilityMatrix, RateSet
from modeval.curves import CalibrationReport, PrCurve, RocCurve
from modeval.dataset import (ConfusionMatrix2, ConfusionMatrixK, Metric, MetricValue,
                             PairedSeries, ScoredBinarySet)
from modeval.gp_fitness import ClassOutputs
from modeval.validation import RiRanking, TropshaReport

MAE = MetricValue("MAE", 0.5, "defined")
UNDEFINED = MetricValue("MAPE", None, "undefined", "zero_actual")

# (type, every field by keyword in declaration order, one field changed)
CASES = [
    (MetricValue, dict(id="LIFT", value=1.5, status="defined", reason=None, dropped_terms=2,
                       flags=("tie_at_cut",)), dict(dropped_terms=3)),
    (Metric, dict(id="MAE", fn=abs, note="MAE = mean(|E_i|)"), dict(note="")),
    (PairedSeries, dict(actual=array("d", [1.0, 2.0]), predicted=array("d", [1.5, 2.0]),
                        ordered=True), dict(ordered=False)),
    (ScoredBinarySet, dict(labels=(True, False), scores=array("d", [0.9, 0.2])),
     dict(scores=array("d", [0.9, 0.3]))),
    (ConfusionMatrix2, dict(tp=1, fp=2, fn=3, tn=4), dict(tn=5)),
    (ConfusionMatrixK, dict(classes=("a", "b"), counts=((1, 2), (3, 4))),
     dict(classes=("a", "c"))),
    (RateSet, dict(tpr=MAE, tnr=MAE, ppv=MAE, npv=MAE, fpr=MAE, fnr=MAE, fdr=MAE,
                   for_rate=UNDEFINED), dict(tpr=UNDEFINED)),
    (ProbabilityMatrix, dict(rows=((0.25, 0.75), (1.0, 0.0)), true_class=(1, 0)),
     dict(true_class=(1, 1))),
    (TropshaReport, dict(r2=0.9, k=1.0, k_prime=0.98, ro2=0.89, ro2_prime=0.88,
                         m_index=0.01, n_index=None, pass_k=True, pass_m=True, pass_n=False,
                         overall_pass=False, rm=0.6, pass_rm=True), dict(n_index=0.02)),
    (RiRanking, dict(model_ids=("a", "b"), normalized={"RMSE": (0.0, 1.0)}, ri=(0.0, 1.0),
                     ranking=(0, 1), tied_columns=()), dict(tied_columns=("MAE",))),
    (RocCurve, dict(fpr=array("d", [0.0, 1.0]), tpr=array("d", [0.0, 1.0]),
                    thresholds=(math.inf, 0.5)), dict(thresholds=(math.inf, 0.25))),
    (PrCurve, dict(recall=array("d", [0.5, 1.0]), precision=array("d", [1.0, 0.5]),
                   thresholds=(0.9, 0.1)), dict(thresholds=(0.9, 0.2))),
    (CalibrationReport, dict(window_errors=(0.125, 0.25), cal=0.1875), dict(cal=0.25)),
    (ClassOutputs, dict(minority=(1.0, 2.0), majority=(-1.0,)), dict(majority=(-2.0,))),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields, changed", CASES,
                         ids=[cls.__name__ for cls, _, _ in CASES])
class TestValueType:
    def test_keyword_construction_and_repr(self, cls, fields, changed):
        value = cls(**fields)
        assert all(getattr(value, name) == field for name, field in fields.items())
        shown = ", ".join(f"{name}={field!r}" for name, field in fields.items())
        assert repr(value) == f"{cls.__qualname__}({shown})"

    def test_equality_and_hash_by_field(self, cls, fields, changed):
        value, same = cls(**fields), cls(**fields)
        assert value == same and not value != same
        assert value != cls(**{**fields, **changed})
        # the stored fields decide: a constructor may turn a hashable argument into an array
        if all(_hashable(getattr(value, name)) for name in fields):
            assert hash(value) == hash(same)
        else:  # a dict or an array column is not hashable, and so neither is its holder
            with pytest.raises(TypeError):
                hash(value)

    def test_no_assignment_or_deletion(self, cls, fields, changed):
        value = cls(**fields)
        for name, field in fields.items():
            with pytest.raises(AttributeError):
                setattr(value, name, field)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == cls(**fields)


def test_defaults():
    assert MetricValue(id="ACC", value=1.0, status="defined") == MetricValue(
        id="ACC", value=1.0, status="defined", reason=None, dropped_terms=0, flags=())
    assert PairedSeries(actual=(1.0,), predicted=(2.0,)).ordered is False


def test_cached_properties_leave_equality_alone():
    data = ScoredBinarySet((True, False, True), (0.5, 0.5, 0.25))
    assert data.ranking is data.ranking
    assert data.positive_count == 2
    assert data == ScoredBinarySet(("positive", "negative", "positive"), (0.5, 0.5, 0.25))
    with pytest.raises(TypeError):  # its scores are an array column
        hash(data)
    outputs = ClassOutputs((1.0, 3.0), (-1.0,))
    assert (outputs.minority_mean, outputs.minority_std) == (2.0, 1.0)
    assert outputs == ClassOutputs((1.0, 3.0), (-1.0,))
    assert hash(outputs) == hash(ClassOutputs((1.0, 3.0), (-1.0,)))
