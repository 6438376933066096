import io
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modeval.dataset import (ConfusionMatrix2, ConfusionMatrixK, MetricValue,
                             NEGATIVE, PairedSeries, POSITIVE, ScoredBinarySet,
                             binarize, confusion_from_labels,
                             confusion_from_scores, load_paired_csv,
                             load_scored_csv)
from modeval.errors import (DataError, EmptyInputError, SchemaError, UsageError)


class TestPairedSeries:
    def test_basic_construction(self):
        s = PairedSeries([1, 2], [3, 4], ordered=True)
        assert s.actual == (1.0, 2.0)
        assert s.predicted == (3.0, 4.0)
        assert s.ordered and len(s) == 2

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            PairedSeries([1, 2], [1])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            PairedSeries([], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError):
            PairedSeries([1, bad], [1, 2])
        with pytest.raises(DataError):
            PairedSeries([1, 2], [bad, 2])


class TestMetricValue:
    def test_defined_requires_finite(self):
        with pytest.raises(DataError):
            MetricValue("X", None, "defined")
        with pytest.raises(DataError):
            MetricValue("X", float("nan"), "defined")

    def test_undefined_requires_reason(self):
        with pytest.raises(DataError):
            MetricValue("X", None, "undefined")
        mv = MetricValue.undefined("X", "zero_denominator")
        assert mv.value is None and not mv.is_defined

    def test_unknown_status(self):
        with pytest.raises(UsageError):
            MetricValue("X", 1.0, "maybe")


class TestLoadPairedCsv:
    def test_direct_parse(self):
        s = load_paired_csv(b"a,p\n1,2\n2,2\n3,4\n4,5", "a", "p")
        assert s.actual == (1.0, 2.0, 3.0, 4.0)
        assert s.predicted == (2.0, 2.0, 4.0, 5.0)
        assert not s.ordered

    def test_nan_cell_names_row_and_column(self):
        with pytest.raises(DataError, match=r"row 1.*'p'"):
            load_paired_csv(b"a,p\n1,NaN", "a", "p")

    def test_header_only(self):
        with pytest.raises(EmptyInputError):
            load_paired_csv(b"a,p\n", "a", "p")

    def test_missing_column(self):
        with pytest.raises(SchemaError, match="'q'"):
            load_paired_csv(b"a,p\n1,2", "a", "q")

    def test_unparseable_cell(self):
        with pytest.raises(DataError, match=r"row 2.*'a'"):
            load_paired_csv(b"a,p\n1,2\nx,3", "a", "p")

    def test_crlf_and_extra_columns(self):
        s = load_paired_csv(b"x,a,p\r\n9,1,2\r\n9,3,4\r\n", "a", "p")
        assert s.actual == (1.0, 3.0)

    def test_file_like_source(self):
        s = load_paired_csv(io.BytesIO(b"a,p\n1,2"), "a", "p", ordered=True)
        assert s.ordered

    def test_drop_bad_rows(self):
        warnings = []
        s = load_paired_csv(b"a,p\n1,2\nbad,3\n4,inf\n5,6", "a", "p",
                            drop_bad_rows=True, warnings=warnings)
        assert s.actual == (1.0, 5.0)
        assert warnings and "2 row(s)" in warnings[0]

    def test_drop_bad_rows_everything_gone(self):
        with pytest.raises(EmptyInputError):
            load_paired_csv(b"a,p\nx,1", "a", "p", drop_bad_rows=True)


class TestLoadScoredCsv:
    def test_direct_parse(self):
        s = load_scored_csv(b"y,s\npos,0.9\nneg,0.3", "y", "s", "pos")
        assert s.labels == (POSITIVE, NEGATIVE)
        assert s.scores == (0.9, 0.3)

    def test_three_labels(self):
        with pytest.raises(SchemaError, match="3 distinct"):
            load_scored_csv(b"y,s\na,1\nb,2\nc,3", "y", "s", "a")

    def test_positive_label_absent(self):
        with pytest.raises(SchemaError, match="'yes'"):
            load_scored_csv(b"y,s\npos,0.9\nneg,0.3", "y", "s", "yes")

    def test_single_label_all_negative_with_warning(self):
        warnings = []
        s = load_scored_csv(b"y,s\nneg,0.9\nneg,0.3", "y", "s", "pos",
                            warnings=warnings)
        assert s.labels == (NEGATIVE, NEGATIVE)
        assert warnings

    def test_single_label_all_positive(self):
        s = load_scored_csv(b"y,s\npos,0.9", "y", "s", "pos")
        assert s.labels == (POSITIVE,)

    def test_bad_score(self):
        with pytest.raises(DataError, match=r"row 1.*'s'"):
            load_scored_csv(b"y,s\npos,oops", "y", "s", "pos")


class TestConfusionFromScores:
    def test_hand_tally(self):
        data = ScoredBinarySet([True, True, False, False], [0.9, 0.4, 0.6, 0.1])
        m = confusion_from_scores(data, 0.5)
        assert (m.tp, m.fn, m.fp, m.tn) == (1, 1, 1, 1)

    def test_threshold_below_all(self):
        data = ScoredBinarySet([True, True, False], [0.9, 0.4, 0.6])
        m = confusion_from_scores(data, 0.0)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 0, 0)

    def test_threshold_above_all(self):
        data = ScoredBinarySet([True, True, False], [0.9, 0.4, 0.6])
        m = confusion_from_scores(data, 2.0)
        assert (m.tn, m.fn, m.tp, m.fp) == (1, 2, 0, 0)

    def test_tie_goes_positive(self):
        data = ScoredBinarySet([True, False], [0.5, 0.5])
        m = confusion_from_scores(data, 0.5)
        assert (m.tp, m.fp) == (1, 1)

    def test_non_finite_threshold(self):
        data = ScoredBinarySet([True], [0.5])
        with pytest.raises(UsageError):
            confusion_from_scores(data, float("inf"))

    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(-10, 10, allow_nan=False)),
                    min_size=1, max_size=30),
           st.floats(-10, 10, allow_nan=False))
    def test_marginals_preserved(self, rows, threshold):
        data = ScoredBinarySet([r[0] for r in rows], [r[1] for r in rows])
        m = confusion_from_scores(data, threshold)
        assert m.tp + m.fn == data.positive_count
        assert m.fp + m.tn == data.negative_count

    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(0, 5).map(float)),
                    min_size=1, max_size=30))
    def test_threshold_monotone(self, rows):
        data = ScoredBinarySet([r[0] for r in rows], [r[1] for r in rows])
        previous_tp, previous_tn = None, None
        for threshold in [-1.0, 0.5, 1.5, 2.5, 3.5, 4.5, 6.0]:
            m = confusion_from_scores(data, threshold)
            if previous_tp is not None:
                assert m.tp <= previous_tp
                assert m.tn >= previous_tn
            previous_tp, previous_tn = m.tp, m.tn


class TestConfusionFromLabels:
    def test_hand_tally(self):
        m = confusion_from_labels(["a", "a", "b"], ["a", "b", "b"])
        assert m.classes == ("a", "b")
        assert m.counts == ((1, 1), (0, 1))

    def test_identity_is_diagonal(self):
        m = confusion_from_labels(["a", "b", "c", "b"], ["a", "b", "c", "b"])
        for i, row in enumerate(m.counts):
            assert all(v == 0 for j, v in enumerate(row) if j != i)

    def test_single_class_rejected(self):
        with pytest.raises(SchemaError):
            confusion_from_labels(["x"], ["x"])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion_from_labels(["a", "b"], ["a"])

    def test_class_union_includes_prediction_only_classes(self):
        m = confusion_from_labels(["a", "a"], ["a", "c"])
        assert m.classes == ("a", "c")


class TestBinarize:
    def test_two_class_identity(self):
        m = ConfusionMatrixK(("a", "b"), ((5, 1), (2, 3)))
        b = binarize(m, "a")
        assert (b.tp, b.fn, b.fp, b.tn) == (5, 1, 2, 3)

    def test_three_class_hand_tally(self):
        m = ConfusionMatrixK(("c0", "c1", "c2"), ((2, 0, 1), (0, 3, 0), (1, 0, 2)))
        b = binarize(m, "c0")
        assert (b.tp, b.fn, b.fp, b.tn) == (2, 1, 1, 5)

    def test_unknown_class(self):
        m = ConfusionMatrixK(("a", "b"), ((1, 0), (0, 1)))
        with pytest.raises(SchemaError):
            binarize(m, "z")

    def test_totals_preserved_for_every_choice(self):
        m = ConfusionMatrixK(("a", "b", "c"), ((4, 1, 0), (2, 5, 1), (0, 3, 6)))
        for cls in m.classes:
            b = binarize(m, cls)
            assert b.total == m.total

    def test_round_trip_matches_direct_tally(self):
        actual = ["p", "p", "p", "n", "n"]
        predicted = ["p", "n", "p", "p", "n"]
        b = binarize(confusion_from_labels(actual, predicted), "p")
        direct = confusion_from_scores(
            ScoredBinarySet([a == "p" for a in actual],
                            [1.0 if p == "p" else 0.0 for p in predicted]), 0.5)
        assert (b.tp, b.fp, b.fn, b.tn) == (direct.tp, direct.fp, direct.fn, direct.tn)


class TestMatrixTypes:
    def test_matrix2_needs_observation(self):
        with pytest.raises(DataError):
            ConfusionMatrix2(0, 0, 0, 0)

    def test_matrix2_rejects_negative_and_float(self):
        with pytest.raises(DataError):
            ConfusionMatrix2(-1, 0, 0, 2)
        with pytest.raises(DataError):
            ConfusionMatrix2(1.5, 0, 0, 2)

    def test_matrixk_shape_checks(self):
        with pytest.raises(SchemaError):
            ConfusionMatrixK(("a",), ((1,),))
        with pytest.raises(DataError):
            ConfusionMatrixK(("a", "b"), ((1, 0),))
        with pytest.raises(DataError):
            ConfusionMatrixK(("a", "b"), ((1, 0), (0, -1)))

    def test_matrixk_totals(self):
        m = ConfusionMatrixK(("a", "b"), ((1, 2), (3, 4)))
        assert m.total == 10
        assert m.row_totals() == (3, 7)
        assert m.col_totals() == (4, 6)
        assert m.diagonal_total() == 5


class TestScoredBinarySetCache:
    def test_flags_and_positive_count_are_computed_once(self):
        data = ScoredBinarySet([True, False, True], [0.9, 0.2, 0.4])
        assert data.flags is data.flags
        assert data.flags == (True, False, True)
        assert data.positive_count == 2 and data.negative_count == 1
