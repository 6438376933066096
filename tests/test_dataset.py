import gc
import io
import math
import random
import re
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reference_paired_csv, reference_scored_csv
from modeval.classification import ProbabilityMatrix, average_class_accuracy, f_beta
from modeval.curves import lift
from modeval.dataset import (ConfusionMatrix2, ConfusionMatrixK, MetricValue,
                             NEGATIVE, PairedSeries, POSITIVE, ScoredBinarySet,
                             _BLOCK_ROWS, _check_probabilities, _real_column, binarize,
                             confusion_from_labels, confusion_from_scores, load_paired_csv,
                             load_scored_csv)
from modeval.errors import (DataError, EmptyInputError, MetricsError, SchemaError,
                            UsageError)
from modeval.gp_fitness import ClassOutputs
from modeval.regression import METRIC_IDS, regression_report
from modeval.validation import data_adequacy_ratio, reference_index_from_metrics


class TestPairedSeries:
    def test_basic_construction(self):
        s = PairedSeries([1, 2], [3, 4], ordered=True)
        assert s.actual == array("d", (1.0, 2.0))
        assert s.predicted == array("d", (3.0, 4.0))
        assert s.actual.typecode == s.predicted.typecode == "d"
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
        assert s.actual == array("d", (1.0, 2.0, 3.0, 4.0))
        assert s.predicted == array("d", (2.0, 2.0, 4.0, 5.0))
        assert s.actual.typecode == s.predicted.typecode == "d"
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
        assert s.actual == array("d", (1.0, 3.0))

    def test_file_like_source(self):
        s = load_paired_csv(io.BytesIO(b"a,p\n1,2"), "a", "p", ordered=True)
        assert s.ordered

    def test_drop_bad_rows(self):
        warnings = []
        s = load_paired_csv(b"a,p\n1,2\nbad,3\n4,inf\n5,6", "a", "p",
                            drop_bad_rows=True, warnings=warnings)
        assert s.actual == array("d", (1.0, 5.0))
        assert warnings and "2 row(s)" in warnings[0]

    def test_drop_bad_rows_everything_gone(self):
        with pytest.raises(EmptyInputError):
            load_paired_csv(b"a,p\nx,1", "a", "p", drop_bad_rows=True)


class TestByteOrderMark:
    def test_bom_bytes_and_text_read_like_plain(self):
        plain = load_paired_csv(b"a,p\n1,2\n3,5\n", "a", "p")
        assert load_paired_csv(b"\xef\xbb\xbfa,p\n1,2\n3,5\n", "a", "p") == plain
        assert load_paired_csv("\ufeffa,p\n1,2\n3,5\n", "a", "p") == plain
        scored = load_scored_csv("\ufeffy,s\npos,0.9\nneg,0.3", "y", "s", "pos")
        assert scored.scores == array("d", (0.9, 0.3))

    def test_only_one_leading_bom_is_dropped(self):
        with pytest.raises(SchemaError, match=r"\\ufeffa"):
            load_paired_csv("\ufeff\ufeffa,p\n1,2", "a", "p")


class TestRecordRules:
    """The csv module splits records; only \\n, \\r\\n and \\r end one."""

    @pytest.mark.parametrize("separator", ["\x0b", "\u2028", "\x85"])
    def test_other_line_separators_stay_inside_the_cell(self, separator):
        data = f"a,p\n1{separator}2,3\n".encode()
        with pytest.raises(DataError) as info:
            load_paired_csv(data, "a", "p")
        assert str(info.value) == (
            f"row 1, column 'a': cannot parse {'1' + separator + '2'!r} as a number")

    def test_quoted_newline_stays_in_the_label(self):
        s = load_scored_csv(b'y,s\n"pos\nx",0.9\nneg,0.3\n', "y", "s", "pos\nx")
        assert s.labels == (True, False)

    def test_row_numbers_count_records_not_lines(self):
        with pytest.raises(DataError, match=r"^row 3, column 's'"):
            load_scored_csv(b'y,s\n"pos\n\nx",0.9\n\nneg,0.3\npos,bad\n', "y", "s", "pos")

    @pytest.mark.parametrize("data, offset", [
        (b"a\xff,p\n1,2\n", 1),
        (b"a,p\n1,2\n\xff3,4\n", 8),
        (b"a,p\n" + b"1,2\n" * 5000 + b"3,\xe2\x82", 20004 + 2),
    ], ids=["header", "row", "truncated-after-chunks"])
    def test_invalid_utf8_names_the_byte(self, data, offset):
        with pytest.raises(DataError, match=f"^input is not valid UTF-8: .* at byte {offset}$"):
            load_paired_csv(data, "a", "p")

    def test_lone_surrogate_loads_from_text_only(self):
        s = load_scored_csv("y,s\npos\ud800,0.9\nneg,0.3\n", "y", "s", "pos\ud800")
        assert s.labels == (True, False)
        with pytest.raises(DataError, match="not valid UTF-8"):
            load_scored_csv("y,s\npos\ud800,0.9\n".encode("utf-8", "surrogatepass"),
                            "y", "s", "pos")


def _outcome(load, source, *args, **kwargs):
    """What a load gives: the container and its warnings, or the error."""
    warnings = []
    try:
        return load(source, *args, warnings=warnings, **kwargs), warnings
    except MetricsError as exc:
        return type(exc), str(exc)


LATE_BAD_BYTE = b"1,2\n" * 5000 + b"3,\xe2\x82"


class TestBinaryFileSource:
    """A binary file reads exactly as its bytes do and is left open."""

    @pytest.mark.parametrize("load, data, args, kwargs", [
        (load_paired_csv, b"\xef\xbb\xbfa,p\r\n1,2\r\nbad,3\r\n4,inf\r\n5,6",
         ("a", "p"), {"drop_bad_rows": True}),
        (load_paired_csv, b"a,p\n1,2\nx,3", ("a", "p"), {}),
        (load_paired_csv, b"a,p\n" + LATE_BAD_BYTE, ("a", "p"), {}),
        (load_paired_csv, b'a,p\n1,2\n"3,4\n', ("a", "p"), {}),
        (load_paired_csv, b"a,q\n1,2", ("a", "p"), {}),
        (load_paired_csv, b"", ("a", "p"), {}),
        (load_scored_csv, b"y,s\npos,0.9\nneg,oops\nneg,0.3\n", ("y", "s", "pos"),
         {"drop_bad_rows": True}),
        (load_scored_csv, b"y,s\nneg,0.9\nneg,0.3", ("y", "s", "pos"), {}),
        (load_scored_csv, b"y,s\na,1\nb,2\nc,3", ("y", "s", "a"), {}),
        (load_scored_csv, b"y,s\n" + LATE_BAD_BYTE, ("y", "s", "pos"), {}),
    ], ids=["paired-dropped-rows", "paired-bad-cell", "paired-bad-utf8",
            "paired-open-quote", "paired-missing-column", "paired-empty",
            "scored-dropped-rows", "scored-single-label", "scored-three-labels",
            "scored-bad-utf8"])
    def test_file_reads_like_its_bytes(self, tmp_path, load, data, args, kwargs):
        path = tmp_path / "input.csv"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            assert _outcome(load, fh, *args, **kwargs) == _outcome(load, data, *args, **kwargs)
            assert not fh.closed
            fh.seek(0)
            assert fh.read() == data


class TestLoadScoredCsv:
    def test_direct_parse(self):
        s = load_scored_csv(b"y,s\npos,0.9\nneg,0.3", "y", "s", "pos")
        assert s.labels == (True, False)
        assert s.scores == array("d", (0.9, 0.3)) and s.scores.typecode == "d"

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
        assert s.labels == (False, False)
        assert warnings

    def test_single_label_all_positive(self):
        s = load_scored_csv(b"y,s\npos,0.9", "y", "s", "pos")
        assert s.labels == (True,)

    def test_bad_score(self):
        with pytest.raises(DataError, match=r"row 1.*'s'"):
            load_scored_csv(b"y,s\npos,oops", "y", "s", "pos")


class TestContainerChecks:
    def test_first_non_finite_index_named(self):
        with pytest.raises(DataError, match=r"predicted\[2\] is not finite: inf"):
            PairedSeries([1, 2, 3, 4], [1, 2, math.inf, math.nan])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_in_an_array_argument_is_named(self, bad):
        # an array("d") argument is copied whole, not converted, and still checked
        column = array("d", (1.0, 2.0, bad, bad))
        with pytest.raises(DataError, match=rf"^actual\[2\] is not finite: {bad!r}$"):
            PairedSeries(column, array("d", (1.0, 2.0, 3.0, 4.0)))
        with pytest.raises(DataError, match=rf"^predicted\[2\] is not finite: {bad!r}$"):
            PairedSeries([1, 2, 3, 4], column)
        with pytest.raises(DataError, match=rf"^scores\[2\] is not finite: {bad!r}$"):
            ScoredBinarySet([True] * 4, column)

    def test_a_constructor_copies_an_array_argument(self):
        actual, predicted = array("d", (1.0, 2.0)), array("d", (3.0, 4.0))
        series = PairedSeries(actual, predicted)
        scored = ScoredBinarySet([True, False], predicted)
        actual[0] = predicted[0] = math.nan
        assert series.actual == array("d", (1.0, 2.0))
        assert series.predicted == scored.scores == array("d", (3.0, 4.0))
        assert series.actual is not actual and scored.scores is not predicted

    def test_first_out_of_range_score_named(self):
        with pytest.raises(DataError, match=r"scores\[1\] = 1.5 outside"):
            _check_probabilities(ScoredBinarySet([True] * 3, [0.5, 1.5, -1.0]).scores)
        _check_probabilities((0.0, -0.0, 1.0))

    def test_bool_and_constant_labels_mix(self):
        data = ScoredBinarySet([True, NEGATIVE, False, POSITIVE], [0.1] * 4)
        assert data.labels == (True, False, False, True)
        assert set(map(type, data.labels)) == {bool}

    @pytest.mark.parametrize("bad", ["pos", 1, None, ["positive"]])
    def test_other_labels_rejected(self, bad):
        with pytest.raises(DataError, match="label must be"):
            ScoredBinarySet([POSITIVE, bad], [0.1, 0.2])

    @pytest.mark.parametrize("bad", [[1, 0], [1.0, 0.0], [True, 1], [0, False]])
    def test_numbers_equal_to_bools_rejected(self, bad):
        # 1 == True and 0 == False, so a check by == or by count(True) would let these in
        with pytest.raises(DataError, match="label must be"):
            ScoredBinarySet(bad, [0.1, 0.2])


# Each numeric field of a value type, built with ``bad`` as the value at the
# field index named. A two-column type gets a partner column one value short,
# so a bad value is also shown to be named before a length mismatch.
_NUMERIC_FIELDS = {
    "actual[1]": lambda bad: PairedSeries([1.0, bad], [1.0]),
    "predicted[1]": lambda bad: PairedSeries([1.0], [1.0, bad]),
    "scores[1]": lambda bad: ScoredBinarySet([True], [0.5, bad]),
    "minority[1]": lambda bad: ClassOutputs([1.0, bad], [-1.0]),
    "majority[1]": lambda bad: ClassOutputs([1.0], [-1.0, bad]),
    "rows[1][0]": lambda bad: ProbabilityMatrix(((0.5, 0.5), (bad, 0.5)), (0,)),
}

# Each bad value, and how the rule names it after the field and index.
_NOT_REAL = [
    ("1", r"is not a real number: '1'"),
    (b"1", r"is not a real number: b'1'"),
    (True, r"is not a real number: True"),
    (None, r"is not a real number: None"),
    (10 ** 400, r"is an int too large for a double \(1329 bits\)"),
    (math.nan, r"is not finite: nan"),
]
_NOT_REAL_IDS = ["str", "bytes", "bool", "None", "huge_int", "nan"]

# Each scalar parameter, called with ``bad`` on valid data.
_SCALAR_PARAMETERS = {
    "threshold": lambda bad: confusion_from_scores(ScoredBinarySet([True], [0.5]), bad),
    "beta": lambda bad: f_beta(ConfusionMatrix2(1, 1, 1, 1), bad),
    "weight": lambda bad: average_class_accuracy(ConfusionMatrix2(1, 1, 1, 1), bad),
    "fraction": lambda bad: lift(ScoredBinarySet([True, False], [0.9, 0.1]), bad),
}


_HUGE = 10 ** 5000  # 16610 bits, past the default limit of 4300 digits


@pytest.fixture
def default_int_digit_limit():
    # the repr of an int past this limit raises ValueError (Python 3.10.7 and later)
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts an int of any length to str")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


class TestRealNumberRule:
    @pytest.mark.parametrize("bad, problem", _NOT_REAL, ids=_NOT_REAL_IDS)
    @pytest.mark.parametrize("field", _NUMERIC_FIELDS)
    def test_every_numeric_field_names_its_first_bad_value(self, field, bad, problem):
        with pytest.raises(DataError, match=rf"^{re.escape(field)} {problem}$"):
            _NUMERIC_FIELDS[field](bad)

    @pytest.mark.parametrize("bad, problem", [*_NOT_REAL, (math.inf, r"is not finite: inf")],
                             ids=[*_NOT_REAL_IDS, "inf"])
    @pytest.mark.parametrize("name", _SCALAR_PARAMETERS)
    def test_every_scalar_parameter_is_a_real_number(self, name, bad, problem):
        with pytest.raises(UsageError, match=rf"^{name} {problem}$"):
            _SCALAR_PARAMETERS[name](bad)

    def test_the_first_bad_value_is_named_whatever_its_kind(self):
        with pytest.raises(DataError, match=r"^actual\[0\] is not a real number: '1'$"):
            PairedSeries(["1", True], [2, "3"])
        with pytest.raises(DataError, match=r"^predicted\[1\] is not finite: nan$"):
            PairedSeries([1, 2], (v for v in [0.5, math.nan, "x"]))
        with pytest.raises(DataError, match=r"^scores\[1\] is an int too large"):
            ScoredBinarySet([True, False, True], [1, -(10 ** 400), math.inf])

    @pytest.mark.parametrize("call, error, message", [
        (lambda: reference_index_from_metrics(["a", "b"], [(1, 2, 3), (_HUGE, 1, 1)]), DataError,
         r"model 'b': \(RMSE, MAE, MAPE\) must be three finite non-negative numbers, "
         r"got \(<int of 16610 bits>, 1, 1\)"),
        (lambda: ConfusionMatrix2(-_HUGE, 1, 1, 1), DataError,
         r"tp must be a non-negative integer, got -<int of 16610 bits>"),
        (lambda: ProbabilityMatrix([(0.5, 0.5)], [_HUGE]), DataError,
         r"true_class\[0\] = <int of 16610 bits> is not an integer in 0\.\.1"),
        (lambda: data_adequacy_ratio(-_HUGE, 1), UsageError,
         r"observation count must be >= 0, got -<int of 16610 bits>"),
        (lambda: data_adequacy_ratio(1, -_HUGE), UsageError,
         r"parameter count must be >= 1, got -<int of 16610 bits>"),
    ], ids=["ri_triple", "confusion_count", "true_class", "observation_count",
            "parameter_count"])
    def test_an_int_past_the_digit_limit_shows_its_bit_length(
            self, default_int_digit_limit, call, error, message):
        with pytest.raises(error, match=rf"^{message}$"):
            call()

    @pytest.mark.parametrize("values", [[1e308, 1e308], array("d", [1e308, 1e308]),
                                        [float.fromhex("0x1p-1074"), type("F", (float,), {})(2.5)],
                                        [2 ** 1023, 2 ** 1023]],
                             ids=["overflowing_sum", "overflowing_sum_array", "float_subclass",
                                  "overflowing_int_sum"])
    def test_finite_values_that_take_the_scan_still_load(self, values):
        # a sum that overflows, or a subclass of float, sends a valid column to the scan
        assert PairedSeries(values, values).actual.tolist() == [float(v) for v in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-(2 ** 1000), 2 ** 1000),
                              st.sampled_from([2 ** 53 + 1, -(2 ** 63) - 1, -0.0, 5e-324]),
                              st.floats(allow_nan=False, allow_infinity=False)), max_size=40),
           st.sampled_from([list, tuple, iter, lambda v: array("d", v)]))
    def test_valid_values_keep_their_bits(self, values, container):
        column = _real_column(container(values), "values")
        assert column.typecode == "d"
        assert column.tobytes() == array("d", map(float, values)).tobytes()


def _quoted(cell, force):
    if force or "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["pos", "neg", "nan", "-NaN", "inf", "-Infinity", "1e999", "abc",
                     "", " 2.5 ", "1,5", 'say "x"', "0.25"]))


@st.composite
def _csv_texts(draw, columns):
    """Header-bearing CSV text with blank lines, CRLF, quoted commas and short rows."""
    header = draw(st.lists(st.sampled_from(columns), max_size=4))
    rows = draw(st.lists(st.lists(st.tuples(_CELLS, st.booleans()), max_size=4),
                         max_size=12))
    lines = [",".join(header)]
    lines += [",".join(_quoted(cell, force) for cell, force in row) for row in rows]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(load, *args, **kwargs):
    """A loader's result or its error type and message, plus its warnings."""
    warnings = []
    try:
        result = load(*args, warnings=warnings, **kwargs)
    except MetricsError as exc:
        result = (type(exc), str(exc))
    return result, warnings


def _hex(values):
    return [float(v).hex() for v in values]


class TestStreamingLoadersMatchReference:
    @given(_csv_texts(["a", "p", "x"]), st.booleans(), st.booleans())
    def test_paired(self, text, drop_bad_rows, as_bytes):
        source = text.encode() if as_bytes else text
        got, got_warnings = _outcome(load_paired_csv, source, "a", "p",
                                     drop_bad_rows=drop_bad_rows)
        want, want_warnings = _outcome(reference_paired_csv, text, "a", "p",
                                       drop_bad_rows=drop_bad_rows)
        assert got_warnings == want_warnings
        if isinstance(got, PairedSeries):
            assert (_hex(got.actual), _hex(got.predicted)) == tuple(map(_hex, want))
        else:
            assert got == want

    @given(_csv_texts(["y", "s", "x"]), st.sampled_from(["pos", "neg", "abc"]),
           st.booleans())
    def test_scored(self, text, positive_label, drop_bad_rows):
        got, got_warnings = _outcome(load_scored_csv, text, "y", "s", positive_label,
                                     drop_bad_rows=drop_bad_rows)
        want, want_warnings = _outcome(reference_scored_csv, text, "y", "s",
                                       positive_label, drop_bad_rows=drop_bad_rows)
        assert got_warnings == want_warnings
        if isinstance(got, ScoredBinarySet):
            assert (list(got.labels), _hex(got.scores)) == (want[0], _hex(want[1]))
        else:
            assert got == want


_DEFECTS = ("bad_cell", "short_row", "blank_lines", "open_quote", "bad_byte")
_BAD_CELLS = ("abc", "", " ", "nan", "-inf", "1e999")


@st.composite
def _block_edge_csv(draw, header, row, numeric):
    """A CSV of more than two loader blocks of rows, as bytes, with one to three
    defects, each on the first, middle or last row of a block.

    ``row(rng, t)`` makes good row ``t``; ``numeric`` lists the indices of its
    numeric cells. A short row keeps only its first cell. An open quote ends
    the input, and its record number comes with the bytes (None without
    one). The text stays below one 8192-byte decoder chunk, so an invalid
    byte fails the load before any row is read.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(2 * _BLOCK_ROWS + 1, 4 * _BLOCK_ROWS))
    rows = [row(rng, t) for t in range(n)]
    blank = [0] * n
    edges = [i for start in range(0, n, _BLOCK_ROWS)
             for i in (start, start + _BLOCK_ROWS // 2 - 1, start + _BLOCK_ROWS - 1) if i < n]
    quoted = None
    defects = st.tuples(st.sampled_from(_DEFECTS), st.sampled_from(edges))
    for kind, i in draw(st.lists(defects, min_size=1, max_size=3)):
        if kind == "bad_cell":
            column = draw(st.sampled_from(numeric))
            if column < len(rows[i]):  # a row made short has lost it
                rows[i][column] = draw(st.sampled_from(_BAD_CELLS))
        elif kind == "short_row":
            rows[i] = rows[i][:1]
        elif kind == "blank_lines":
            blank[i] += draw(st.integers(1, 2))
        elif kind == "open_quote":
            quoted = i if quoted is None else min(quoted, i)
        else:  # a lone surrogate escape encodes as the invalid byte 0xff
            rows[i][0] += "\udcff"
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(header)]
    for i, cells in enumerate(rows[:None if quoted is None else quoted + 1]):
        lines += [""] * blank[i]
        if i == quoted:
            cells = [*cells[:-1], '"' + cells[-1]]
        lines.append(",".join(cells))
    data = (end.join(lines) + draw(st.sampled_from(["", end]))).encode("utf-8", "surrogateescape")
    assert len(data) < 8192
    return data, None if quoted is None else quoted + 1


def _outcome_at_block_edges(load, reference, data, quoted, *args, **kwargs):
    """The load's outcome and, from the reference loader, the outcome it should have.

    An invalid byte fails the whole load. An open quote at the end of the
    input is a csv error on its record, unless an earlier row already fails
    the load under the strict rule, as the reference shows on the rows before it.
    """
    got = _outcome(load, data, *args, **kwargs)
    if b"\xff" in data:
        offset = data.index(b"\xff")
        return got, ((DataError, f"input is not valid UTF-8: invalid start byte at byte {offset}"),
                     [])
    text = data.decode()
    if quoted is None:
        return got, _outcome(reference, text, *args, **kwargs)
    before = text[:text.rindex('"')]
    before = before[:max(before.rfind("\n"), before.rfind("\r")) + 1]
    want = _outcome(reference, before, *args, **kwargs)
    if not (isinstance(want[0], tuple) and want[0][0] is DataError):
        want = ((DataError, f"row {quoted}: unexpected end of data"), [])
    return got, want


class TestBlockEdgesMatchReference:
    """Defects on a loader block's first, middle and last rows: the same values,
    messages and warnings as the row-at-a-time reference loaders."""

    @settings(max_examples=150, deadline=None)
    @given(_block_edge_csv(["t", "a", "p"], lambda rng, t: [
               str(t), str(rng.randrange(-99999, 99999) / 100), str(rng.randrange(999) / 8)],
               (1, 2)),
           st.booleans())
    def test_paired(self, case, drop_bad_rows):
        (got, got_warnings), (want, want_warnings) = _outcome_at_block_edges(
            load_paired_csv, reference_paired_csv, *case, "a", "p", drop_bad_rows=drop_bad_rows)
        assert got_warnings == want_warnings
        if isinstance(got, PairedSeries):
            assert (_hex(got.actual), _hex(got.predicted)) == tuple(map(_hex, want))
        else:
            assert got == want

    @settings(max_examples=150, deadline=None)
    @given(_block_edge_csv(["id", "y", "s"], lambda rng, t: [
               str(t), rng.choice(("pos", "neg")), str(round(rng.random(), 4))], (2,)),
           st.booleans())
    def test_scored(self, case, drop_bad_rows):
        (got, got_warnings), (want, want_warnings) = _outcome_at_block_edges(
            load_scored_csv, reference_scored_csv, *case, "y", "s", "pos",
            drop_bad_rows=drop_bad_rows)
        assert got_warnings == want_warnings
        if isinstance(got, ScoredBinarySet):
            assert (list(got.labels), _hex(got.scores)) == (want[0], _hex(want[1]))
        else:
            assert got == want

    @pytest.mark.parametrize("bad, message", [
        (b'"3,4\n', "row 2048: unexpected end of data"),
        (b"\xff3,4\n", "input is not valid UTF-8: invalid start byte at byte 8192"),
    ], ids=["open-quote", "bad-byte"])
    def test_rows_before_a_bad_record_in_its_block_are_checked_first(self, bad, message):
        # row 2048 starts at byte 8192, in the decoder's second chunk, and
        # shares a block with row 2000, which holds a bad cell
        rows = [b"1,2\n"] * 2047
        rows[1999] = b"x,2\n"
        data = b"a,p\n" + b"".join(rows) + bad
        assert data.index(bad) == 8192 and 1999 // _BLOCK_ROWS == 2047 // _BLOCK_ROWS
        with pytest.raises(DataError, match=r"^row 2000, column 'a': cannot parse 'x'"):
            load_paired_csv(data, "a", "p")
        with pytest.raises(DataError) as info:
            load_paired_csv(data, "a", "p", drop_bad_rows=True)
        assert str(info.value) == message


class TestLoaderMemory:
    """Peak traced allocation of one load, against the input's size in bytes.

    A loader that holds every parsed row peaks above 13x on these files. One
    that splits a decoded copy into a list of lines peaks near 4.6x (paired)
    and 6.2x (scored) from bytes or text. Reading records straight from the
    input bytes into lists of boxed floats peaks near 2.5x (paired) and 2.1x
    (scored) from bytes, and near 2.9x and 2.5x from text, which is encoded
    once first. Unboxed ``array("d")`` columns, filled a block of rows at a
    time, peak near 1.04x and 1.18x from bytes and 1.6x and 1.7x from text, so
    the bounds below fail if boxed columns come back.
    """

    ROWS = 20_000

    @staticmethod
    def _peak(load, data, *args, **kwargs):
        tracemalloc.start()
        try:
            load(data, *args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @classmethod
    def _paired_data(cls):
        rng = random.Random(11)
        lines = ["t,actual,predicted,weight"]
        for t in range(cls.ROWS):
            actual = round(rng.uniform(0, 100), 3)
            lines.append(f"{t},{actual},{actual + rng.gauss(0, 2)!r},{rng.randrange(1000)}")
        return ("\n".join(lines) + "\n").encode()

    def test_paired_peak(self):
        data = self._paired_data()
        assert self._peak(load_paired_csv, data, "actual", "predicted") < 1.5 * len(data)
        assert self._peak(load_paired_csv, data.decode(), "actual", "predicted") < 2 * len(data)

    @classmethod
    def _scored_data(cls):
        rng = random.Random(12)
        lines = ["id,label,score"]
        for i in range(cls.ROWS):
            label = "pos" if rng.random() < 0.1 else "neg"
            lines.append(f"{i},{label},{rng.random()!r}")
        return ("\n".join(lines) + "\n").encode()

    def test_scored_peak(self):
        data = self._scored_data()
        args = ("label", "score", "pos")
        assert self._peak(load_scored_csv, data, *args) < 1.5 * len(data)
        assert self._peak(load_scored_csv, data.decode(), *args) < 2 * len(data)

    @pytest.mark.parametrize("load", [load_paired_csv, load_scored_csv])
    def test_a_load_leaves_only_its_container(self, load):
        # With the collector off, what a load leaves behind is freed by
        # reference counts alone. A reference cycle through the loader's
        # closures would keep its own columns alive until a collection.
        data, args = self._paired_data(), ("actual", "predicted")
        if load is load_scored_csv:
            data, args = self._scored_data(), ("label", "score", "pos")
        gc.disable()
        tracemalloc.start()
        try:
            container = load(data, *args)
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        # two n-item columns of 8-byte items: doubles, or pointers to shared labels
        assert left < 1.2 * (2 * len(container) * 8)

    def test_regression_report_peak(self):
        # the cached residuals are the only n-item temporary: one unboxed
        # column of n doubles, 8 bytes per item; boxed floats in tuples take
        # 32, and a second cached column such as |E| peaks near 2.2x this base
        series = load_paired_csv(self._paired_data(), "actual", "predicted", ordered=True)
        peak = self._peak(regression_report, series, METRIC_IDS, skip_undefined_terms=True)
        assert peak < 1.3 * (len(series) * 8)


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

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, "3", -1])
    def test_a_count_is_a_non_negative_int(self, bad):
        with pytest.raises(DataError, match=r"^tp must be a non-negative integer, got "):
            ConfusionMatrix2(bad, 0, 0, 2)
        with pytest.raises(DataError,
                           match=r"^counts\[1\]\[0\] must be a non-negative integer, got "):
            ConfusionMatrixK(("a", "b"), ((1, 0), (bad, 1)))

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
    def test_positive_count_is_computed_once(self):
        data = ScoredBinarySet([True, False, True], [0.9, 0.2, 0.4])
        assert "positive_count" not in vars(data)
        assert data.positive_count == 2 and data.negative_count == 1
        assert vars(data)["positive_count"] == 2

    def test_ranking_columns_and_the_sign_of_a_zero_group(self):
        data = ScoredBinarySet([True, False, True, True, False], [0.5, -0.0, 0.9, 0.0, 0.5])
        ranking = data.ranking
        assert ranking is data.ranking
        assert ranking.scores == array("d", (0.9, 0.5, 0.5, -0.0, 0.0))
        assert ranking.scores.typecode == ranking.thresholds.typecode == "d"
        assert list(ranking.cum_positives) == [0, 1, 2, 2, 2, 3]
        assert list(ranking.ends) == [1, 3, 5]
        # each threshold is the set's own float for its group's first member,
        # so the -0.0-led zero group keeps its sign
        assert list(map(float.hex, ranking.thresholds)) == [
            data.scores[i].hex() for i in (2, 0, 1)]
        assert math.copysign(1.0, ranking.thresholds[-1]) == -1.0

    @pytest.mark.parametrize("zeros, sign", [((-0.0, 0.0), -1.0), ((0.0, -0.0), 1.0)])
    def test_thresholds_keep_negative_and_positive_zero_apart(self, zeros, sign):
        # -0.0 == 0.0, so the zeros form one group, led by whichever comes first
        ranking = ScoredBinarySet([True, False, True], (0.5, *zeros)).ranking
        assert list(ranking.thresholds) == [0.5, 0.0]
        assert math.copysign(1.0, ranking.thresholds[1]) == sign
        assert [math.copysign(1.0, s) for s in ranking.scores] == [
            1.0, *(math.copysign(1.0, z) for z in zeros)]
