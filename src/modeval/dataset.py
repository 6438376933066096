"""Input data types, CSV ingestion, and confusion-matrix construction.

Every type here is immutable after construction and safe to share across
threads; all operations are pure functions of their inputs. Non-finite values
(NaN, +/-inf) are rejected at ingestion so that downstream definedness
contracts stay testable instead of silently propagating NaN.

The float columns (``PairedSeries.actual`` and ``.predicted``,
``ScoredBinarySet.scores``, ``Ranking.scores`` and ``.thresholds``) are
``array("d")``: 8 bytes per value where a boxed float in a tuple takes 32. An
array is unhashable, so the types that hold one are too; it compares equal
only to another array; and it must be treated as read-only, since nothing
stops a write to it. The attributes themselves still cannot be rebound. The
one label column, ``ScoredBinarySet.labels``, is a tuple of bools.

Every float column of a value type, and every scalar parameter, takes real
numbers only: ints or floats, not bools, finite as doubles. ``_real_column``
(a DataError) and ``_real`` (a UsageError) apply that one rule.

CSV dialect: UTF-8 text, comma separator, first row is a header, ``.``
decimal point, optional UTF-8 byte order mark. The csv module splits the
records: only LF, CRLF and CR end one, and a quoted field may hold a line
break. A quote left open at the end of the input, or text after a closing
quote, is an error. Row N in a message is the Nth non-blank record after the
header.

Both loaders read through one private reader, ``_load``. It streams the
records and hands the loader's ``keep`` function a block of rows at a time, as
columns of cells; ``keep`` converts a whole block with C-level builtins and
stores its values, or rejects the block. Only a rejected block is split, in
halves, down to its bad rows. ``_load`` alone names a rejected row's first bad
cell, drops the row under ``drop_bad_rows`` and counts it, and turns a csv or
UTF-8 error into a DataError.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections import namedtuple
from functools import cached_property
from itertools import accumulate, compress, count, islice, repeat
from operator import itemgetter, ne

from .errors import DataError, EmptyInputError, SchemaError, UsageError

POSITIVE = "positive"
NEGATIVE = "negative"

DEFINED = "defined"
UNDEFINED = "undefined"


class _Frozen:
    """Base of the validated value types.

    A subclass annotates its fields in the class body, as a dataclass would,
    and its ``__init__`` converts and checks its arguments and stores them,
    in the order of those annotations, with ``_set``. Instances compare and hash by field, print as
    ``Name(field=value, ...)`` and refuse assignment and deletion with an
    AttributeError. ``cached_property`` still works: it writes to the instance
    dict directly.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class MetricValue(_Frozen):
    """A metric result: either a finite value or an explicit undefined status.

    ``reason`` is a machine-readable token (``zero_actual``,
    ``zero_denominator``, ...) populated exactly when the status is undefined.
    ``dropped_terms`` counts per-term exclusions performed under a lenient
    recomputation; ``flags`` carries advisory markers such as ``tie_at_cut``.
    """

    id: str
    value: float | None
    status: str
    reason: str | None
    dropped_terms: int
    flags: tuple[str, ...]

    def __init__(self, id: str, value: float | None, status: str, reason: str | None = None,
                 dropped_terms: int = 0, flags: tuple[str, ...] = ()):
        if status == DEFINED:
            if value is None or not math.isfinite(value):
                raise DataError(f"{id}: a defined metric must carry a finite value")
            if reason is not None:
                raise DataError(f"{id}: a defined metric must not carry a reason")
        elif status == UNDEFINED:
            if value is not None or not reason:
                raise DataError(f"{id}: an undefined metric needs a reason and no value")
        else:
            raise UsageError(f"{id}: unknown status {status!r}")
        self._set(id, value, status, reason, dropped_terms, flags)

    @classmethod
    def defined(cls, metric_id: str, value: float, dropped_terms: int = 0,
                flags: tuple[str, ...] = ()) -> "MetricValue":
        return cls(metric_id, float(value), DEFINED, None, dropped_terms, tuple(flags))

    @classmethod
    def undefined(cls, metric_id: str, reason: str, dropped_terms: int = 0) -> "MetricValue":
        return cls(metric_id, None, UNDEFINED, reason, dropped_terms)

    @property
    def is_defined(self) -> bool:
        return self.status == DEFINED


class Metric(namedtuple("Metric", "id fn note")):
    """One catalog entry of a metric family.

    ``id`` is the metric's id string. ``fn`` maps the family's shared context
    to the metric's MetricValue; the context computes each statistic that
    several metrics share on first use. A fact that is no metric (a count, a
    pass flag, a verdict) is returned as the plain value, and an entry with
    one value per model as a list of MetricValues. ``note`` is the exact
    formula variant, reported as ``formula_note``: a string, or a function of
    the context for a note that depends on the run.
    """

    __slots__ = ()


def evaluate(table: dict, ctx, ids=None, family: str = "") -> dict:
    """Each requested entry's value on ``ctx``, by id in catalog order.

    ``ids=None`` requests the whole table; otherwise a string, an empty
    request or an id the table lacks is a UsageError naming the ``family``. An
    ``fsum`` over terms that overflowed to both infinities is an OverflowError.
    """
    if isinstance(ids, str):  # iterating one would request its characters
        raise UsageError(f"{family} metric ids must be a collection of ids, got the string {ids!r}")
    if ids is not None:
        requested = set(ids)
        if not requested:
            raise UsageError(f"at least one {family} metric id is required")
        unknown = sorted(requested - set(table))
        if unknown:
            raise UsageError(f"unknown {family} metric id(s): {', '.join(unknown)}")
        table = {metric_id: m for metric_id, m in table.items() if metric_id in requested}
    try:
        return {metric_id: m.fn(ctx) for metric_id, m in table.items()}
    except ValueError as exc:  # fsum's "-inf + inf", the only ValueError a metric raises
        raise OverflowError(exc) from exc


def _repr(value) -> str:
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits(), or a container of one
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
        return f"({', '.join(map(_repr, value))}{',' if len(value) == 1 else ''})"


def _not_real(value) -> str | None:
    """Why ``value`` is no real number, or None if it is one: an int or a
    float, not a bool, that is finite as a double."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"is not a real number: {_repr(value)}"
    try:
        return None if math.isfinite(value) else f"is not finite: {value!r}"
    except OverflowError:  # an int too large for a double; its repr may pass the digit limit
        return f"is an int too large for a double ({value.bit_length()} bits)"


def _real(value, name: str) -> float:
    """A scalar parameter that must be a real number, as a float."""
    problem = _not_real(value)
    if problem is not None:
        raise UsageError(f"{name} {problem}")
    return float(value)


def _real_column(values, name: str) -> array:
    """``values``, which must be real numbers, as an ``array("d")``; the first
    that is not one is a DataError naming ``name[i]`` and the value. An array
    of doubles is copied whole, and plain ints and floats convert at C level."""
    if isinstance(values, array) and values.typecode == "d":
        column = array("d", values)
    else:
        values = values if isinstance(values, (list, tuple)) else list(values)
        try:  # array() would take a bool, so only plain ints and floats go straight in
            column = array("d", values) if set(map(type, values)) <= {float, int} else None
        except OverflowError:  # an int too large for a double
            column = None
    # a NaN or an infinity makes the sum non-finite, and so may finite values that overflow it
    if column is None or not math.isfinite(sum(column)):
        for i, problem in enumerate(map(_not_real, values)):
            if problem is not None:
                raise DataError(f"{name}[{i}] {problem}")
        column = array("d", values)  # a subclass of int or float passes the scan
    return column


def _check_probabilities(scores):
    # a ScoredBinarySet's scores: non-empty and finite, so min and max see every value
    if 0.0 <= min(scores) and max(scores) <= 1.0:
        return
    for i, s in enumerate(scores):
        if not 0.0 <= s <= 1.0:
            raise DataError(f"scores[{i}] = {s!r} outside [0, 1]")


class PairedSeries(_Frozen):
    """Aligned actual/predicted observations in the units of the modeled quantity.

    ``actual`` and ``predicted`` are read-only ``array("d")`` columns of their
    own, which ``_real_column`` copies from the arguments. ``ordered``
    declares whether index order is a meaningful time/sequence order; metrics
    that difference consecutive actuals (MASE) require it.
    """

    actual: array
    predicted: array
    ordered: bool

    def __init__(self, actual, predicted, ordered: bool = False):
        actual = _real_column(actual, "actual")
        predicted = _real_column(predicted, "predicted")
        if len(actual) != len(predicted):
            raise DataError(
                f"actual has {len(actual)} values but predicted has {len(predicted)}")
        if not actual:
            raise EmptyInputError("a paired series needs at least one observation")
        self._set(actual, predicted, ordered)

    def __len__(self) -> int:
        return len(self.actual)


def _coerce_label(label):
    if label is True or label is False:
        return label
    if label in (POSITIVE, NEGATIVE):
        return label == POSITIVE
    raise DataError(f"label must be {POSITIVE!r}/{NEGATIVE!r} or a bool, got {label!r}")


class Ranking(namedtuple("Ranking", "scores cum_positives ends thresholds")):
    """Scores in one stable descending order: tied scores keep input order.

    ``cum_positives[k]`` counts the positives among the top k scores (so it
    starts at 0 and has one more entry than ``scores``), and ``ends`` holds,
    for each distinct score in descending order, the rank just past its last
    member: how many scores rank at or above it. Both are ``array("Q")``
    columns of counts. ``scores`` and ``thresholds`` are ``array("d")``
    columns; ``thresholds`` holds each distinct score as the first member of
    its group holds it, so a zero group keeps that member's sign (-0.0 or
    0.0).
    """

    __slots__ = ()


class ScoredBinarySet(_Frozen):
    """Binary ground-truth labels with real-valued classifier scores.

    Scores are probabilities in [0, 1] when the consuming metric demands one,
    otherwise any real margin; they are held as a read-only ``array("d")``,
    which ``_real_column`` copies from the argument. ``labels`` is a tuple of
    bools, True for the positive class; the argument may hold bools or the
    ``POSITIVE``/``NEGATIVE`` constants, and nothing else.
    """

    labels: tuple[bool, ...]
    scores: array

    def __init__(self, labels, scores):
        labels = tuple(labels)
        # isinstance, not ==: 1 == True, and 1 is no label
        if not all(map(isinstance, labels, repeat(bool))):
            labels = tuple(map(_coerce_label, labels))
        scores = _real_column(scores, "scores")
        if len(labels) != len(scores):
            raise DataError(f"{len(labels)} labels but {len(scores)} scores")
        if not labels:
            raise EmptyInputError("a scored set needs at least one observation")
        self._set(labels, scores)

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def positive_count(self) -> int:
        return self.labels.count(True)

    @property
    def negative_count(self) -> int:
        return len(self.labels) - self.positive_count

    @cached_property
    def ranking(self) -> Ranking:
        """The one sort that every ranking metric (ROC, PR, lift, CAL) reads."""
        order = sorted(range(len(self.scores)), key=self.scores.__getitem__, reverse=True)
        scores = array("d", map(self.scores.__getitem__, order))
        cum_positives = array("Q", accumulate(map(self.labels.__getitem__, order), initial=0))
        del order  # n boxed indices, freed before the group columns are built
        # starts[k]: a group starts at rank k, the first score or one unequal to the one above
        starts = [True, *map(ne, islice(scores, 1, None), scores)]
        ends = array("Q", compress(count(1), islice(starts, 1, None)))
        ends.append(len(scores))
        return Ranking(scores, cum_positives, ends, array("d", compress(scores, starts)))


def _check_counts(named_counts) -> None:
    # a bool is an int but no count, and 1.9, 1.0 or "3" is no count either
    for name, v in named_counts:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise DataError(f"{name} must be a non-negative integer, got {_repr(v)}")


class ConfusionMatrix2(_Frozen):
    """2-class count table: true/false positives and negatives."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __init__(self, tp: int, fp: int, fn: int, tn: int):
        _check_counts(zip(self._fields, (tp, fp, fn, tn)))
        self._set(tp, fp, fn, tn)
        if self.total < 1:
            raise DataError("a confusion matrix needs at least one observation")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


class ConfusionMatrixK(_Frozen):
    """K-class count table; rows are actual classes, columns predicted classes."""

    classes: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def __init__(self, classes, counts):
        classes = tuple(str(c) for c in classes)
        counts = tuple(map(tuple, counts))
        if len(classes) < 2:
            raise SchemaError("a class confusion table needs at least 2 classes")
        if len(set(classes)) != len(classes):
            raise SchemaError(f"duplicate class ids in {classes}")
        k = len(classes)
        if len(counts) != k or any(len(row) != k for row in counts):
            raise DataError(f"counts must be a {k}x{k} table")
        _check_counts((f"counts[{i}][{j}]", v)
                      for i, row in enumerate(counts) for j, v in enumerate(row))
        self._set(classes, counts)
        if self.total < 1:
            raise DataError("a confusion matrix needs at least one observation")

    @property
    def total(self) -> int:
        return sum(v for row in self.counts for v in row)

    def row_totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def col_totals(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.counts) for j in range(len(self.classes)))

    def diagonal_total(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.classes)))

    def index(self, class_id) -> int:
        try:
            return self.classes.index(str(class_id))
        except ValueError:
            raise SchemaError(f"unknown class {class_id!r}; classes are {self.classes}") from None


# ---------------------------------------------------------------------------
# CSV ingestion


# Rows per block that _load hands its ``keep`` function: enough to spread one
# Python-level call and a few C-level passes over many rows, few enough that a
# block with a bad row is cheap to split down to it.
_BLOCK_ROWS = 64


def _column_index(header, name):
    try:
        return header.index(name)
    except ValueError:
        raise SchemaError(f"column {name!r} not found in header {header}") from None


def _check_cell(row, row_number, index, column, numeric) -> None:
    """Raise the DataError for the cell of ``row`` in ``column`` if it is
    missing or, in a ``numeric`` column, not a finite number."""
    try:
        cell = row[index]
    except IndexError:
        raise DataError(f"row {row_number}: missing value in column {column!r}") from None
    if not numeric:
        return
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"row {row_number}, column {column!r}: cannot parse {cell!r} as a number") from None
    if not math.isfinite(value):
        raise DataError(f"row {row_number}, column {column!r}: non-finite value {cell!r}")


def _rejected_rows(keep, getters, block, first):
    """Hand ``block``'s rows, record ``first`` on, to ``keep`` as columns of
    cells: whole, or, if ``keep`` rejects them, in halves, down to single
    rows. Yields the record number and cells of each row rejected on its own,
    in order; a half is handed over only after the rows before it."""
    try:
        keep(*(map(getter, block) for getter in getters))
        return
    except (IndexError, ValueError):
        pass
    if len(block) == 1:
        yield first, block[0]
        return
    half = len(block) // 2
    yield from _rejected_rows(keep, getters, block[:half], first)
    yield from _rejected_rows(keep, getters, block[half:], first + half)


def _load(source, columns, keep, drop_bad_rows: bool, warnings: list | None) -> None:
    """Read the records of a header-bearing CSV and hand them to ``keep`` in blocks.

    ``columns`` names the cells to read as ``(name, numeric)`` pairs, in the
    order ``keep`` takes them. ``keep`` takes one iterable of cells per
    column, over a block of up to ``_BLOCK_ROWS`` rows, and stores the
    block's values, or raises ValueError (or the IndexError of a row with too
    few cells) and stores nothing. A rejected block is split in halves, and
    each half is handed over again in turn, down to single rows, so a block
    with one bad row costs about a dozen calls. A row that ``keep`` rejects
    on its own is bad: the per-cell checks raise the DataError for its first
    bad cell, or, with ``drop_bad_rows``, the row is counted and dropped.

    The csv module splits records straight from a binary stream, so no
    decoded copy of the whole text and no list of lines is ever held. A
    binary file object is read where it stands; bytes and str become a
    BytesIO first. A str source is encoded once; ``surrogatepass`` lets a
    lone surrogate in it load as it always has, while bytes must be strict
    UTF-8. ``utf-8-sig`` drops one leading byte order mark, which is not part
    of the header's first name. The text wrapper is detached on the way out,
    so it never closes the caller's file.
    """
    errors = "strict"
    if isinstance(source, io.BufferedIOBase):
        raw = source
    else:
        data = source.read() if hasattr(source, "read") else source
        if isinstance(data, str):
            data, errors = data.encode("utf-8", "surrogatepass"), "surrogatepass"
        elif not isinstance(data, (bytes, bytearray)):
            raise UsageError("CSV source must be bytes, text, or a file-like object")
        raw = io.BytesIO(data)
    text = io.TextIOWrapper(raw, encoding="utf-8-sig", errors=errors, newline="")
    header, number, dropped = None, 0, 0
    try:
        rows = filter(None, csv.reader(text, strict=True))
        header = next(rows, None)
        if header is None:
            raise EmptyInputError("CSV has no header row")
        indices = [_column_index(header, name) for name, _ in columns]
        getters = [itemgetter(i) for i in indices]
        while True:
            block, failure = [], None
            try:
                block.extend(islice(rows, _BLOCK_ROWS))
            except (csv.Error, UnicodeDecodeError) as exc:
                # extend keeps the rows read before the bad record, and those
                # are checked first, as if they had been read one at a time
                failure = exc
            for row_number, row in _rejected_rows(keep, getters, block, number + 1):
                if not drop_bad_rows:
                    for index, (name, numeric) in zip(indices, columns):
                        _check_cell(row, row_number, index, name, numeric)
                dropped += 1
            number += len(block)
            if failure is not None:
                raise failure
            if len(block) < _BLOCK_ROWS:
                break
    except csv.Error as exc:
        where = "header row" if header is None else f"row {number + 1}"
        raise DataError(f"{where}: {exc}") from None
    except UnicodeDecodeError as exc:
        # the decoder saw a chunk that ends where the byte stream now stands
        offset = raw.tell() - len(exc.object) + exc.start
        raise DataError(f"input is not valid UTF-8: {exc.reason} at byte {offset}") from None
    finally:
        text.detach()
    if dropped and warnings is not None:
        warnings.append(f"dropped {dropped} row(s) with unusable cells")
    if dropped == number:
        raise EmptyInputError("no usable data rows")


def load_paired_csv(source, actual_column: str, predicted_column: str,
                    ordered: bool = False, *, drop_bad_rows: bool = False,
                    warnings: list | None = None) -> PairedSeries:
    """Parse a header-bearing CSV into a PairedSeries, keeping file order.

    ``source`` is bytes, str, or a binary file object, which is read from
    where it stands and left open. Rows are read a block at a time and only
    the two named cells are kept, as ``array("d")`` columns. With
    ``drop_bad_rows`` an unparseable or non-finite cell discards the
    offending row instead of raising; the count of dropped rows is appended
    to ``warnings`` when a list is supplied. A row the csv module cannot read
    (a field over its size limit, a quote left open at the end of the input,
    text after a closing quote) is a DataError either way.
    """
    actual, predicted = array("d"), array("d")

    def keep(a_cells, p_cells):
        a, p = list(map(float, a_cells)), list(map(float, p_cells))
        if not (all(map(math.isfinite, a)) and all(map(math.isfinite, p))):
            raise ValueError
        actual.fromlist(a)
        predicted.fromlist(p)

    _load(source, ((actual_column, True), (predicted_column, True)), keep,
          drop_bad_rows, warnings)
    return PairedSeries(actual, predicted, ordered)


def load_scored_csv(source, label_column: str, score_column: str,
                    positive_label: str, *, drop_bad_rows: bool = False,
                    warnings: list | None = None) -> ScoredBinarySet:
    """Parse a header-bearing CSV into a ScoredBinarySet.

    Sources and rows are read as in ``load_paired_csv``. The label column
    must hold at most two distinct strings; with two, one of them must equal
    ``positive_label``. Each label is kept as a bool, True where it equals
    ``positive_label``. A file whose only label differs from
    ``positive_label`` loads as all-negative with a warning, so degenerate
    single-class data can still be scored.
    """
    # one bool per row; the raw labels are kept once each
    labels, scores, distinct = [], array("d"), set()
    is_positive = {positive_label: True}.get

    def keep(label_cells, score_cells):
        raw, block = list(label_cells), list(map(float, score_cells))
        if not all(map(math.isfinite, block)):
            raise ValueError
        distinct.update(raw)
        labels.extend(map(is_positive, raw, repeat(False)))
        scores.fromlist(block)

    _load(source, ((label_column, False), (score_column, True)), keep,
          drop_bad_rows, warnings)
    distinct = sorted(distinct)
    if len(distinct) > 2:
        raise SchemaError(
            f"label column {label_column!r} has {len(distinct)} distinct values "
            f"{distinct}; at most two expected")
    if len(distinct) == 2 and positive_label not in distinct:
        raise SchemaError(
            f"positive label {positive_label!r} not among labels {distinct}")
    if len(distinct) == 1 and distinct[0] != positive_label and warnings is not None:
        warnings.append(
            f"single label {distinct[0]!r} differs from positive label "
            f"{positive_label!r}; all rows treated as negative")
    return ScoredBinarySet(labels, scores)


# ---------------------------------------------------------------------------
# Confusion-matrix construction


def confusion_from_scores(data: ScoredBinarySet, threshold: float) -> ConfusionMatrix2:
    """Tally a 2-class confusion matrix at a decision threshold.

    Ties go positive: score >= threshold predicts the positive class.
    """
    threshold = _real(threshold, "threshold")
    tp = fp = fn = tn = 0
    for is_positive, score in zip(data.labels, data.scores):
        predicted_positive = score >= threshold
        if is_positive and predicted_positive:
            tp += 1
        elif is_positive:
            fn += 1
        elif predicted_positive:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix2(tp=tp, fp=fp, fn=fn, tn=tn)


def confusion_from_labels(actual, predicted) -> ConfusionMatrixK:
    """Tally a K-class confusion matrix from two label sequences.

    The class set is the union of values seen, sorted lexicographically, so
    repeated runs on the same data index identically.
    """
    actual = [str(a) for a in actual]
    predicted = [str(p) for p in predicted]
    if len(actual) != len(predicted):
        raise DataError(f"{len(actual)} actual labels but {len(predicted)} predicted")
    if not actual:
        raise EmptyInputError("no observations")
    classes = sorted(set(actual) | set(predicted))
    if len(classes) < 2:
        raise SchemaError(f"need at least 2 distinct classes, saw {classes}")
    index = {c: i for i, c in enumerate(classes)}
    counts = [[0] * len(classes) for _ in classes]
    for a, p in zip(actual, predicted):
        counts[index[a]][index[p]] += 1
    return ConfusionMatrixK(tuple(classes), tuple(tuple(row) for row in counts))


def binarize(matrix: ConfusionMatrixK, positive_class) -> ConfusionMatrix2:
    """One-vs-rest reduction of a K-class matrix to a 2-class matrix."""
    pos = matrix.index(positive_class)
    tp = matrix.counts[pos][pos]
    fn = matrix.row_totals()[pos] - tp
    fp = matrix.col_totals()[pos] - tp
    tn = matrix.total - tp - fn - fp
    return ConfusionMatrix2(tp=tp, fp=fp, fn=fn, tn=tn)
