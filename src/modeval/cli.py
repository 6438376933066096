"""Command-line front end emitting deterministic JSON reports.

Report layout (fixed key order): tool_version, command, input_digest,
metrics, warnings. Each metrics entry carries id, value (null when
undefined), status, optional reason/dropped_terms/flags, and formula_note.
Floats serialize with round-trip precision; identical inputs and flags
produce byte-identical reports.

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3 when --strict
sees an undefined requested metric. Diagnostics go to stderr, reports to
stdout.

Every subcommand runs one path: it loads its inputs, builds its family's
context (for a validation check, the check's report) and hands a table of
``Metric`` entries, the context and the requested ids to
``dataset.evaluate``; ``_report`` turns the values into entries. A
MetricValue renders with its status; a fact (a count, pass flag, verdict or
ranking) renders as a defined plain value; a list gives one entry per item.
A ``{name}`` or ``{name:spec}`` in a note is filled from the context. No
subcommand names a metric id or a note.

Each subcommand imports its metric family when it runs, so a process loads
only the modules its own subcommand needs. The input digest comes from
CPython's built-in SHA-256 (``_sha2`` on 3.12 and later, ``_sha256`` on 3.10
and 3.11), and from ``hashlib`` only where neither module exists: importing
hashlib loads OpenSSL's libcrypto, about 3.6 MiB and 3 ms in every process.
The built-in hash is slower, about 170-220 MB/s against OpenSSL's 1.2 GB/s
on a 2-vCPU x86-64 VM, which adds about 0.15 s on a 1e6-row (35 MB) file.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys

from . import __version__
from .dataset import (DEFINED, MetricValue, confusion_from_scores, evaluate,
                      load_paired_csv, load_scored_csv)
from .errors import DataError, SchemaError, UsageError

try:  # CPython's built-in SHA-256: importing hashlib would load OpenSSL
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_STRICT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the exit-code contract wants 1
    def error(self, message):
        raise UsageError(message)


class _DigestingReader(io.RawIOBase):
    """An unbuffered input file, owned and closed by this reader, that feeds
    each byte it reads to a hash: the digest is taken as the loader streams
    the file, and the file's bytes are never held."""

    def __init__(self, file, hasher):
        self._file = file
        self._hasher = hasher
        self._position = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        if n:
            self._hasher.update(memoryview(buffer)[:n])
            self._position += n
        return n

    def tell(self) -> int:
        return self._position

    def close(self) -> None:
        self._file.close()
        super().close()


class _InputFile(io.BufferedReader):
    """An input file as the loaders read it: buffered, and digested as it streams.

    ``count`` reads the file again from disk. It serves perfbench/tracing.py,
    which counts a loader's rows as the newlines in the loader's input."""

    def __init__(self, path: str, hasher):
        super().__init__(_DigestingReader(open(path, "rb", buffering=0), hasher))
        self._path = path

    def count(self, sub: bytes) -> int:
        with open(self._path, "rb") as fh:
            return fh.read().count(sub)


class _Inputs:
    """Streams a command's input files through one digest and collects loader
    warnings. The digest is the sha256 of the files concatenated in the order
    they are read; each loader reads its file to the end."""

    def __init__(self):
        self.hasher = sha256()
        self.warnings: list[str] = []

    def _load(self, load, path: str, *args, **options):
        with _InputFile(path, self.hasher) as stream:
            return load(stream, *args, warnings=self.warnings, **options)

    def paired(self, path: str, args, **options):
        return self._load(load_paired_csv, path, args.actual_col, args.predicted_col,
                          **options)

    def scored(self, args, **options):
        return self._load(load_scored_csv, args.input, args.label_col, args.score_col,
                          args.positive, **options)


# A placeholder in a formula note: {name} or {name:spec}, name an identifier.
# Other braces, such as recall_{n-1}, are literal.
_PLACEHOLDER = re.compile(r"\{([A-Za-z_]\w*)(?::([^{}]*))?\}")


def _entry(entry_id: str, value, note: str) -> dict:
    if not isinstance(value, MetricValue):  # a fact: count, flag, verdict or ranking
        return {"id": entry_id, "value": value, "status": DEFINED, "formula_note": note}
    out = {"id": value.id, "value": value.value, "status": value.status}
    if value.reason is not None:
        out["reason"] = value.reason
    if value.dropped_terms:
        out["dropped_terms"] = value.dropped_terms
    if value.flags:
        out["flags"] = list(value.flags)
    out["formula_note"] = note
    return out


def _report(table: dict, values: dict, ctx=None) -> list:
    """Report entries for a table's evaluated values, each note filled from ``ctx``."""
    entries = []
    for entry_id, value in values.items():
        note = _PLACEHOLDER.sub(lambda m: format(getattr(ctx, m[1]), m[2] or ""),
                                table[entry_id].note)
        entries += [_entry(entry_id, v, note)
                    for v in (value if isinstance(value, list) else (value,))]
    return entries


def _render_table(doc) -> str:
    lines = [f"tool_version: {doc['tool_version']}",
             f"command: {doc['command']}",
             f"input_digest: {doc['input_digest']}",
             f"{'ID':<14} {'VALUE':<24} {'STATUS':<10} REASON"]
    for entry in doc["metrics"]:
        value = entry["value"]
        text = "null" if value is None else (repr(value) if isinstance(value, float)
                                             else str(value))
        lines.append(f"{entry['id']:<14} {text:<24} {entry['status']:<10} "
                     f"{entry.get('reason', '')}".rstrip())
    for warning in doc["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _finish(argv, args, inputs: _Inputs, entries: list) -> int:
    doc = {
        "tool_version": __version__,
        "command": "modeval " + " ".join(argv),
        "input_digest": inputs.hasher.hexdigest(),
        "metrics": entries,
        "warnings": inputs.warnings,
    }
    if args.format == "table":
        sys.stdout.write(_render_table(doc))
    else:
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    strict = getattr(args, "strict", False)
    if strict and any(e["status"] == "undefined" for e in entries):
        return EXIT_STRICT
    return EXIT_OK


def _metric_ids(text: str, catalog) -> list[str]:
    """The ids a --metrics list names, or the whole catalog for ``all``."""
    if text.strip().lower() == "all":
        return list(catalog)
    return [t.strip().upper() for t in text.split(",") if t.strip()]


def _cmd_regress(args, inputs: _Inputs) -> list:
    from . import regression

    data = inputs.paired(args.input, args, ordered=args.ordered,
                         drop_bad_rows=args.drop_bad_rows)
    report = regression.regression_report(data, _metric_ids(args.metrics, regression.METRICS),
                                          skip_undefined_terms=args.skip_undefined_terms)
    return _report(regression.METRICS, report.metrics)


def _cmd_classify(args, inputs: _Inputs) -> list:
    from . import classification

    data = inputs.scored(args, drop_bad_rows=args.drop_bad_rows)
    table = classification.METRICS
    ids = _metric_ids(args.metrics, table)
    ctx = classification.ThresholdContext(data, confusion_from_scores(data, args.threshold),
                                          args.aca_weight)
    return (_report(classification.COUNTS, evaluate(classification.COUNTS, ctx))
            + _report(table, evaluate(table, ctx, ids, "classification"), ctx))


def _write_points(path: str, curve) -> None:
    xs, ys, thresholds = curve  # a curve is its x, y and threshold columns, in that order
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("threshold,x,y\n")
        fh.writelines(f"{threshold!r},{x!r},{y!r}\n"
                      for x, y, threshold in zip(xs, ys, thresholds))


def _cmd_curves(args, inputs: _Inputs) -> list:
    from . import curves

    ctx = curves.CurveContext(inputs.scored(args), args.kind, args.lift_fraction, args.cal)
    entries = _report(curves.METRICS, evaluate(curves.METRICS, ctx, ctx.ids, "curves"), ctx)
    if args.emit_points:
        _write_points(args.emit_points, ctx.curve)
    return entries


def _check_input(name: str, args, inputs: _Inputs):
    """What a validation check reads from the flag ``name``: a file flag's
    series, the --model flags' (name, series) pairs in flag order, or a count."""
    value = getattr(args, name)
    if name in ("input", "train", "validation"):
        return inputs.paired(value, args)
    if name != "model":
        return value
    if len(value) < 2:
        raise UsageError(f"--check {args.check} requires at least two --model NAME=PATH flags")
    models = []
    for model_arg in value:
        model, sep, path = model_arg.partition("=")
        if not sep or not model or not path:
            raise UsageError(f"--model expects NAME=PATH, got {model_arg!r}")
        models.append((model, inputs.paired(path, args)))
    return models


def _cmd_validate(args, inputs: _Inputs) -> list:
    from . import validation

    check = validation.CHECKS[args.check]
    missing = [f"--{name}" for name in check.needs if getattr(args, name) is None]
    if missing:
        raise UsageError(f"--check {args.check} requires {', '.join(missing)}")
    # a count joins the digest as text, a file as the bytes it holds
    inputs.hasher.update(",".join(f"{name}={getattr(args, name)}" for name in check.needs
                                  if isinstance(getattr(args, name), int)).encode())
    report = check.report(**{name: _check_input(name, args, inputs) for name in check.needs})
    inputs.warnings += getattr(report, "warnings", [])
    return _report(check.table, evaluate(check.table, report))


def build_parser() -> _Parser:
    parser = _Parser(prog="modeval",
                     description="Fitness and error metrics for model predictions")
    sub = parser.add_subparsers(dest="command", required=True)

    output = _Parser(add_help=False)
    output.add_argument("--format", choices=("json", "table"), default="json")
    catalog = _Parser(add_help=False)  # regress and classify
    catalog.add_argument("--metrics", default="all")
    catalog.add_argument("--strict", action="store_true")
    catalog.add_argument("--drop-bad-rows", action="store_true")
    scored = _Parser(add_help=False)  # classify and curves
    for flag in ("--input", "--label-col", "--score-col", "--positive"):
        scored.add_argument(flag, required=True)

    regress = sub.add_parser("regress", parents=[output, catalog],
                             help="regression error metrics")
    regress.add_argument("--input", required=True)
    regress.add_argument("--actual-col", required=True)
    regress.add_argument("--predicted-col", required=True)
    regress.add_argument("--ordered", action="store_true",
                         help="declare index order meaningful (enables MASE)")
    regress.add_argument("--skip-undefined-terms", action="store_true")
    regress.set_defaults(func=_cmd_regress)

    classify = sub.add_parser("classify", parents=[output, catalog, scored],
                              help="threshold classification metrics")
    classify.add_argument("--threshold", type=float, default=0.5)
    classify.add_argument("--aca-weight", type=float, default=0.5)
    classify.set_defaults(func=_cmd_classify)

    curves_cmd = sub.add_parser("curves", parents=[output, scored],
                                help="ROC / precision-recall sweeps")
    curves_cmd.add_argument("--kind", choices=("roc", "pr"), required=True)
    curves_cmd.add_argument("--emit-points", metavar="PATH")
    curves_cmd.add_argument("--lift-fraction", type=float)
    curves_cmd.add_argument("--cal", action="store_true")
    curves_cmd.set_defaults(func=_cmd_curves)

    validate = sub.add_parser("validate", parents=[output],
                              help="multi-criteria model validation")
    validate.add_argument("--check", required=True,
                          choices=("tropsha", "rm", "adequacy", "objective", "ri"))
    validate.add_argument("--input")
    validate.add_argument("--actual-col", default="actual")
    validate.add_argument("--predicted-col", default="predicted")
    validate.add_argument("--observations", type=int)
    validate.add_argument("--parameters", type=int)
    validate.add_argument("--train")
    validate.add_argument("--validation")
    validate.add_argument("--model", action="append", default=[], metavar="NAME=PATH")
    validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        inputs = _Inputs()
        return _finish(argv, args, inputs, args.func(args, inputs))
    except UsageError as exc:
        print(f"modeval: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, DataError, OSError) as exc:
        print(f"modeval: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OverflowError as exc:
        print(f"modeval: error: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
