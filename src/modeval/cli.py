"""Command-line front end emitting deterministic JSON reports.

Report layout (fixed key order): tool_version, command, input_digest,
metrics, warnings. Each metrics entry carries id, value (null when
undefined), status, optional reason/dropped_terms/flags, and formula_note.
Floats serialize with round-trip precision; identical inputs and flags
produce byte-identical reports.

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3 when --strict
sees an undefined requested metric. Diagnostics go to stderr, reports to
stdout.

Each subcommand imports its metric family when it runs, so a process loads
only the modules its own subcommand needs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .dataset import (MetricValue, confusion_from_scores, load_paired_csv,
                      load_scored_csv)
from .errors import DataError, SchemaError, UsageError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_STRICT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the exit-code contract wants 1
    def error(self, message):
        raise UsageError(message)


class _Inputs:
    """Reads a command's input files into one digest and collects loader warnings."""

    def __init__(self):
        self.hasher = hashlib.sha256()
        self.warnings: list[str] = []

    def read(self, path: str) -> bytes:
        data = Path(path).read_bytes()
        self.hasher.update(data)
        return data

    def paired(self, path: str, args, **options):
        return load_paired_csv(self.read(path), args.actual_col, args.predicted_col,
                               warnings=self.warnings, **options)

    def scored(self, args, **options):
        return load_scored_csv(self.read(args.input), args.label_col, args.score_col,
                               args.positive, warnings=self.warnings, **options)


def _entry(mv: MetricValue, note: str) -> dict:
    out = {"id": mv.id, "value": mv.value, "status": mv.status}
    if mv.reason is not None:
        out["reason"] = mv.reason
    if mv.dropped_terms:
        out["dropped_terms"] = mv.dropped_terms
    if mv.flags:
        out["flags"] = list(mv.flags)
    out["formula_note"] = note
    return out


def _plain_entry(entry_id: str, value, note: str = "") -> dict:
    if isinstance(value, float) and not math.isfinite(value):
        raise DataError(f"{entry_id}: a defined metric must carry a finite value")
    return {"id": entry_id, "value": value, "status": "defined", "formula_note": note}


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
    return [_entry(mv, regression.METRICS[i].note) for i, mv in report.metrics.items()]


def _cmd_classify(args, inputs: _Inputs) -> list:
    from . import classification

    data = inputs.scored(args, drop_bad_rows=args.drop_bad_rows)
    ids = _metric_ids(args.metrics, classification.METRICS)
    matrix = confusion_from_scores(data, args.threshold)
    ctx = classification.ThresholdContext(data, matrix, args.aca_weight)
    counts = [_plain_entry(name, getattr(matrix, name.lower()))
              for name in ("TP", "FP", "FN", "TN")]
    return counts + [_entry(mv, note)
                     for mv, note in classification.threshold_report(ctx, ids)]


def _write_points(path: str, xs, ys, thresholds) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("threshold,x,y\n")
        fh.writelines(f"{threshold!r},{x!r},{y!r}\n"
                      for x, y, threshold in zip(xs, ys, thresholds))


def _cmd_curves(args, inputs: _Inputs) -> list:
    from . import curves

    data = inputs.scored(args)
    notes = curves.FORMULA_NOTES
    if args.kind == "roc":
        curve = curves.roc_curve(data)
        columns = (curve.fpr, curve.tpr, curve.thresholds)
        entries = [_entry(curves.auc(curve), notes["AUC"])]
    else:
        curve = curves.pr_curve(data)
        columns = (curve.recall, curve.precision, curve.thresholds)
        entries = [_entry(curves.curve_average_precision(curve), notes["AP"]),
                   _entry(curves.break_even_point(curve), notes["BREAK_EVEN"])]
    if args.lift_fraction is not None:
        entries.append(_entry(curves.lift(data, args.lift_fraction),
                              notes["LIFT"] + f" [fraction = {args.lift_fraction:g}]"))
    if args.cal:
        report = curves.calibration_error(data)
        entries.append(_plain_entry(
            "CAL", report.cal, notes["CAL"] + f" [{len(report.window_errors)} windows]"))
    if args.emit_points:
        _write_points(args.emit_points, *columns)
    return entries


_CHECK_NEEDS = {"tropsha": ("input",), "rm": ("input",),
                "adequacy": ("observations", "parameters"),
                "objective": ("train", "validation"), "ri": ()}


def _cmd_validate(args, inputs: _Inputs) -> list:
    from . import validation

    missing = [f"--{n.replace('_', '-')}" for n in _CHECK_NEEDS[args.check]
               if getattr(args, n) is None]
    if missing:
        raise UsageError(f"--check {args.check} requires {', '.join(missing)}")
    note = validation.FORMULA_NOTES
    if args.check == "tropsha":
        rep = validation.tropsha_criteria(inputs.paired(args.input, args))
        entries = [_plain_entry("R2", rep.r2, note["TROPSHA"]),
                   _plain_entry("K", rep.k), _plain_entry("K_PRIME", rep.k_prime),
                   _plain_entry("RO2", rep.ro2), _plain_entry("RO2_PRIME", rep.ro2_prime)]
        for entry_id, value in (("M_INDEX", rep.m_index), ("N_INDEX", rep.n_index)):
            if value is None:
                entries.append(_entry(MetricValue.undefined(entry_id, "zero_denominator"), ""))
            else:
                entries.append(_plain_entry(entry_id, value))
        entries += [_plain_entry(flag, getattr(rep, flag.lower()), note[flag])
                    for flag in ("PASS_K", "PASS_M", "PASS_N")]
        return entries + [_plain_entry("OVERALL_PASS", rep.overall_pass)]
    if args.check == "rm":
        rep = validation.roy_rm(inputs.paired(args.input, args))
        return [_plain_entry("RM", rep.rm, note["RM"]),
                _plain_entry("R2", rep.r2), _plain_entry("RO2", rep.ro2),
                _plain_entry("PASS_RM", rep.passed, note["PASS_RM"])]
    if args.check == "adequacy":
        inputs.hasher.update(f"observations={args.observations},"
                             f"parameters={args.parameters}".encode())
        rep = validation.data_adequacy_ratio(args.observations, args.parameters)
        return [_plain_entry("RATIO", rep.ratio, note["ADEQUACY"]),
                _plain_entry("VERDICT", rep.verdict),
                _plain_entry("ADEQUATE", rep.adequate)]
    if args.check == "objective":
        train = inputs.paired(args.train, args)
        holdout = inputs.paired(args.validation, args)
        return [_entry(validation.gandomi_objective(train, holdout), note["OBJ"])]
    models = args.model or []
    if len(models) < 2:
        raise UsageError("--check ri requires at least two --model NAME=PATH flags")
    pairs = []
    for model_arg in models:
        name, sep, path = model_arg.partition("=")
        if not sep or not name or not path:
            raise UsageError(f"--model expects NAME=PATH, got {model_arg!r}")
        pairs.append((name, inputs.paired(path, args)))
    ranking = validation.reference_index(pairs)
    if ranking.tied_columns:
        inputs.warnings.append("tied metric column(s): " + ",".join(ranking.tied_columns))
    order = [ranking.model_ids[i] for i in ranking.ranking]
    return [_plain_entry(f"RI[{ranking.model_ids[i]}]", ranking.ri[i], note["RI"])
            for i in ranking.ranking] + [_plain_entry("RANKING", ",".join(order))]


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
    validate.add_argument("--check", required=True, choices=tuple(_CHECK_NEEDS))
    validate.add_argument("--input")
    validate.add_argument("--actual-col", default="actual")
    validate.add_argument("--predicted-col", default="predicted")
    validate.add_argument("--observations", type=int)
    validate.add_argument("--parameters", type=int)
    validate.add_argument("--train")
    validate.add_argument("--validation")
    validate.add_argument("--model", action="append", metavar="NAME=PATH")
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
