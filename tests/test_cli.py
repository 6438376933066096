import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _golden import GOLDEN_RUNS
from modeval.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 3), err
    return code, json.loads(out)


def metric_map(doc):
    return {entry["id"]: entry for entry in doc["metrics"]}


class TestRegress:
    def test_f1_subset_values(self, capsys):
        code, doc = run_json(capsys, "regress", "--input", str(FIXTURES / "f1.csv"),
                             "--actual-col", "a", "--predicted-col", "p",
                             "--metrics", "MAE,RMSE,R2")
        assert code == 0
        values = metric_map(doc)
        assert values["MAE"]["value"] == 0.75
        assert values["RMSE"]["value"] == pytest.approx(math.sqrt(0.75), rel=1e-12)
        assert values["R2"]["value"] == pytest.approx(0.4, rel=1e-12)
        assert doc["tool_version"]
        assert len(doc["input_digest"]) == 64
        for entry in doc["metrics"]:
            assert (entry["status"] == "undefined") == (entry["value"] is None)
            assert "formula_note" in entry

    def test_all_metrics_present(self, capsys):
        code, doc = run_json(capsys, "regress", "--input", str(FIXTURES / "f1.csv"),
                             "--actual-col", "a", "--predicted-col", "p",
                             "--ordered")
        assert code == 0
        assert len(doc["metrics"]) == 24

    def test_strict_undefined_exits_3(self, capsys):
        code, doc = run_json(capsys, "regress",
                             "--input", str(FIXTURES / "zero_actual.csv"),
                             "--actual-col", "a", "--predicted-col", "p",
                             "--metrics", "MAPE", "--strict")
        assert code == 3
        entry = metric_map(doc)["MAPE"]
        assert entry["status"] == "undefined"
        assert entry["reason"] == "zero_actual"

    def test_undefined_without_strict_exits_0(self, capsys):
        code, doc = run_json(capsys, "regress",
                             "--input", str(FIXTURES / "zero_actual.csv"),
                             "--actual-col", "a", "--predicted-col", "p",
                             "--metrics", "MAPE")
        assert code == 0

    def test_skip_undefined_terms_reports_drops(self, capsys):
        code, doc = run_json(capsys, "regress",
                             "--input", str(FIXTURES / "zero_actual.csv"),
                             "--actual-col", "a", "--predicted-col", "p",
                             "--metrics", "MAPE", "--skip-undefined-terms")
        entry = metric_map(doc)["MAPE"]
        assert entry["status"] == "defined"
        assert entry["dropped_terms"] == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "regress", "--input",
                                 str(FIXTURES / "f1.csv"), "--actual-col", "a")
        assert code == 1 and not out and "usage error" in err

    def test_unknown_metric_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "regress", "--input",
                               str(FIXTURES / "f1.csv"), "--actual-col", "a",
                               "--predicted-col", "p", "--metrics", "NOPE")
        assert code == 1 and "NOPE" in err

    def test_missing_column_is_schema_error(self, capsys):
        code, _, err = run_cli(capsys, "regress", "--input",
                               str(FIXTURES / "f1.csv"), "--actual-col", "zzz",
                               "--predicted-col", "p")
        assert code == 2 and "zzz" in err

    def test_bad_cell_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "regress", "--input",
                               str(FIXTURES / "bad_cell.csv"), "--actual-col", "a",
                               "--predicted-col", "p")
        assert code == 2 and "row 2" in err

    def test_nonexistent_file(self, capsys):
        code, _, err = run_cli(capsys, "regress", "--input", "no_such.csv",
                               "--actual-col", "a", "--predicted-col", "p")
        assert code == 2

    def test_drop_bad_rows_warns(self, capsys):
        code, doc = run_json(capsys, "regress",
                             "--input", str(FIXTURES / "bad_cell.csv"),
                             "--actual-col", "a", "--predicted-col", "p",
                             "--metrics", "MAE", "--drop-bad-rows")
        assert code == 0
        assert any("dropped 1" in w for w in doc["warnings"])

    def test_table_format_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "regress", "--input",
                               str(FIXTURES / "f1.csv"), "--actual-col", "a",
                               "--predicted-col", "p", "--metrics", "MAE",
                               "--format", "table")
        assert code == 0
        assert "MAE" in out and "0.75" in out

    def test_all_roundtrips_individually(self, capsys):
        code, doc = run_json(capsys, "regress", "--input",
                             str(FIXTURES / "f1.csv"), "--actual-col", "a",
                             "--predicted-col", "p", "--ordered")
        assert code == 0
        batch = metric_map(doc)
        for metric_id in batch:
            _, single = run_json(capsys, "regress", "--input",
                                 str(FIXTURES / "f1.csv"), "--actual-col", "a",
                                 "--predicted-col", "p", "--ordered",
                                 "--metrics", metric_id)
            assert metric_map(single)[metric_id] == batch[metric_id], metric_id


class TestClassify:
    def test_c1_fixture_values(self, capsys):
        code, doc = run_json(capsys, "classify", "--input",
                             str(FIXTURES / "c1.csv"), "--label-col", "label",
                             "--score-col", "score", "--positive", "pos",
                             "--metrics", "ACC,F1,MCC")
        assert code == 0
        values = metric_map(doc)
        assert values["TP"]["value"] == 8
        assert values["FP"]["value"] == 5
        assert values["FN"]["value"] == 2
        assert values["TN"]["value"] == 5
        assert values["ACC"]["value"] == 0.65
        assert values["F1"]["value"] == float(Fraction(16, 23))
        assert values["MCC"]["value"] == pytest.approx(30 / math.sqrt(9100),
                                                       rel=1e-12)

    def test_single_class_undefined_rate_exit_0(self, capsys):
        code, doc = run_json(capsys, "classify", "--input",
                             str(FIXTURES / "single_class.csv"),
                             "--label-col", "label", "--score-col", "score",
                             "--positive", "pos", "--metrics", "TPR")
        assert code == 0
        entry = metric_map(doc)["TPR"]
        assert entry["status"] == "undefined"
        assert entry["reason"] == "zero_denominator"

    def test_single_class_strict_exit_3(self, capsys):
        code, doc = run_json(capsys, "classify", "--input",
                             str(FIXTURES / "single_class.csv"),
                             "--label-col", "label", "--score-col", "score",
                             "--positive", "pos", "--metrics", "TPR", "--strict")
        assert code == 3

    def test_textual_threshold_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--input",
                               str(FIXTURES / "c1.csv"), "--label-col", "label",
                               "--score-col", "score", "--positive", "pos",
                               "--threshold", "text")
        assert code == 1

    def test_all_roundtrips_individually(self, capsys):
        code, doc = run_json(capsys, "classify", "--input",
                             str(FIXTURES / "c1.csv"), "--label-col", "label",
                             "--score-col", "score", "--positive", "pos",
                             "--metrics", "all")
        assert code == 0
        batch = metric_map(doc)
        counted = [e["id"] for e in doc["metrics"]]
        assert counted[:4] == ["TP", "FP", "FN", "TN"]
        for metric_id in counted[4:]:
            _, single = run_json(capsys, "classify", "--input",
                                 str(FIXTURES / "c1.csv"), "--label-col", "label",
                                 "--score-col", "score", "--positive", "pos",
                                 "--metrics", metric_id)
            assert metric_map(single)[metric_id] == batch[metric_id], metric_id


class TestCurves:
    def test_roc_report_and_points(self, capsys, tmp_path):
        points_path = tmp_path / "points.csv"
        code, doc = run_json(capsys, "curves", "--kind", "roc", "--input",
                             str(FIXTURES / "s1.csv"), "--label-col", "label",
                             "--score-col", "score", "--positive", "pos",
                             "--emit-points", str(points_path))
        assert code == 0
        assert metric_map(doc)["AUC"]["value"] == pytest.approx(8 / 9, rel=1e-12)
        lines = points_path.read_text().strip().splitlines()
        assert lines[0] == "threshold,x,y"
        assert len(lines) == 1 + 7
        assert lines[1].startswith("inf,")
        # point rows parse back to floats
        for line in lines[1:]:
            threshold, x, y = line.split(",")
            float(threshold), float(x), float(y)

    def test_pr_points_are_threshold_recall_precision(self, capsys, tmp_path):
        from modeval.curves import pr_curve
        from modeval.dataset import load_scored_csv

        points_path = tmp_path / "points.csv"
        code, _ = run_json(capsys, "curves", "--kind", "pr", "--input",
                           str(FIXTURES / "s1.csv"), "--label-col", "label",
                           "--score-col", "score", "--positive", "pos",
                           "--emit-points", str(points_path))
        assert code == 0
        curve = pr_curve(load_scored_csv((FIXTURES / "s1.csv").read_bytes(),
                                         "label", "score", "pos"))
        lines = points_path.read_text().splitlines()
        assert lines == ["threshold,x,y"] + [
            f"{threshold!r},{recall!r},{precision!r}"
            for recall, precision, threshold in zip(*curve)]

    def test_pr_report(self, capsys):
        code, doc = run_json(capsys, "curves", "--kind", "pr", "--input",
                             str(FIXTURES / "s1.csv"), "--label-col", "label",
                             "--score-col", "score", "--positive", "pos")
        assert code == 0
        values = metric_map(doc)
        assert values["AP"]["value"] == pytest.approx(11 / 12, rel=1e-12)
        assert values["BREAK_EVEN"]["value"] == pytest.approx(2 / 3, rel=1e-12)

    def test_lift_fraction(self, capsys):
        code, doc = run_json(capsys, "curves", "--kind", "roc", "--input",
                             str(FIXTURES / "s1.csv"), "--label-col", "label",
                             "--score-col", "score", "--positive", "pos",
                             "--lift-fraction", "0.5")
        assert code == 0
        assert "LIFT" in metric_map(doc)

    def test_subnormal_lift_fraction_is_undefined(self, capsys):
        code, doc = run_json(capsys, "curves", "--kind", "roc", "--input",
                             str(FIXTURES / "s1.csv"), "--label-col", "label",
                             "--score-col", "score", "--positive", "pos",
                             "--lift-fraction", "1e-310")
        assert code == 0
        entry = metric_map(doc)["LIFT"]
        assert (entry["value"], entry["status"], entry["reason"]) == \
            (None, "undefined", "overflow")

    def test_cal_needs_100_cases(self, capsys):
        code, _, err = run_cli(capsys, "curves", "--kind", "roc", "--input",
                               str(FIXTURES / "s1.csv"), "--label-col", "label",
                               "--score-col", "score", "--positive", "pos",
                               "--cal")
        assert code == 2 and "100" in err

    def test_cal_on_large_file(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        rows = ["label,score"]
        for i in range(120):
            rows.append(f"{'pos' if i % 2 == 0 else 'neg'},0.5")
        path.write_text("\n".join(rows) + "\n")
        code, doc = run_json(capsys, "curves", "--kind", "roc", "--input",
                             str(path), "--label-col", "label", "--score-col",
                             "score", "--positive", "pos", "--cal")
        assert code == 0
        assert metric_map(doc)["CAL"]["value"] == 0.0

    @pytest.mark.parametrize("rows, code", [(100, 0), (99, 2)])
    def test_cal_note_counts_one_window_at_100_cases(self, capsys, tmp_path, rows, code):
        path = tmp_path / "edge.csv"
        path.write_text("label,score\n" + "".join(f"{('pos', 'neg')[i % 2]},0.5\n"
                                                  for i in range(rows)))
        got, out, err = run_cli(capsys, "curves", "--kind", "roc", "--input", str(path),
                                "--label-col", "label", "--score-col", "score",
                                "--positive", "pos", "--cal")
        assert got == code, err
        if code == 0:
            note = metric_map(json.loads(out))["CAL"]["formula_note"]
            assert note.endswith("[1 windows]")
        else:
            assert "at least 100 cases, got 99" in err

    def test_pr_sorts_once(self, capsys, monkeypatch):
        import modeval.curves as curves

        calls = []
        pr_curve = curves.pr_curve

        def counting(data):
            calls.append(data)
            return pr_curve(data)

        monkeypatch.setattr(curves, "pr_curve", counting)
        code, doc = run_json(capsys, "curves", "--kind", "pr", "--input",
                             str(FIXTURES / "s1.csv"), "--label-col", "label",
                             "--score-col", "score", "--positive", "pos")
        assert code == 0 and len(calls) == 1
        assert metric_map(doc)["AP"]["value"] == pytest.approx(11 / 12, rel=1e-12)

    def test_pr_lift_cal_sort_the_scores_once(self, capsys, monkeypatch):
        import builtins

        import modeval.curves as curves
        import modeval.dataset as dataset

        rows = len((FIXTURES / "ties.csv").read_text().splitlines()) - 1
        sizes = []

        def counting(iterable, **kwargs):
            items = list(iterable)
            sizes.append(len(items))
            return builtins.sorted(items, **kwargs)

        for module in (dataset, curves):
            monkeypatch.setattr(module, "sorted", counting, raising=False)
        code, doc = run_json(capsys, "curves", "--kind", "pr", "--input",
                             str(FIXTURES / "ties.csv"), "--label-col", "label",
                             "--score-col", "score", "--positive", "pos",
                             "--lift-fraction", "0.1", "--cal")
        assert code == 0
        assert list(metric_map(doc)) == ["AP", "BREAK_EVEN", "LIFT", "CAL"]
        # the label check sorts the two distinct labels; the scores sort once
        assert sizes.count(rows) == 1

    def test_missing_kind_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "curves", "--input",
                             str(FIXTURES / "s1.csv"), "--label-col", "label",
                             "--score-col", "score", "--positive", "pos")
        assert code == 1


class TestValidate:
    def test_tropsha_perfect(self, capsys):
        code, doc = run_json(capsys, "validate", "--check", "tropsha",
                             "--input", str(FIXTURES / "perfect.csv"))
        assert code == 0
        values = metric_map(doc)
        assert values["OVERALL_PASS"]["value"] is True
        assert values["K"]["value"] == pytest.approx(1.0, rel=1e-15)
        assert values["K_PRIME"]["value"] == pytest.approx(1.0, rel=1e-15)

    def test_rm_report(self, capsys):
        code, doc = run_json(capsys, "validate", "--check", "rm",
                             "--input", str(FIXTURES / "perfect.csv"))
        assert code == 0
        values = metric_map(doc)
        assert values["RM"]["value"] == pytest.approx(1.0, rel=1e-12)
        assert values["PASS_RM"]["value"] is True

    def test_adequacy_below(self, capsys):
        code, doc = run_json(capsys, "validate", "--check", "adequacy",
                             "--observations", "10", "--parameters", "10")
        assert code == 0
        values = metric_map(doc)
        assert values["RATIO"]["value"] == 1.0
        assert values["VERDICT"]["value"] == "below"
        assert values["ADEQUATE"]["value"] is False

    def test_objective_perfect_splits(self, capsys):
        code, doc = run_json(capsys, "validate", "--check", "objective",
                             "--train", str(FIXTURES / "perfect.csv"),
                             "--validation", str(FIXTURES / "perfect.csv"))
        assert code == 0
        assert metric_map(doc)["OBJ"]["value"] == 0.0

    def test_ri_dominance(self, capsys):
        code, doc = run_json(capsys, "validate", "--check", "ri",
                             "--model", f"a={FIXTURES / 'model_a.csv'}",
                             "--model", f"b={FIXTURES / 'model_b.csv'}")
        assert code == 0
        values = metric_map(doc)
        assert values["RI[a]"]["value"] == 0.0
        assert values["RI[b]"]["value"] == 1.0
        assert values["RANKING"]["value"] == "a,b"

    def test_ri_needs_two_models(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--check", "ri",
                               "--model", f"a={FIXTURES / 'model_a.csv'}")
        assert code == 1
        code, out, err = run_cli(capsys, "validate", "--check", "ri")
        assert (code, out) == (1, "")
        assert err == ("modeval: usage error: --check ri requires at least two "
                       "--model NAME=PATH flags\n")

    @pytest.mark.parametrize("model_arg", [f"={FIXTURES / 'model_b.csv'}", "b=", "b"],
                             ids=["no-name", "no-path", "no-sep"])
    def test_malformed_model_flag_is_usage_error(self, capsys, model_arg):
        # the name, the "=" and the path are each required
        code, out, err = run_cli(capsys, "validate", "--check", "ri",
                                 "--model", f"a={FIXTURES / 'model_a.csv'}",
                                 "--model", model_arg)
        assert (code, out) == (1, "")
        assert err == f"modeval: usage error: --model expects NAME=PATH, got {model_arg!r}\n"

    def test_constant_input_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "constant.csv"
        path.write_text("actual,predicted\n2,1\n2,2\n2,3\n")
        code, _, err = run_cli(capsys, "validate", "--check", "tropsha",
                               "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("check, entry_id", [("tropsha", "K"), ("rm", "RM")])
    def test_non_finite_statistic_is_a_data_error(self, capsys, tmp_path, check, entry_id):
        # k = sum(A*P)/sum(P^2) overflows; the report must not carry Infinity
        path = tmp_path / "extreme.csv"
        path.write_text("actual,predicted\n1e150,1e-160\n2e150,3e-160\n"
                        "3e150,2e-160\n4e150,5e-160\n")
        code, out, err = run_cli(capsys, "validate", "--check", check,
                                 "--input", str(path))
        assert code == 2 and not out
        assert err == (f"modeval: error: {entry_id}: a defined metric must carry "
                       "a finite value\n")

    def test_missing_check_inputs_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--check", "objective",
                               "--train", str(FIXTURES / "perfect.csv"))
        assert code == 1 and "--validation" in err

    def test_check_choices_are_the_registry_checks(self):
        # the parser lists the checks itself, so that building it imports no family
        from modeval import validation
        from modeval.cli import build_parser

        subcommands = build_parser()._subparsers._group_actions[0].choices
        check = subcommands["validate"]._option_string_actions["--check"]
        assert check.choices == tuple(validation.CHECKS)

    def test_each_check_builds_its_report_from_the_flags_it_needs(self):
        # the CLI calls check.report(**{name: value of --name for name in needs});
        # a misspelt flag or parameter would otherwise be a raw TypeError there
        import inspect

        from modeval import validation
        from modeval.cli import build_parser

        subcommands = build_parser()._subparsers._group_actions[0].choices
        dests = {action.dest for action in subcommands["validate"]._actions}
        for name, check in validation.CHECKS.items():
            assert set(check.needs) <= dests, name
            assert tuple(inspect.signature(check.report).parameters) == check.needs, name


def test_notes_are_strings_except_the_three_that_state_a_run_value():
    # ACA's weight, LIFT's fraction and CAL's window count come from the run;
    # the golden snapshots pin the text of all three
    from modeval import classification, curves, regression, validation
    from modeval.dataset import confusion_from_scores, load_scored_csv

    tables = [regression.METRICS, classification.COUNTS, classification.METRICS,
              curves.METRICS, *(check.table for check in validation.CHECKS.values())]
    entries = [m for table in tables for m in table.values()]
    assert sorted(m.id for m in entries if not isinstance(m.note, str)) == ["ACA", "CAL", "LIFT"]
    c1 = load_scored_csv((FIXTURES / "c1.csv").read_bytes(), "label", "score", "pos")
    ties = load_scored_csv((FIXTURES / "ties.csv").read_bytes(), "label", "score", "pos")
    threshold = classification.ThresholdContext(c1, confusion_from_scores(c1, 0.5))
    sweep = curves.CurveContext(ties, "pr", 0.5, cal=True)
    for m, ctx in ((classification.METRICS["ACA"], threshold),
                   (curves.METRICS["LIFT"], sweep), (curves.METRICS["CAL"], sweep)):
        assert isinstance(m.note(ctx), str), m.id


class TestDeterminism:
    @pytest.mark.parametrize("argv", GOLDEN_RUNS,
                             ids=[f"golden{i}" for i in range(len(GOLDEN_RUNS))])
    def test_byte_identical_reports(self, capsys, argv):
        first_code, first_out, _ = run_cli(capsys, *argv)
        second_code, second_out, _ = run_cli(capsys, *argv)
        assert first_code == second_code
        assert first_out == second_out
        json.loads(first_out)


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "modeval.cli", "regress", "--input",
             str(FIXTURES / "f1.csv"), "--actual-col", "a",
             "--predicted-col", "p", "--metrics", "MAE"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["metrics"][0]["value"] == 0.75


class TestOverflow:
    def test_overflow_is_a_data_error_without_traceback(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("a,p\n1e200,0\n-1e200,0\n3e200,0\n")
        code, out, err = run_cli(capsys, "regress", "--input", str(path),
                                 "--actual-col", "a", "--predicted-col", "p",
                                 "--metrics", "R2")
        assert code == 2 and not out
        assert err.startswith("modeval: error:") and "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rows, metrics", [
        ("1e308,-1e308\n-1e308,1e308\n3,4\n", "ME"),
        ("1e308,-1e308\n-1e308,1e308\n3,4\n", "all"),
        ("1e-300,-1e10\n1e-300,1e10\n", "MNB"),
        ("1e-300,-1e10\n1e-300,1e10\n", "MPE"),
    ], ids=["ME", "all", "MNB", "MPE"])
    def test_terms_overflowing_to_both_infinities_are_an_overflow(self, capsys, tmp_path,
                                                                  rows, metrics):
        # the mean's fsum meets a +inf and a -inf term
        path = tmp_path / "signs.csv"
        path.write_text("a,p\n" + rows)
        code, out, err = run_cli(capsys, "regress", "--input", str(path),
                                 "--actual-col", "a", "--predicted-col", "p",
                                 "--metrics", metrics)
        assert code == 2 and not out
        assert err.startswith("modeval: error: numeric overflow: ") and err.count("\n") == 1


# Adversarial finite floats: the ends of the range, values whose squares
# overflow, the smallest subnormal, whose reciprocal overflows, -0.0, and a
# few ordinary values.
_NUMBERS = (1e308, -1e308, 1e154, -1e154, 5e-324, -5e-324, -0.0, 1.0, -2.5, 3.0)


def _csv(header: str, first_cell):
    # rows mix signs: a file may follow each row with a copy whose actual, or
    # both of whose cells, change sign
    def text(drawn):
        rows, signs = drawn
        if signs:
            rows = [row for a, p in rows for row in ((a, p), (signs[0] * a, signs[1] * p))]
        return header + "".join(f"{first_cell(a)},{p!r}\n" for a, p in rows)

    row = st.tuples(st.sampled_from(_NUMBERS), st.sampled_from(_NUMBERS))
    signs = st.sampled_from([None, (-1, 1), (-1, -1)])
    rows = st.tuples(st.lists(row, min_size=1, max_size=24), signs)
    return rows.map(text).map(str.encode) | st.binary(max_size=64)


_PAIRED = _csv("a,p\n", repr)
_SCORED = _csv("label,score\n", lambda a: "pos" if a > 0 else "neg")


class TestCliFuzz:
    """Any small input ends in exit code 0-3; no exception escapes ``main``."""

    @staticmethod
    def _argv(command, draw, write):
        def option(name, *choices):
            return f"--{name}={draw(st.sampled_from(choices))}"

        def flags(*choices):
            return draw(st.lists(st.sampled_from(choices), unique=True))

        def number():
            return repr(draw(st.sampled_from(_NUMBERS) | st.floats(0.0, 1.0)))

        paired = ["--actual-col=a", "--predicted-col=p"]
        scored = ["--label-col=label", "--score-col=score", "--positive=pos"]
        if command == "regress":
            return ["regress", f"--input={write(_PAIRED)}", *paired,
                    option("metrics", "all", "ME", "MNB,MPE"),
                    *flags("--ordered", "--skip-undefined-terms", "--drop-bad-rows",
                           "--strict", "--format=table")]
        if command == "classify":
            return ["classify", f"--input={write(_SCORED)}", *scored,
                    option("metrics", "all", "ACA", "LOG_LOSS,MXE,BRIER", "CM,WHD,HINGE"),
                    f"--threshold={number()}", f"--aca-weight={number()}",
                    *flags("--drop-bad-rows", "--strict", "--format=table")]
        if command == "curves":
            lift = [f"--lift-fraction={number()}"] if draw(st.booleans()) else []
            return ["curves", f"--input={write(_SCORED)}", *scored, *lift,
                    option("kind", "roc", "pr"),
                    *flags("--cal", f"--emit-points={write(st.just(b''))}", "--format=table")]
        check = command.removeprefix("validate-")
        if check == "adequacy":
            counts = st.integers(-2, 200) | st.integers()
            return ["validate", "--check=adequacy", f"--observations={draw(counts)}",
                    f"--parameters={draw(counts)}", *flags("--format=table")]
        if check == "objective":
            files = [f"--train={write(_PAIRED)}", f"--validation={write(_PAIRED)}"]
        elif check == "ri":
            files = [f"--model=m{i}={write(_PAIRED)}"
                     for i in range(draw(st.integers(2, 3)))]
        else:
            files = [f"--input={write(_PAIRED)}"]
        return ["validate", f"--check={check}", *files, *paired, *flags("--format=table")]

    # regress gets the most examples: its overflowing residuals need two
    # rows that meet by chance
    @pytest.mark.parametrize("command, examples", [
        ("regress", 250), ("classify", 25), ("curves", 25), ("validate-tropsha", 25),
        ("validate-rm", 25), ("validate-adequacy", 25), ("validate-objective", 25),
        ("validate-ri", 25)])
    def test_exit_code_is_a_documented_one(self, command, examples):
        @settings(max_examples=examples, deadline=None)
        @given(data=st.data())
        def run(data):
            with tempfile.TemporaryDirectory() as tmp:
                paths = iter(Path(tmp, f"in{i}.csv") for i in itertools.count())

                def write(contents):
                    path = next(paths)
                    path.write_bytes(data.draw(contents))
                    return path

                argv = self._argv(command, data.draw, write)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            assert code in (0, 1, 2, 3), err.getvalue()
            if code in (1, 2):
                assert not out.getvalue()
                assert err.getvalue().startswith("modeval: ")
                assert "Traceback" not in err.getvalue()

        run()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
class TestPipeInput:
    """A pipe cannot seek or say where it stands, so ``cli._InputFile`` counts
    its own position for the loaders' byte offsets."""

    @staticmethod
    def _regress(capsys, tmp_path, data):
        path = tmp_path / "pipe"
        os.mkfifo(path)
        # a daemon, so that a run that never opens the pipe cannot hang the suite
        writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            return run_cli(capsys, "regress", "--input", str(path),
                           "--actual-col", "a", "--predicted-col", "p")
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    def test_digest_is_the_sha256_of_the_bytes_written(self, capsys, tmp_path):
        data = b"a,p\n" + b"1.25,2.5\n" * 20_000
        code, out, err = self._regress(capsys, tmp_path, data)
        assert code == 0, err
        assert json.loads(out)["input_digest"] == hashlib.sha256(data).hexdigest()

    def test_bad_byte_offset(self, capsys, tmp_path):
        code, out, err = self._regress(capsys, tmp_path, b"a,p\n1,2\n3,\xff4\n")
        assert code == 2 and not out
        assert err == ("modeval: error: input is not valid UTF-8: invalid start byte "
                       "at byte 10\n")

    def test_bad_byte_offset_past_the_first_buffer(self, capsys, tmp_path):
        data = b"a,p\n" + b"1.25,2.5\n" * 20_000 + b"3,\xff4\n"
        code, out, err = self._regress(capsys, tmp_path, data)
        assert code == 2 and not out
        assert err == ("modeval: error: input is not valid UTF-8: invalid start byte "
                       "at byte 180006\n")


class TestCsvReaderError:
    LONG = '"' + "9" * 131_073 + '"'  # one past the csv module's field size limit
    COMMAND = ["regress", "--actual-col", "a", "--predicted-col", "p", "--metrics", "MAE"]

    @pytest.mark.parametrize("text, where", [
        ("a,p\n1,2\n\n" + LONG + ",3\n", "row 2"),
        ("a," + LONG + "\n1,2\n", "header row"),
    ])
    def test_oversized_field_is_a_data_error_without_traceback(self, capsys, tmp_path,
                                                                text, where):
        path = tmp_path / "long.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, *self.COMMAND, "--input", str(path))
        assert code == 2 and not out
        assert err.startswith(f"modeval: error: {where}: ") and "Traceback" not in err


    @pytest.mark.parametrize("text, message", [
        ('a,p\n1,2\n"3,4\n5,6\n7,8\n9,10\n', "unexpected end of data"),
        ('a,p\n1,2\n"3"x,4\n5,6\n', "',' expected after '\"'"),
    ], ids=["open-quote", "text-after-quote"])
    @pytest.mark.parametrize("drop", [[], ["--drop-bad-rows"]], ids=["strict", "drop"])
    def test_bad_quoting_names_the_row(self, capsys, tmp_path, text, message, drop):
        path = tmp_path / "quotes.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, *self.COMMAND, "--input", str(path), *drop)
        assert code == 2 and not out
        assert err == f"modeval: error: row 2: {message}\n"


class TestScoredCsvReaderError(TestCsvReaderError):
    """The same records through the scored loader: both loaders share one reader,
    so both name a record the csv module rejects in the same words."""

    COMMAND = ["classify", "--label-col", "a", "--score-col", "p", "--positive", "1"]


class TestInvalidUtf8:
    # the loaders decode in chunks, so a bad byte past the first chunk comes
    # up inside the record loop rather than while the header is read
    LATE = b"1,2\n" * 3000 + b"\xff3,4\n"

    @pytest.mark.parametrize("command, data, offset", [
        ("regress", b"a\xff,p\n1,2\n", 1),
        ("regress", b"a,p\n" + LATE, 12004),
        ("classify", b"a,p\n" + LATE, 12004),
    ], ids=["header", "regress-row", "classify-row"])
    def test_bad_byte_is_a_data_error_without_traceback(self, capsys, tmp_path, command,
                                                        data, offset):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        columns = (["--actual-col", "a", "--predicted-col", "p"] if command == "regress"
                   else ["--label-col", "a", "--score-col", "p", "--positive", "1"])
        code, out, err = run_cli(capsys, command, "--input", str(path), *columns)
        assert code == 2 and not out
        assert err == ("modeval: error: input is not valid UTF-8: invalid start byte "
                       f"at byte {offset}\n")


class TestByteOrderMark:
    def test_bom_file_gives_the_same_metrics(self, capsys, tmp_path):
        body = b"a,p\n1,2\n3,5\n"
        docs = []
        for name, data in (("plain.csv", body), ("bom.csv", b"\xef\xbb\xbf" + body)):
            path = tmp_path / name
            path.write_bytes(data)
            code, doc = run_json(capsys, "regress", "--input", str(path),
                                 "--actual-col", "a", "--predicted-col", "p")
            assert code == 0
            docs.append(doc)
        plain, bom = docs
        assert bom["metrics"] == plain["metrics"]
        # the digest is of the raw bytes, BOM included
        assert bom["input_digest"] != plain["input_digest"]


class TestInputStreaming:
    """The CLI streams each input file through the digest instead of holding it."""

    def test_regress_peak_stays_below_the_file_size(self, capsys, tmp_path):
        # a wide unused column makes the file outweigh the two kept columns,
        # so a process that holds the file's bytes peaks above its size
        rng = random.Random(21)
        path = tmp_path / "padded.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("actual,predicted,note\n")
            for _ in range(20_000):
                actual = round(rng.uniform(1, 100), 3)
                fh.write(f"{actual},{actual + rng.gauss(0, 2)!r},{'x' * 120}\n")
        argv = ["regress", "--input", str(path), "--actual-col", "actual",
                "--predicted-col", "predicted", "--ordered", "--skip-undefined-terms"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < path.stat().st_size

    @pytest.mark.parametrize("data", [
        b"\xef\xbb\xbfa,p\n1,2\n3,5\n",
        b"a,p\r\n1,2\r\n3,5\r\n",
        b"a,p\n1,2\n3,5\n\n\n\r\n",
        b"a,p\n1,2\n3,5",
        b"a,p\n" + b"1.25,2.5\n" * 20_000,
        b"a,p\n" + b"1,2\n" * 4095,  # 16384 bytes: the file ends on a whole 8 KiB chunk
    ], ids=["bom", "crlf", "trailing-blank-lines", "no-final-newline", "many-buffers",
            "buffer-multiple"])
    def test_digest_is_the_sha256_of_the_raw_file(self, capsys, tmp_path, data):
        path = tmp_path / "input.csv"
        path.write_bytes(data)
        _, doc = run_json(capsys, "regress", "--input", str(path),
                          "--actual-col", "a", "--predicted-col", "p")
        assert doc["input_digest"] == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("order", [("model_a", "model_b"), ("model_b", "model_a")])
    def test_validate_digest_joins_the_files_in_argument_order(self, capsys, order):
        paths = [FIXTURES / f"{name}.csv" for name in order]
        joined = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
        _, doc = run_json(capsys, "validate", "--check", "objective",
                          "--train", str(paths[0]), "--validation", str(paths[1]))
        assert doc["input_digest"] == joined
        _, doc = run_json(capsys, "validate", "--check", "ri",
                          *(f"--model={p.stem}={p}" for p in paths))
        assert doc["input_digest"] == joined

    def test_validate_digest_of_counts_is_their_text(self, capsys):
        _, doc = run_json(capsys, "validate", "--check", "adequacy",
                          "--observations", "10", "--parameters", "3")
        text = b"observations=10,parameters=3"
        assert doc["input_digest"] == hashlib.sha256(text).hexdigest()


class TestInputReadPath:
    """The loaders read an input file only through ``_InputFile.read1``, where
    the digest is taken. A loader that read around it would leave bytes out of
    the hash, so here every other read method fails the run."""

    def test_every_byte_is_read_through_read1(self, capsys, monkeypatch, tmp_path):
        from modeval import cli

        class Read1Only(cli._InputFile):
            def _refuse(self, *args):
                raise AssertionError("an input file was read around read1")

            read = readinto = readinto1 = readline = readlines = peek = _refuse

        monkeypatch.setattr(cli, "_InputFile", Read1Only)
        many = tmp_path / "many.csv"
        many.write_bytes(b"a,p\n" + b"1.25,2.5\n" * 20_000)
        c1, model_a, model_b = (FIXTURES / f"{name}.csv"
                                for name in ("c1", "model_a", "model_b"))
        runs = [
            (("regress", "--input", many, "--actual-col", "a", "--predicted-col", "p"),
             [many]),
            (("classify", "--input", c1, "--label-col", "label", "--score-col", "score",
              "--positive", "pos"), [c1]),
            (("validate", "--check", "objective", "--train", model_a,
              "--validation", model_b), [model_a, model_b]),
        ]
        for argv, paths in runs:
            code, doc = run_json(capsys, *map(str, argv))
            assert code == 0
            joined = b"".join(path.read_bytes() for path in paths)
            assert doc["input_digest"] == hashlib.sha256(joined).hexdigest()


class TestInputFilesClosed:
    """Every input file the CLI opens is closed when ``main`` returns. A
    buffered reader left to the garbage collector closes itself without a
    ResourceWarning, so the warning filters cannot see a missed close."""

    @pytest.mark.parametrize("argv, code, files", [
        (("regress", "--input", FIXTURES / "f1.csv", "--actual-col", "a",
          "--predicted-col", "p"), 0, 1),
        (("classify", "--input", FIXTURES / "c1.csv", "--label-col", "label",
          "--score-col", "score", "--positive", "pos"), 0, 1),
        (("curves", "--kind", "roc", "--input", FIXTURES / "s1.csv", "--label-col", "label",
          "--score-col", "score", "--positive", "pos"), 0, 1),
        (("validate", "--check", "objective", "--train", FIXTURES / "model_a.csv",
          "--validation", FIXTURES / "model_b.csv"), 0, 2),
        # the loader raises while the file is open
        (("regress", "--input", FIXTURES / "bad_cell.csv", "--actual-col", "a",
          "--predicted-col", "p"), 2, 1),
    ], ids=["regress", "classify", "curves", "validate", "bad-cell"])
    def test_every_input_file_is_closed(self, capsys, monkeypatch, argv, code, files):
        from modeval import cli

        opened = []

        class RecordingInputFile(cli._InputFile):
            def __init__(self, *args):
                super().__init__(*args)
                opened.append(self)

        monkeypatch.setattr(cli, "_InputFile", RecordingInputFile)
        assert main(list(map(str, argv))) == code
        capsys.readouterr()
        assert len(opened) == files
        assert all(stream.closed for stream in opened)


class TestScoredMemory:
    """Peak traced allocation of one scored CLI call, per row of the input.

    On this seeded 2e4-row file (10% positives, 20% of scores rounded to two
    places, so many ties) ``curves --kind pr`` peaks at 97-101 B/row,
    ``--kind roc`` at 95-99 and ``classify --metrics all`` at 35-81 (Python
    3.10-3.13). A second n-item label tuple, such as bool flags cached next
    to label strings, took the curves to 105-109 and 103-107 B/row; boxed
    ranking counts and curve rates took ``pr`` to about 220. ``--kind roc
    --cal`` peaks at 106-110 B/row (Python 3.11); keeping every window's
    calibration error took it to 154-158.
    """

    ROWS = 20_000

    @classmethod
    def _peak(cls, capsys, tmp_path, *argv):
        rng = random.Random(31)
        path = tmp_path / "scored.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("id,label,score\n")
            for i in range(cls.ROWS):
                score = rng.random()
                if rng.random() < 0.2:
                    score = round(score, 2)
                fh.write(f"{i},{'pos' if rng.random() < 0.1 else 'neg'},{score!r}\n")
        tracemalloc.start()
        try:
            code = main([*argv, "--input", str(path), "--label-col", "label",
                         "--score-col", "score", "--positive", "pos"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        return peak / cls.ROWS

    def test_pr_curve_peak(self, capsys, tmp_path):
        assert self._peak(capsys, tmp_path, "curves", "--kind", "pr") < 104

    def test_roc_curve_peak(self, capsys, tmp_path):
        assert self._peak(capsys, tmp_path, "curves", "--kind", "roc") < 102

    def test_calibration_peak(self, capsys, tmp_path):
        assert self._peak(capsys, tmp_path, "curves", "--kind", "roc", "--cal") < 115

    def test_classify_peak(self, capsys, tmp_path):
        assert self._peak(capsys, tmp_path, "classify", "--metrics", "all") < 115
