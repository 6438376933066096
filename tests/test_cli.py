import hashlib
import json
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

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
            f"{p.threshold!r},{p.recall!r},{p.precision!r}" for p in curve.points]

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


def test_note_placeholders_are_filled_only_where_a_value_belongs():
    # {name} or {name:spec} with an identifier name is filled from the context;
    # recall_{n-1} and A_{i-1} are literal
    from modeval import classification, curves, regression, validation
    from modeval.cli import _PLACEHOLDER

    tables = [regression.METRICS, classification.COUNTS, classification.METRICS,
              curves.METRICS, *(check.table for check in validation.CHECKS.values())]
    entries = [m for table in tables for m in table.values()]
    assert sorted(m.id for m in entries if _PLACEHOLDER.search(m.note)) == ["ACA", "CAL", "LIFT"]
    assert "{n-1}" in curves.METRICS["AP"].note and "{i-1}" in regression.METRICS["MASE"].note


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


class TestCsvReaderError:
    LONG = '"' + "9" * 131_073 + '"'  # one past the csv module's field size limit

    @pytest.mark.parametrize("text, where", [
        ("a,p\n1,2\n\n" + LONG + ",3\n", "row 2"),
        ("a," + LONG + "\n1,2\n", "header row"),
    ])
    def test_oversized_field_is_a_data_error_without_traceback(self, capsys, tmp_path,
                                                                text, where):
        path = tmp_path / "long.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "regress", "--input", str(path),
                                 "--actual-col", "a", "--predicted-col", "p")
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
        code, out, err = run_cli(capsys, "regress", "--input", str(path),
                                 "--actual-col", "a", "--predicted-col", "p",
                                 "--metrics", "MAE", *drop)
        assert code == 2 and not out
        assert err == f"modeval: error: row 2: {message}\n"


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
    ], ids=["bom", "crlf", "trailing-blank-lines", "no-final-newline", "many-buffers"])
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


class TestScoredMemory:
    """Peak traced allocation of one scored CLI call, per row of the input.

    On this seeded 2e4-row file (10% positives, 20% of scores rounded to two
    places, so many ties) ``curves --kind pr`` peaks near 120 B/row and
    ``classify --metrics all`` near 105 B/row (Python 3.11; up to 130 and 107
    on 3.10-3.13). Boxed ranking counts and curve rates, and one label string
    kept per row while loading, took them to about 220 and 128 B/row.
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
        assert self._peak(capsys, tmp_path, "curves", "--kind", "pr") < 150

    def test_classify_peak(self, capsys, tmp_path):
        assert self._peak(capsys, tmp_path, "classify", "--metrics", "all") < 115
