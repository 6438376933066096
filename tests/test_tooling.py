"""Checks on the repository's tooling that would otherwise need a benchmark run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_resolves():
    # perfbench/tracing.py wraps module attributes by name; a renamed one
    # would otherwise surface only in a traced benchmark run
    tracing = _tracing()
    found = tracing.originals()
    assert len(found) == len(tracing.TARGETS)
    assert all(callable(original) for _, _, original in found)


def test_traced_loaders_count_rows():
    # the trace counts a loader's rows from the input the CLI hands it
    from modeval.cli import main

    tracing = _tracing()
    with tracing.traced(tracing.Recorder()) as recorder:
        assert main(["regress", "--input", str(FIXTURES / "bad_cell.csv"), "--actual-col", "a",
                     "--predicted-col", "p", "--drop-bad-rows"]) == 0
        assert main(["curves", "--kind", "roc", "--input", str(FIXTURES / "s1.csv"),
                     "--label-col", "label", "--score-col", "score", "--positive", "pos"]) == 0
    scored_rows = (FIXTURES / "s1.csv").read_bytes().count(b"\n") - 1
    assert (recorder.rows_in, recorder.rows_dropped) == (2 + scored_rows, 1)


_SCORED = ("--label-col", "label", "--score-col", "score", "--positive", "pos")
_MODELS = ("--model", f"a={FIXTURES / 'model_a.csv'}", "--model", f"b={FIXTURES / 'model_b.csv'}")
_CLI = ("-m", "modeval.cli")
# loaded by no process modeval starts: hashlib loads OpenSSL's libcrypto, and
# dataclasses loads inspect, which loads ast, dis and tokenize
_HEAVY = {"hashlib", "_hashlib", "dataclasses", "inspect"}


@pytest.mark.parametrize("argv, family, absent", [
    ((*_CLI, "regress", "--input", FIXTURES / "f1.csv", "--actual-col", "a",
      "--predicted-col", "p"),
     "regression", {"classification", "curves", "validation", "fractions"}),
    ((*_CLI, "classify", "--input", FIXTURES / "c1.csv", *_SCORED),
     "classification", {"curves", "validation", "regression"}),
    ((*_CLI, "curves", "--kind", "roc", "--input", FIXTURES / "s1.csv", *_SCORED),
     "curves", {"classification", "validation", "regression", "fractions"}),
    ((*_CLI, "validate", "--check", "objective", "--train", FIXTURES / "model_a.csv",
      "--validation", FIXTURES / "model_b.csv"),
     "validation", {"classification", "curves"}),
    ((*_CLI, "validate", "--check", "ri", *_MODELS), "validation", {"classification", "curves"}),
    ((*_CLI, "validate", "--check", "tropsha", "--input", FIXTURES / "perfect.csv"),
     "validation", {"classification", "curves"}),
    ((*_CLI, "validate", "--check", "rm", "--input", FIXTURES / "model_a.csv"),
     "validation", {"classification", "curves"}),
    ((*_CLI, "validate", "--check", "adequacy", "--observations", "10", "--parameters", "3"),
     "validation", {"classification", "curves"}),
    # the gp_population worker's import path
    (("-c", "import modeval.gp_fitness"), "gp_fitness",
     {"classification", "curves", "validation", "regression"}),
], ids=["regress", "classify", "curves", "validate", "validate-ri", "validate-tropsha",
        "validate-rm", "validate-adequacy", "gp_fitness"])
def test_command_imports_only_its_own_family(argv, family, absent):
    result = subprocess.run([sys.executable, "-X", "importtime", *map(str, argv)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert f"modeval.{family}" in imported
    absent = {name if name == "fractions" else f"modeval.{name}" for name in absent}
    assert not imported & (absent | _HEAVY)


@pytest.mark.parametrize("argv, calls", [
    (("curves", "--kind", "roc", "--input", FIXTURES / "ties.csv", *_SCORED,
      "--lift-fraction", "0.5", "--cal"),
     {"dataset.load_scored_csv": 1, "curves.roc_curve": 1, "curves.auc": 1,
      "curves.lift": 1, "curves.calibration_error": 1}),
    (("curves", "--kind", "pr", "--input", FIXTURES / "s1.csv", *_SCORED),
     {"dataset.load_scored_csv": 1, "curves.pr_curve": 1, "curves.break_even_point": 1}),
    # every rate-based entry reads the context's one RateSet
    (("classify", "--input", FIXTURES / "c1.csv", *_SCORED),
     {"dataset.load_scored_csv": 1, "dataset.confusion_from_scores": 1,
      "classification.rates": 1, "classification.mean_cross_entropy": 1,
      "classification.brier_score": 1, "classification.hinge_loss": 1,
      "classification.canberra": 1, "classification.wave_hedges": 1}),
    (("validate", "--check", "tropsha", "--input", FIXTURES / "perfect.csv"),
     {"dataset.load_paired_csv": 1, "validation.tropsha_criteria": 1, "stats.sum_sq_dev": 2}),
    (("validate", "--check", "rm", "--input", FIXTURES / "model_a.csv"),
     {"dataset.load_paired_csv": 1, "validation.roy_rm": 1, "validation.tropsha_criteria": 1,
      "stats.sum_sq_dev": 2}),
    (("validate", "--check", "objective", "--train", FIXTURES / "model_a.csv",
      "--validation", FIXTURES / "model_b.csv"),
     {"dataset.load_paired_csv": 2, "validation.gandomi_objective": 1, "stats.sum_sq_dev": 4}),
    (("validate", "--check", "ri", *_MODELS),
     {"dataset.load_paired_csv": 2, "validation.reference_index": 1}),
    (("validate", "--check", "adequacy", "--observations", "10", "--parameters", "3"), {}),
], ids=["roc_lift_cal", "pr", "classify", "tropsha", "rm", "objective", "ri", "adequacy"])
def test_traced_span_counts(capsys, argv, calls):
    # a metric table that held a function object instead of looking it up at
    # call time would hide that function's span from the trace
    from modeval import cli

    tracing = _tracing()
    with tracing.traced(tracing.Recorder()) as recorder:
        assert cli.main(list(map(str, argv))) == 0
    capsys.readouterr()
    assert dict(recorder.calls) == {"cli.main": 1, **calls}


@pytest.mark.parametrize("argv", [
    ("regress", "--input", FIXTURES / "f1.csv", "--actual-col", "a", "--predicted-col", "p",
     "--ordered"),
    ("classify", "--input", FIXTURES / "c1.csv", "--label-col", "label",
     "--score-col", "score", "--positive", "pos"),
    ("curves", "--kind", "pr", "--input", FIXTURES / "s1.csv", "--label-col", "label",
     "--score-col", "score", "--positive", "pos", "--lift-fraction", "0.5"),
    ("validate", "--check", "objective", "--train", FIXTURES / "model_a.csv",
     "--validation", FIXTURES / "model_b.csv"),
], ids=["regress", "classify", "curves", "validate"])
def test_commands_run_clean_in_dev_mode(argv):
    # development mode reports an input file left for the garbage collector
    # to close as a ResourceWarning, which -W error turns into stderr output
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "modeval.cli", *map(str, argv)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
