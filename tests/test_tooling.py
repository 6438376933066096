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


def test_regress_imports_only_its_own_family():
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "modeval.cli", "regress", "--input",
         str(FIXTURES / "f1.csv"), "--actual-col", "a", "--predicted-col", "p"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert "modeval.regression" in imported
    assert not imported & {"modeval.classification", "modeval.curves",
                           "modeval.validation", "fractions"}


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
