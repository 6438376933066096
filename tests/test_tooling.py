"""Checks on the repository's tooling that would otherwise need a benchmark run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def test_every_trace_target_resolves():
    # perfbench/tracing.py wraps module attributes by name; a renamed one
    # would otherwise surface only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    found = tracing.originals()
    assert len(found) == len(tracing.TARGETS)
    assert all(callable(original) for _, _, original in found)


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
