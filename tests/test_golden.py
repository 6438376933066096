"""CLI output compared byte for byte with snapshots frozen under fixtures/golden.

Each ``<name>.out`` holds a run's stdout with the fixture directory replaced
by ``<fixtures>``; a run that writes ``--emit-points`` also has the file it
wrote frozen as ``<name>.points.csv``. The snapshots are never regenerated:
a refactor must reproduce them as they are.
"""

import pytest

from _golden import FIXTURES, POINTS, SNAPSHOT_RUNS
from modeval.cli import main

GOLDEN = FIXTURES / "golden"


def run_snapshot(capsys, tmp_path, argv):
    """Exit code, stdout with paths replaced, and the points file if one was written."""
    points = tmp_path / "points.csv"
    code = main([str(points) if arg == POINTS else arg for arg in argv])
    out = capsys.readouterr().out
    out = out.replace(str(points), POINTS).replace(str(FIXTURES), "<fixtures>")
    return code, out, points.read_bytes() if points.exists() else None


@pytest.mark.parametrize("name", sorted(SNAPSHOT_RUNS))
def test_output_matches_frozen_snapshot(capsys, tmp_path, name):
    code, out, points = run_snapshot(capsys, tmp_path, SNAPSHOT_RUNS[name])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    frozen_points = GOLDEN / f"{name}.points.csv"
    if points is None:
        assert not frozen_points.exists()
    else:
        assert points == frozen_points.read_bytes()
