"""Benchmark of the modeval CLI and library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn. The metric names, units and
workload reasons are read from ``BENCHMARK.json`` at the checkout root.

Load: one closed-loop client. A call starts when the previous one returns,
and at most one child process runs at a time. Whole passes over a
workload's calls repeat while the next pass is projected to end within
``--seconds``; at least one pass runs.

``--trace 0`` reports the end-to-end metrics. Each CLI call is a fresh
``python -m modeval.cli`` process; ``gp_population`` runs in one worker
process that calls ``modeval.gp_fitness`` directly. ``eval_p50_ms`` and
``eval_p95_ms`` are linearly interpolated percentiles over evaluations: each
evaluation of a candidate for ``gp_population``; for the others, each of the
workload's calls, timed as its median over the passes. The sample and pass
counts are printed. ``rows_per_s`` is the data rows the timed calls read
(for ``gp_population``, the output values scored) over the timed wall time.

``--trace 1`` runs each workload once untraced and once in-process with
timing wrappers on the layer boundaries (see ``tracing.py``), at full size
and at one tenth of the rows, and reports the per-layer metrics.

Inputs are generated from the seed by ``plans.py``, in a process of its
own, into a temporary directory inside the checkout that is removed on exit;
their provenance is printed. Outputs are
checked against ``oracle.py`` and against the first call on the same input.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when any check failed and 2
when the checkout holds no modeval source.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle
import tracing
from gen import read_candidates
from gp_client import closed_loop, run_population
from plans import PLANS

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=str(SRC))
CALL_TIMEOUT_S = 170
# setup_s is the median of twice this many fresh-interpreter imports, half
# before and half after the timed loop: one spawn alone varies by tens of
# milliseconds, and the machine's speed drifts over a run.
SETUP_SPAWNS = 6
GROWTH_SCALE = 0.1
GROWTH_SPANS = ("dataset.load_paired_csv", "dataset.load_scored_csv",
                "regression.regression_report", "curves.roc_curve",
                "curves.pr_curve", "curves.average_precision", "curves.lift",
                "curves.calibration_error", "gp_fitness.wmw",
                "validation.reference_index")
CLASSIFICATION_SPANS = tuple(name for _, _, name in tracing.TARGETS
                             if name.startswith("classification."))


# ---------------------------------------------------------------------------
# running and checking


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    peak_rss_mb: float


def spawn(args, work: Path) -> Child:
    """Run one child interpreter to completion and take its own rusage.

    The child's ``ru_maxrss`` also counts this process's peak at the moment
    of the exec, which is why inputs are generated in another process.
    """
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=ENV,
                                stdout=out, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                 seconds, usage.ru_maxrss / 1024)


@dataclass
class Call:
    """One CLI call: arguments after ``modeval``, data rows read, oracle values."""

    argv: list
    rows: int
    expected: dict


@dataclass
class Plan:
    provenance: list
    calls: list = field(default_factory=list)
    candidates: str = None  # gp_population: the candidate file
    outputs: int = 0        # gp_population: outputs per candidate
    wmw: list = None        # gp_population: oracle WMW per candidate


def make_plan(name: str, seed: int, scale: float, work: Path) -> Plan:
    """Generate a workload's inputs in a separate process (see plans.py)."""
    child = spawn([str(BENCH_DIR / "plans.py"), name, str(seed), repr(scale), str(work)],
                  work)
    if child.code != 0:
        raise RuntimeError(f"generating {name} inputs failed: "
                           + child.stderr.decode(errors="replace"))
    plan = json.loads(child.stdout)
    plan["calls"] = [Call(**call) for call in plan.get("calls", [])]
    return Plan(**plan)


def import_seconds(module: str, work: Path) -> list:
    """Times for fresh interpreters to import ``module``."""
    children = [spawn(["-c", f"import {module}"], work) for _ in range(SETUP_SPAWNS)]
    failed = [c.stderr.decode(errors="replace") for c in children if c.code]
    if failed:
        raise RuntimeError(f"importing {module} failed: {failed[0]}")
    return [c.seconds for c in children]


class Outcome:
    """Attempted and failed calls, with the distinct problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = {}

    def record(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                self.problems.setdefault(f"{label}: {problem}", None)


def _label(call: Call) -> str:
    return "modeval " + " ".join(a if len(a) < 40 else Path(a).name for a in call.argv)


def check_cli_passes(calls, passes, outcome: Outcome) -> None:
    """Each call must exit 0, agree with the oracle, and repeat the first
    pass's stdout byte for byte."""
    first = passes[0]
    verdicts = []
    for call, child in zip(calls, first):
        if child.code != 0:
            verdicts.append([f"exit code {child.code}: "
                             + child.stderr.decode(errors="replace").strip()[-300:]])
        else:
            verdicts.append(oracle.check(call.expected, child.stdout))
    for run in passes:
        for call, child, reference, verdict in zip(calls, run, first, verdicts):
            problems = list(verdict)
            if child.stdout != reference.stdout:
                problems.append("stdout differs from the first call on the same input")
            outcome.record(_label(call), problems)


def check_gp_result(result: dict, plan: Plan, outcome: Outcome) -> None:
    """WMW must equal the sort+bisect count; repeats must match the first pass."""
    for i, (rendered, mismatches) in enumerate(zip(result["results"], result["mismatches"])):
        wmw_id, wmw, _ = rendered[0]
        want = plan.wmw[i]
        problems = [] if wmw_id == "WMW" and wmw == want else [
            f"WMW = {wmw!r}, oracle says {want!r}"]
        for repeat in range(result["passes"]):
            mismatch = ["differs from its first evaluation"] if repeat < mismatches else []
            outcome.record(f"gp candidate {i}", problems + mismatch)


def percentile(values, share: float) -> float:
    """Percentile by linear interpolation between the closest ranks.

    With the few calls a CLI workload makes, nearest rank would make p95
    the slowest call alone; interpolation weighs in its neighbour.
    """
    ranked = sorted(values)
    position = share * (len(ranked) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ranked) - 1)
    return ranked[low] + (ranked[high] - ranked[low]) * (position - low)


def latency_metrics(seconds_list) -> dict:
    return {"eval_p50_ms": 1e3 * statistics.median(seconds_list),
            "eval_p95_ms": 1e3 * percentile(seconds_list, 0.95)}


def run_gp_worker(plan: Plan, seconds: float, work: Path):
    child = spawn([str(BENCH_DIR / "gp_client.py"), str(plan.candidates), repr(seconds)],
                  work)
    if child.code != 0:
        raise RuntimeError("gp_population worker failed: "
                           + child.stderr.decode(errors="replace"))
    return json.loads(child.stdout), child


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(name: str, seed: int, seconds: float, work: Path):
    plan = make_plan(name, seed, 1.0, work)
    outcome = Outcome()
    module = "modeval.gp_fitness" if plan.candidates else "modeval.cli"
    spawn(["-c", f"import {module}"], work)  # unmeasured: writes the bytecode caches
    setup = import_seconds(module, work)
    if plan.candidates:
        result, child = run_gp_worker(plan, seconds, work)
        latencies = result["latencies"]
        values = latency_metrics(latencies)
        values["rows_per_s"] = len(latencies) * plan.outputs / result["wall_s"]
        values["peak_rss_mb"] = child.peak_rss_mb
        check_gp_result(result, plan, outcome)
        passes = result["passes"]
    else:
        runs, wall = closed_loop(
            lambda: [spawn(["-m", "modeval.cli", *c.argv], work) for c in plan.calls],
            seconds)
        children = [child for run in runs for child in run]
        # one evaluation is one call, timed as its median over the passes:
        # repeats of a call on the same input differ only by the machine's
        # noise, which a percentile over repeats would measure instead
        latencies = [statistics.median(run[i].seconds for run in runs)
                     for i in range(len(plan.calls))]
        values = latency_metrics(latencies)
        passes = len(runs)
        values["rows_per_s"] = len(runs) * sum(c.rows for c in plan.calls) / wall
        values["peak_rss_mb"] = max(c.peak_rss_mb for c in children)
        check_cli_passes(plan.calls, runs, outcome)
    values["setup_s"] = statistics.median(setup + import_seconds(module, work))
    values["failed_ratio"] = outcome.failed / outcome.attempted
    return values, outcome, plan.provenance, {"latency_samples": len(latencies),
                                              "passes": passes}


# ---------------------------------------------------------------------------
# traced run


def _in_process(argv) -> Child:
    import modeval.cli

    buffer = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = modeval.cli.main(list(argv))
    return Child(code, buffer.getvalue().encode("utf-8"), b"",
                 perf_counter() - start, 0.0)


def traced_pass(name: str, seed: int, scale: float, work: Path, outcome: Outcome):
    """One pass three ways: CLI subprocesses (or the gp worker) as in the
    untraced run, then in-process without and with the trace wrappers.

    The traced stdout must equal the subprocess stdout byte for byte.
    Returns the recorder and the traced / in-process untraced wall ratio.
    """
    work.mkdir()
    plan = make_plan(name, seed, scale, work)
    expected = tracing.originals()
    recorder = tracing.Recorder()
    if plan.candidates:
        import modeval.gp_fitness as gp

        reference, _ = run_gp_worker(plan, 0.0, work)
        check_gp_result(reference, plan, outcome)
        population = read_candidates(plan.candidates)
        plain = run_population(gp, population, 0.0)
        with tracing.traced(recorder):
            traced = run_population(gp, population, 0.0)
        same = json.dumps(traced["results"]) == json.dumps(reference["results"])
        outcome.record(f"{name} traced population",
                       [] if same else ["traced results differ from the untraced run"])
        plain_wall, traced_wall = plain["wall_s"], traced["wall_s"]
    else:
        reference = [spawn(["-m", "modeval.cli", *c.argv], work) for c in plan.calls]
        check_cli_passes(plan.calls, [reference], outcome)
        plain = [_in_process(c.argv) for c in plan.calls]
        with tracing.traced(recorder):
            traced = [_in_process(c.argv) for c in plan.calls]
        for call, child, wrapped in zip(plan.calls, reference, traced):
            outcome.record(f"traced {_label(call)}", [] if (
                wrapped.code == child.code and wrapped.stdout == child.stdout) else [
                "traced stdout differs from the untraced run"])
        plain_wall = sum(c.seconds for c in plain)
        traced_wall = sum(c.seconds for c in traced)
    tracing.check_restored(expected)
    return recorder, traced_wall / plain_wall, plan.provenance


def _growth(full: float, tenth: float) -> float:
    return full / tenth if tenth > 0 else 0.0


def traced_run(name: str, seed: int, work: Path):
    outcome = Outcome()
    full, overhead, provenance = traced_pass(name, seed, 1.0, work / "full", outcome)
    tenth, _, tenth_provenance = traced_pass(name, seed, GROWTH_SCALE, work / "tenth",
                                             outcome)
    values = {"trace.overhead_ratio": overhead,
              "cli.main.self_s": full.self_s["cli.main"],
              "dataset.rows_in": full.rows_in,
              "dataset.rows_dropped": full.rows_dropped,
              "classification.total_s": sum(full.self_s[s] for s in CLASSIFICATION_SPANS),
              "growth.cli.main.self": _growth(full.self_s["cli.main"],
                                              tenth.self_s["cli.main"])}
    for _, _, span in tracing.TARGETS:
        values[f"{span}.s"] = full.self_s[span]
        values[f"{span}.calls"] = full.calls[span]
    # a span's total time, not its self time: reference_index's own work is a
    # few microseconds around its point_metric calls
    for span in GROWTH_SPANS:
        values[f"growth.{span}"] = _growth(full.total_s[span], tenth.total_s[span])
    values["failed_ratio"] = outcome.failed / outcome.attempted
    return values, outcome, provenance + tenth_provenance, {}


# ---------------------------------------------------------------------------
# command line


def machine() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "system": platform.system()}


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool):
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if trace:
            values, outcome, provenance, extra = traced_run(name, seed, Path(tmp))
        else:
            values, outcome, provenance, extra = end_to_end(name, seed, seconds, Path(tmp))
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print(f"workload {name} (seed {seed}, {'traced' if trace else 'untraced'}): {why}")
    for metric, entry in metrics.items():
        print(f"  {metric:<48} {entry['value']!r} {entry['unit']}")
    print(f"  {'failed_ratio':<48} {values['failed_ratio']!r} fraction "
          f"({outcome.failed} of {outcome.attempted} calls)")
    print("provenance " + json.dumps({"workload": name, "machine": machine(), **extra,
                                      "inputs": provenance}))
    for problem in outcome.problems:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*PLANS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "modeval" / "__init__.py").is_file():
        print(f"perfbench: no modeval source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(PLANS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                               for metric, entry in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
