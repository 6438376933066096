"""Span recording around modeval's layer boundaries, from outside the package.

``traced(recorder)`` replaces each public function in ``TARGETS`` with a
timing wrapper at the module attribute its callers look it up under, and puts
every original back when the block exits, whether or not a call raised.
Nothing under ``src/modeval`` changes.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). A span name can sit under several modules
# when callers import the function by name (``from .x import f``).
TARGETS = (
    ("modeval.cli", "main", "cli.main"),
    ("modeval.cli", "load_paired_csv", "dataset.load_paired_csv"),
    ("modeval.cli", "load_scored_csv", "dataset.load_scored_csv"),
    ("modeval.cli", "confusion_from_scores", "dataset.confusion_from_scores"),
    ("modeval.regression", "regression_report", "regression.regression_report"),
    ("modeval.regression", "point_metric", "regression.point_metric"),
    ("modeval.validation", "point_metric", "regression.point_metric"),
    ("modeval._stats", "sum_sq_dev", "stats.sum_sq_dev"),
    ("modeval.regression", "sum_sq_dev", "stats.sum_sq_dev"),
    ("modeval.validation", "sum_sq_dev", "stats.sum_sq_dev"),
    ("modeval._stats", "sum_abs_dev", "stats.sum_abs_dev"),
    ("modeval.regression", "sum_abs_dev", "stats.sum_abs_dev"),
    *(("modeval.classification", fn, f"classification.{fn}") for fn in (
        "rates", "likelihood_ratios", "hamming_loss",
        "probability_matrix_from_scores", "log_loss", "brier_score",
        "mean_cross_entropy", "hinge_loss", "canberra", "wave_hedges")),
    *(("modeval.curves", fn, f"curves.{fn}") for fn in (
        "roc_curve", "auc", "pr_curve", "average_precision", "break_even_point",
        "lift", "calibration_error")),
    *(("modeval.validation", fn, f"validation.{fn}") for fn in (
        "reference_index", "tropsha_criteria", "roy_rm", "gandomi_objective")),
    *(("modeval.gp_fitness", fn, f"gp_fitness.{fn}") for fn in (
        "ClassOutputs", "wmw", "ffa", "ffc", "ffd", "d_score")),
)

LOADERS = ("dataset.load_paired_csv", "dataset.load_scored_csv")


class Recorder:
    """Total time, self time and call count per span name, plus loader rows.

    A span's self time is its duration minus the durations of the wrapped
    calls made inside it. Time spent counting rows is charged to no span.
    """

    def __init__(self):
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.rows_in = 0
        self.rows_dropped = 0
        self._children = []  # one accumulator of child time per open span

    def wrap(self, name, fn):
        count_rows = name in LOADERS

        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.total_s[name] += duration
                self.self_s[name] += duration - self._children.pop()
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += duration
            if count_rows:
                hook_start = perf_counter()
                # the CLI hands loaders the raw file bytes: header plus one line per row
                rows = args[0].count(b"\n") - 1
                self.rows_in += rows
                self.rows_dropped += rows - len(result)
                if self._children:
                    self._children[-1] += perf_counter() - hook_start
            return result

        return wrapper


def originals() -> list:
    """(module, attribute, current value) for every target, in TARGETS order."""
    found = []
    for module_name, attr, _ in TARGETS:
        module = importlib.import_module(module_name)
        found.append((module, attr, getattr(module, attr)))
    return found


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install the wrappers for the length of the block; always restore them."""
    saved = []
    try:
        for (module, attr, original), (_, _, name) in zip(originals(), TARGETS):
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def check_restored(expected: list) -> None:
    """Raise if any patched module attribute is not the original object."""
    leaked = [f"{module.__name__}.{attr}" for module, attr, original in expected
              if getattr(module, attr) is not original]
    if leaked:
        raise RuntimeError(f"trace wrappers left installed: {', '.join(leaked)}")
