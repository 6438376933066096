"""Workload definitions: generated inputs, CLI calls and oracle expectations.

``python3 perfbench/plans.py WORKLOAD SEED SCALE DIR`` writes the workload's
inputs into DIR at SCALE times the full row count and prints the plan as
JSON. It runs as a process of its own so that the generated data never
enlarges the benchmark process: a child started with ``vfork`` and ``exec``
inherits its parent's peak resident size in ``ru_maxrss``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import gen
import oracle


def _rng(workload, seed, scale):
    return random.Random(f"{workload}:{seed}:{scale}")


def _call(argv, rows, expected=None) -> dict:
    """One CLI call: arguments after ``modeval``, data rows read, oracle values."""
    return {"argv": [str(a) for a in argv], "rows": rows, "expected": expected or {}}


def _regress_argv(path, *extra):
    return ["regress", "--input", path, "--actual-col", "actual",
            "--predicted-col", "predicted", *extra]


def regress_100k(seed, work: Path, scale: float) -> dict:
    rng = _rng("regress_100k", seed, scale)
    rows = round(100_000 * scale)
    path = work / "regress.csv"
    (actual, predicted), record = gen.regression_file(
        rng, path, rows, zero_share=0.001, bad_share=0.001)
    return {"calls": [_call(_regress_argv(path, "--ordered", "--metrics", "all",
                                          "--skip-undefined-terms", "--drop-bad-rows"),
                            rows, oracle.regression_expected(actual, predicted))],
            "provenance": [record]}


def score_50k(seed, work: Path, scale: float) -> dict:
    rng = _rng("score_50k", seed, scale)
    big, small = work / "scores.csv", work / "probabilities.csv"
    # lift and CAL are quadratic at the parent commit, so they get a file
    # small enough to finish
    big_rows, small_rows = round(50_000 * scale), round(2_000 * scale)
    (flags, scores), big_record = gen.scored_file(
        rng, big, big_rows, positive_share=0.1, rounded_share=0.2)
    _, small_record = gen.scored_file(
        rng, small, small_rows, positive_share=0.1, rounded_share=0.2)
    labels = ["--label-col", "label", "--score-col", "score",
              "--positive", gen.POSITIVE_LABEL]
    return {"calls": [
        _call(["classify", "--input", big, *labels, "--metrics", "all"],
              big_rows, oracle.confusion_expected(flags, scores)),
        _call(["curves", "--kind", "roc", "--input", big, *labels,
               "--emit-points", work / "roc_points.csv"],
              big_rows, {"AUC": (oracle.rank_sum_auc(flags, scores), False)}),
        _call(["curves", "--kind", "pr", "--input", big, *labels], big_rows),
        _call(["curves", "--kind", "pr", "--input", small, *labels,
               "--lift-fraction", "0.1", "--cal"], small_rows),
    ], "provenance": [big_record, small_record]}


def model_select(seed, work: Path, scale: float) -> dict:
    rng = _rng("model_select", seed, scale)
    rows, holdout_rows = round(25_000 * scale), round(6_250 * scale)
    models, provenance = [], []
    for i in range(4):
        path = work / f"model{i + 1}.csv"
        series, record = gen.regression_file(rng, path, rows,
                                             noise=3.0 + 2.0 * i, bias=0.4 * i)
        provenance.append(record)
        models.append((f"m{i + 1}", path, series))
    holdout = work / "model1_validation.csv"
    _, record = gen.regression_file(rng, holdout, holdout_rows, noise=3.0)
    provenance.append(record)
    calls = [
        _call(["validate", "--check", "ri",
               *(arg for name, path, _ in models for arg in ("--model", f"{name}={path}"))],
              rows * len(models)),
        _call(["validate", "--check", "objective", "--train", models[0][1],
               "--validation", holdout], rows + holdout_rows),
    ]
    for _, path, (actual, predicted) in models:
        calls += [
            _call(["validate", "--check", "tropsha", "--input", path], rows),
            _call(["validate", "--check", "rm", "--input", path], rows),
            _call(_regress_argv(path, "--metrics", "RMSE,MAE,MAPE"), rows,
                  oracle.regression_expected(actual, predicted)),
        ]
    return {"calls": calls, "provenance": provenance}


def gp_population(seed, work: Path, scale: float) -> dict:
    rng = _rng("gp_population", seed, scale)
    path = work / "candidates.txt"
    minority, majority = round(300 * scale), round(2_700 * scale)
    # 200 candidates make passes of a few seconds, so a run's window holds
    # several whole passes whatever the machine's speed
    population, record = gen.candidates_file(rng, path, 200, minority, majority)
    return {"candidates": str(path), "outputs": minority + majority,
            "wmw": [oracle.wmw_value(mino, majo) for mino, majo in population],
            "provenance": [record]}


PLANS = {"regress_100k": regress_100k, "score_50k": score_50k,
         "model_select": model_select, "gp_population": gp_population}


def main(argv) -> int:
    name, seed, scale, work = argv
    plan = PLANS[name](int(seed), Path(work), float(scale))
    plan["provenance"] = [{"seed": int(seed), **record} for record in plan["provenance"]]
    print(json.dumps(plan))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
