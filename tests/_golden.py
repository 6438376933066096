"""Golden CLI invocations: the ten determinism runs and the extra snapshot runs."""

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN_RUNS = [
    ("regress", "--input", str(FIXTURES / "f1.csv"), "--actual-col", "a",
     "--predicted-col", "p", "--metrics", "MAE,RMSE,R2"),
    ("regress", "--input", str(FIXTURES / "f1.csv"), "--actual-col", "a",
     "--predicted-col", "p", "--ordered"),
    ("regress", "--input", str(FIXTURES / "zero_actual.csv"),
     "--actual-col", "a", "--predicted-col", "p", "--metrics", "MAPE"),
    ("classify", "--input", str(FIXTURES / "c1.csv"), "--label-col", "label",
     "--score-col", "score", "--positive", "pos"),
    ("classify", "--input", str(FIXTURES / "c1.csv"), "--label-col", "label",
     "--score-col", "score", "--positive", "pos", "--metrics", "ACC,F1,MCC"),
    ("curves", "--kind", "roc", "--input", str(FIXTURES / "s1.csv"),
     "--label-col", "label", "--score-col", "score", "--positive", "pos"),
    ("curves", "--kind", "pr", "--input", str(FIXTURES / "s1.csv"),
     "--label-col", "label", "--score-col", "score", "--positive", "pos"),
    ("validate", "--check", "tropsha", "--input", str(FIXTURES / "perfect.csv")),
    ("validate", "--check", "adequacy", "--observations", "10",
     "--parameters", "10"),
    ("validate", "--check", "ri", "--model", f"a={FIXTURES / 'model_a.csv'}",
     "--model", f"b={FIXTURES / 'model_b.csv'}"),
]

# Stand-in for the --emit-points output path, which each test run puts in its
# own temporary directory.
POINTS = "<points>"

# Frozen-snapshot runs beyond GOLDEN_RUNS, for paths no golden run reaches.
EXTRA_RUNS = {
    "regress_skip_terms": (
        "regress", "--input", str(FIXTURES / "zero_actual.csv"), "--actual-col", "a",
        "--predicted-col", "p", "--skip-undefined-terms",
        "--metrics", "MAPE,MSPE,MRAE"),
    "regress_drop_bad_rows_table": (
        "regress", "--input", str(FIXTURES / "bad_cell.csv"), "--actual-col", "a",
        "--predicted-col", "p", "--drop-bad-rows", "--metrics", "MAE",
        "--format", "table"),
    "classify_aca_weight_table": (
        "classify", "--input", str(FIXTURES / "c1.csv"), "--label-col", "label",
        "--score-col", "score", "--positive", "pos", "--aca-weight", "0.7",
        "--format", "table"),
    "validate_rm": ("validate", "--check", "rm", "--input", str(FIXTURES / "model_a.csv")),
    "validate_objective": (
        "validate", "--check", "objective", "--train", str(FIXTURES / "model_a.csv"),
        "--validation", str(FIXTURES / "model_b.csv")),
    "curves_pr_lift": (
        "curves", "--kind", "pr", "--input", str(FIXTURES / "s1.csv"),
        "--label-col", "label", "--score-col", "score", "--positive", "pos",
        "--lift-fraction", "0.5"),
    "curves_roc_points": (
        "curves", "--kind", "roc", "--input", str(FIXTURES / "s1.csv"),
        "--label-col", "label", "--score-col", "score", "--positive", "pos",
        "--emit-points", POINTS),
    # heavy ties, a -0.0/0.0 group led by -0.0, and a tie group across the lift cut
    "curves_pr_ties_points": (
        "curves", "--kind", "pr", "--input", str(FIXTURES / "ties.csv"),
        "--label-col", "label", "--score-col", "score", "--positive", "pos",
        "--lift-fraction", "0.08", "--cal", "--emit-points", POINTS),
    "curves_roc_lift_cal_ties": (
        "curves", "--kind", "roc", "--input", str(FIXTURES / "ties.csv"),
        "--label-col", "label", "--score-col", "score", "--positive", "pos",
        "--lift-fraction", "0.5", "--cal"),
    # R2 = 0: M_INDEX and N_INDEX are undefined and the pass flags print False
    "validate_tropsha_uncorrelated_table": (
        "validate", "--check", "tropsha", "--input", str(FIXTURES / "uncorrelated.csv"),
        "--format", "table"),
    "validate_adequacy_above_table": (
        "validate", "--check", "adequacy", "--observations", "100", "--parameters", "12",
        "--format", "table"),
    # two identical models: every metric column ties and the report warns
    "validate_ri_tied": (
        "validate", "--check", "ri", "--model", f"a={FIXTURES / 'model_a.csv'}",
        "--model", f"b={FIXTURES / 'model_a.csv'}", "--format", "table"),
}

# Every snapshot under fixtures/golden, by file stem.
SNAPSHOT_RUNS = {**{f"golden{i}": argv for i, argv in enumerate(GOLDEN_RUNS)},
                 **EXTRA_RUNS}
