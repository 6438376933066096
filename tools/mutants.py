"""A mutation check over the lines of ``src/modeval`` that a diff touches.

    python tools/mutants.py --diff REV
    python tools/mutants.py --module NAME --sample K [--seed S]

``--diff REV`` mutates only the lines that ``git diff -U0 REV -- src/modeval``
adds or changes (the working tree against REV); ``--module`` draws ``K``
mutants at random from one module, ``src/modeval/NAME.py``. Each mutant
changes one thing in the source text and leaves every other byte alone:

  * an arithmetic swap: ``+``/``-``, ``*``/``/``, ``//`` to ``/``, ``**`` to
    ``*``, ``%`` to ``//``, in an expression or an augmented assignment;
  * a comparison boundary flip: ``<``/``<=``, ``>``/``>=``;
  * an equality swap: ``==``/``!=``;
  * an ``and``/``or`` swap;
  * a numeric constant + 1.

The repository is copied once into a temporary directory, and each mutant is
written into that copy, never into the working tree. ``pytest -x -q`` then
runs the mutated module's test files there, one process at a time, with a
timeout of ``TIMEOUT`` seconds. One JSON line per mutant names its file, line
and operator and says whether the tests ``killed`` it, it ``survived`` them or
it ran into the ``timeout``; a summary line follows. Run it from any directory. The tool
itself uses only the standard library; it runs git and pytest.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "modeval"

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Pow: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And,
}
TOKENS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Pow: "**", ast.Mod: "%", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=", ast.And: "and", ast.Or: "or",
}

TIMEOUT = 120.0  # seconds per pytest run

# test files per module beyond tests/test_<module>.py; the golden reports run for every module
EXTRA_TESTS = {
    # every family squares through _stats.sum_sq
    "_stats": ["test_regression.py", "test_validation.py", "test_classification.py",
               "test_gp_fitness.py", "test_metamorphic.py"],
    "dataset": ["test_value_types.py"],
    "validation": ["test_cli.py"],  # the CLI takes its --check choices from CHECKS
    # the exact relations of their registries and scores
    "classification": ["test_metamorphic.py"],
    "curves": ["test_metamorphic.py"],
    "gp_fitness": ["test_metamorphic.py"],
}

# A pytest plugin for the copy: Hypothesis neither shrinks a failure, which
# can take minutes and only the verdict is wanted, nor keeps examples from one
# mutant for the next, nor fails a slow example.
PLUGIN = """from hypothesis import Phase, settings
settings.register_profile("mutants", database=None, deadline=None,
                          phases=[Phase.explicit, Phase.generate])
settings.load_profile("mutants")
"""


class Mutant:
    """One mutation: ``edits`` are (start, end, text) byte spans of the module."""

    def __init__(self, path, line, operator, edits):
        self.path, self.line, self.operator, self.edits = path, line, operator, edits

    def apply(self, source: bytes) -> bytes:
        for start, end, text in sorted(self.edits, reverse=True):
            source = source[:start] + text.encode() + source[end:]
        return source


def _gap_token(source, starts, before, after, token):
    """The byte span of ``token`` between the end of node ``before`` and the
    start of node ``after``; only spaces, brackets, comments and line
    continuations can stand beside it there."""
    start = starts[before.end_lineno - 1] + before.end_col_offset
    end = starts[after.lineno - 1] + after.col_offset
    gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), source[start:end])
    match = re.search(rb"(?<![\w*/<>=!])" + re.escape(token.encode()) + rb"(?![\w*/<>=])", gap)
    return start + match.start(), start + match.end()


def mutants(path: Path, source: bytes):
    """Every mutant of one module's source, in source order."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []

    def swap(op, pairs, suffix=""):
        old, new = TOKENS[type(op)] + suffix, TOKENS[SWAPS[type(op)]] + suffix
        edits = [(*_gap_token(source, starts, a, b, old), new) for a, b in pairs]
        line = next(i for i, s in enumerate(starts) if s > edits[0][0])
        found.append(Mutant(path, line, f"{old} -> {new}", edits))

    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            swap(node.op, [(node.left, node.right)])
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            swap(node.op, [(node.target, node.value)], "=")
        elif isinstance(node, ast.BoolOp):
            swap(node.op, list(zip(node.values, node.values[1:])))
        elif isinstance(node, ast.Compare):
            for op, before, after in zip(node.ops, [node.left, *node.comparators],
                                         node.comparators):
                if type(op) in SWAPS:
                    swap(op, [(before, after)])
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            start = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            found.append(Mutant(path, node.lineno, f"{node.value!r} -> {node.value + 1!r}",
                                [(start, end, repr(node.value + 1))]))
    return sorted(found, key=lambda m: (m.line, m.edits[0][0]))


def changed_lines(rev: str) -> dict:
    """Lines added or changed since ``rev``, by path, under the package."""
    diff = subprocess.run(["git", "diff", "-U0", rev, "--", str(PACKAGE)], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout
    lines, path = {}, None
    for row in diff.splitlines():
        if row.startswith("+++ "):
            path = None if row == "+++ /dev/null" else Path(row[len("+++ b/"):])
        elif row.startswith("@@") and path is not None and path.suffix == ".py":
            first, count = re.match(r"@@ -\S+ \+(\d+)(?:,(\d+))? @@", row).groups()
            first, count = int(first), 1 if count is None else int(count)
            lines.setdefault(path, set()).update(range(first, first + count))
    return lines


def test_files(path: Path) -> list[str]:
    name = path.stem
    own = [f"test_{name}.py"] if (ROOT / "tests" / f"test_{name}.py").exists() else []
    return [str(Path("tests") / f) for f in (*own, *EXTRA_TESTS.get(name, ()), "test_golden.py")]


def run(path: Path, source: bytes, copy: Path) -> str:
    """The verdict of ``path``'s tests in ``copy`` with ``source`` as that module."""
    target = copy / path
    original = target.read_bytes()
    target.write_bytes(source)
    # no bytecode is written, so a mutant of the same size and mtime never runs stale code
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(copy / "src"), str(copy)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        result = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                 "no:cacheprovider", "-p", "_mutants_plugin",
                                 "--hypothesis-seed=0", *test_files(path)], cwd=copy, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                timeout=TIMEOUT)
        return "survived" if result.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        target.write_bytes(original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    scope = parser.add_mutually_exclusive_group(required=True)
    scope.add_argument("--diff", metavar="REV", help="mutate the lines changed since REV")
    scope.add_argument("--module", help="sample mutants from src/modeval/MODULE.py")
    parser.add_argument("--sample", type=int, default=20, help="mutants drawn by --module")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.diff:
        chosen = [m for path, lines in sorted(changed_lines(args.diff).items())
                  for m in mutants(path, (ROOT / path).read_bytes()) if m.line in lines]
    else:
        path = PACKAGE / f"{args.module}.py"
        every = mutants(path, (ROOT / path).read_bytes())
        chosen = sorted(random.Random(args.seed).sample(every, min(args.sample, len(every))),
                        key=lambda m: (str(m.path), m.line))
    tally = Counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"))
        (copy / "_mutants_plugin.py").write_text(PLUGIN)
        for path in sorted({m.path for m in chosen}):  # the unmutated tests must pass
            if run(path, (copy / path).read_bytes(), copy) != "survived":
                print(json.dumps({"file": str(path), "baseline": "failed"}))
                return 1
        for mutant in chosen:
            source = mutant.apply((copy / mutant.path).read_bytes())
            result = run(mutant.path, source, copy)
            tally[result] += 1
            print(json.dumps({"file": str(mutant.path), "line": mutant.line,
                              "operator": mutant.operator, "result": result}), flush=True)
    print(json.dumps({"mutants": len(chosen), **{k: tally[k] for k in
                                                 ("killed", "survived", "timeout")}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
