"""Closed-loop client shared by the workloads, and the gp_population worker.

As a script, ``python3 perfbench/gp_client.py CANDIDATES SECONDS`` (with
``src`` on ``PYTHONPATH``) reads a candidate file written by ``gen.py``,
evaluates the population with ``modeval.gp_fitness`` in whole passes for
about SECONDS seconds, and prints one JSON object: per-evaluation latencies,
the loop's wall time, each candidate's rendered scores, and how many repeat
evaluations disagreed with the first one.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def closed_loop(run_pass, seconds: float):
    """Run whole passes back to back, each starting when the previous returns.

    Another pass starts only while it is projected to end within ``seconds``;
    at least one pass always runs. Returns the pass results and the wall time.
    """
    passes = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        passes.append(run_pass())
        now = perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return passes, now - start


def evaluate(gp, minority, majority) -> tuple:
    """One candidate's fitness evaluation, looked up through the module so
    that trace wrappers installed on ``modeval.gp_fitness`` see it."""
    outputs = gp.ClassOutputs(minority, majority)
    return (gp.wmw(outputs), gp.ffa(outputs), gp.ffc(outputs), gp.ffd(outputs),
            gp.d_score(outputs))


def render(values) -> list:
    return [[v.id, v.value, v.status] for v in values]


def run_population(gp, population, seconds: float) -> dict:
    latencies = []

    def one_pass():
        rendered = []
        for minority, majority in population:
            start = perf_counter()
            values = evaluate(gp, minority, majority)
            latencies.append(perf_counter() - start)
            rendered.append(render(values))
        return rendered

    passes, wall = closed_loop(one_pass, seconds)
    first = passes[0]
    mismatches = [sum(p[i] != first[i] for p in passes[1:]) for i in range(len(first))]
    return {"latencies": latencies, "wall_s": wall, "passes": len(passes),
            "results": first, "mismatches": mismatches}


def main(argv) -> int:
    from gen import read_candidates
    import modeval.gp_fitness as gp

    candidates, seconds = argv
    population = read_candidates(candidates)
    print(json.dumps(run_population(gp, population, float(seconds))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
