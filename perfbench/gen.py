"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and a directory, writes its files
there with floats in ``repr`` form (so they parse back to the same doubles),
and returns what the oracle needs plus a provenance record. Nothing here
imports modeval: the program only ever sees the written files.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

BAD_CELL = "n/a"
POSITIVE_LABEL = "pos"
NEGATIVE_LABEL = "neg"


def _write(path: Path, lines) -> dict:
    data = "".join(lines).encode("ascii")
    path.write_bytes(data)
    return {"file": path.name, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def regression_file(rng, path: Path, rows: int, *, zero_share: float = 0.0,
                    bad_share: float = 0.0, noise: float = 5.0, bias: float = 0.0):
    """Columns t,actual,predicted,weight; returns the rows the CLI keeps.

    ``zero_share`` of actuals are exactly 0.0. ``bad_share`` of all cells are
    non-numeric; only those in the actual or predicted column drop a row
    under ``--drop-bad-rows``.
    """
    cells_per_row = 4
    r = rng.random
    actual = [0.0 if r() < zero_share else round(5.0 + 95.0 * r(), 3) for _ in range(rows)]
    # triangular noise on (-noise, noise): cheaper to draw than a Gaussian
    predicted = [a + bias + noise * (r() - r()) for a in actual]
    weight = [rng.randrange(1000) for _ in range(rows)]
    bad_rows = rng.sample(range(rows), round(bad_share * rows * cells_per_row))
    lines = ["t,actual,predicted,weight\n"]
    lines += [f"{t},{a!r},{p!r},{w}\n"
              for t, a, p, w in zip(range(rows), actual, predicted, weight)]
    dropped = set()
    for t in bad_rows:
        cells = lines[t + 1].split(",")
        column = rng.randrange(cells_per_row)
        cells[column] = BAD_CELL + ("\n" if column == cells_per_row - 1 else "")
        lines[t + 1] = ",".join(cells)
        if column in (1, 2):
            dropped.add(t)
    if dropped:
        actual = [a for t, a in enumerate(actual) if t not in dropped]
        predicted = [p for t, p in enumerate(predicted) if t not in dropped]
    zeros = actual.count(0.0)
    bad_cells = len(bad_rows)
    record = _write(path, lines)
    record.update(rows=rows, kept_rows=len(actual),
                  zero_actual_share=zeros / len(actual),
                  bad_cell_share=bad_cells / (rows * cells_per_row))
    return (actual, predicted), record


def scored_file(rng, path: Path, rows: int, *, positive_share: float,
                rounded_share: float):
    """Columns id,label,score with scores in [0.01, 0.99].

    ``rounded_share`` of scores are rounded to two decimals so that they tie.
    """
    lines = ["id,label,score\n"]
    flags, scores = [], []
    for i in range(rows):
        positive = rng.random() < positive_share
        s = rng.gauss(0.62 if positive else 0.38, 0.18)
        s = min(0.99, max(0.01, s))
        if rng.random() < rounded_share:
            s = round(s, 2)
        flags.append(positive)
        scores.append(s)
        label = POSITIVE_LABEL if positive else NEGATIVE_LABEL
        lines.append(f"{i},{label},{s!r}\n")
    record = _write(path, lines)
    counts = Counter(scores)
    record.update(rows=rows, positive_share=sum(flags) / rows,
                  tie_share=sum(c for c in counts.values() if c > 1) / rows)
    return (flags, scores), record


def candidates_file(rng, path: Path, candidates: int, minority: int, majority: int):
    """One candidate per line: minority outputs, ``|``, majority outputs.

    Each candidate has its own class separation, so the share of minority
    outputs that WMW skips (those below zero) varies across the population.
    Separation and spread are drawn stratified, one candidate per stratum, so
    that every seed yields nearly the same mix of easy and hard candidates;
    the population is then shuffled, so that each kind is spread over a pass
    and a latency percentile does not sample one stretch of it.
    Outputs are kept to four decimals, so some minority and majority outputs
    tie and WMW's strict comparison matters.
    """
    population = []
    for k in range(candidates):
        shift = -0.5 + 2.5 * (k + rng.random()) / candidates
        # 7 is coprime with the population sizes used, so spread strata are a
        # permutation of the shift strata
        spread = 0.5 + 1.5 * ((7 * k) % candidates + rng.random()) / candidates
        mino = [round(rng.gauss(shift, spread), 4) for _ in range(minority)]
        majo = [round(rng.gauss(-shift, spread), 4) for _ in range(majority)]
        population.append((mino, majo))
    rng.shuffle(population)
    lines = (",".join(map(repr, mino)) + "|" + ",".join(map(repr, majo)) + "\n"
             for mino, majo in population)
    record = _write(path, lines)
    record.update(candidates=candidates, minority=minority, majority=majority)
    return population, record


def read_candidates(path) -> list:
    population = []
    with open(path, encoding="ascii") as lines:
        for line in lines:
            mino, majo = line.split("|")
            population.append(([float(v) for v in mino.split(",")],
                               [float(v) for v in majo.split(",")]))
    return population
