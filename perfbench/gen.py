"""Seeded synthetic inputs for the benchmark: a topic profile CSV and a TES matrix CSV.

``generate(n, years, density, weight_levels, seed)`` is a pure function of
its arguments: the same arguments always give byte-identical CSV files.
The topics are spread evenly over ``years`` consecutive years in shuffled
order, weights come from ``weight_levels`` evenly spaced values in [0, 1],
and each TES column gets exactly ``round(density * older topics)`` nonzero
values towards topics of earlier years, quantized to tenths (0.1 ... 1.0) so
that ties occur.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FIRST_YEAR = 2000


@dataclass(frozen=True)
class Instance:
    """Generated inputs plus the ground truth the correctness checks compare against.

    ``order`` lists topic indices in profile (year, index) order, which is the
    matrix row/column order; ``tes[i][j]`` is the strength of the topic at
    position ``i`` towards the topic at position ``j`` (0 where no value).
    """

    years: tuple[int, ...]
    weights: tuple[str, ...]
    order: tuple[int, ...]
    tes: tuple[tuple[float, ...], ...]
    profile_csv: bytes
    tes_csv: bytes


def _decimal(value: float) -> str:
    return "0" if value == 0.0 else ("1" if value == 1.0 else repr(value))


def generate(n: int, years: int, density: float, weight_levels: int, seed: int) -> Instance:
    rng = random.Random(f"topictree-bench:{n}:{years}:{density}:{weight_levels}:{seed}")
    topic_years = [FIRST_YEAR + v * years // n for v in range(n)]
    rng.shuffle(topic_years)
    topic_years = tuple(topic_years)
    weights = tuple(
        _decimal(rng.randrange(weight_levels) / (weight_levels - 1)) for _ in range(n)
    )
    order = tuple(sorted(range(n), key=lambda v: (topic_years[v], v)))

    lines = ["id,index,label,weight,year,words"]
    for v in order:
        lines.append(f"t{v},{v},topic-{v},{weights[v]},{topic_years[v]},\"['w{v}', 'k{v % 7}']\"")
    profile_csv = ("\n".join(lines) + "\n").encode("utf-8")

    tes = [[0.0] * n for _ in range(n)]
    for j, v in enumerate(order):
        tes[j][j] = 1.0
        older = [i for i in range(j) if topic_years[order[i]] < topic_years[v]]
        for i in rng.sample(older, round(density * len(older))):
            tes[i][j] = rng.randint(1, 10) / 10
    rows = [",".join([""] * i + [_decimal(x) for x in row[i:]]) for i, row in enumerate(tes)]
    tes_csv = ("\n".join(rows) + "\n").encode("utf-8")
    return Instance(topic_years, weights, order, tuple(map(tuple, tes)), profile_csv, tes_csv)
