import csv
import hashlib
import io
import os
import random
from fractions import Fraction

import pytest

from graphonham import FiniteGraph, StepGraphon


def random_graph(rng: random.Random, n: int, p: float) -> FiniteGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return FiniteGraph.build(n, edges)


def random_step_graphon(rng: random.Random, k: int, zero_prob: float = 0.5,
                        mass_units: int = 16) -> StepGraphon:
    """Random step graphon with masses quantized to 1/mass_units."""
    cuts = sorted(rng.sample(range(1, mass_units), k - 1)) if k > 1 else []
    bounds = [0] + cuts + [mass_units]
    masses = [Fraction(bounds[i + 1] - bounds[i], mass_units) for i in range(k)]
    dens = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if rng.random() < zero_prob:
                d = Fraction(0)
            else:
                d = Fraction(rng.randrange(1, 9), 8)
            dens[i][j] = dens[j][i] = d
    return StepGraphon(tuple(masses), tuple(tuple(r) for r in dens))


_RUNTIME_COLUMNS = ("runtime_sample", "runtime_properties")


def campaign_digest(out_dir: str) -> str:
    """SHA-256 of a campaign's `trials.csv`, runtime columns dropped, and
    its `report.json`: equal digests mean the same verdicts and bytes."""
    with open(os.path.join(out_dir, "trials.csv"), encoding="utf-8", newline="") as fh:
        schema, body = fh.read().split("\n", 1)
    rows = list(csv.reader(io.StringIO(body)))
    keep = [i for i, c in enumerate(rows[0]) if c not in _RUNTIME_COLUMNS]
    assert len(keep) == len(rows[0]) - len(_RUNTIME_COLUMNS)
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([row[i] for i in keep])
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        report = fh.read()
    h = hashlib.sha256()
    h.update(schema.encode() + b"\n" + buf.getvalue().encode() + b"\0" + report)
    return h.hexdigest()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
