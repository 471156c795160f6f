"""Workloads of the benchmark: instance pools, seeded plans and input files.

Every workload draws its instances from a fixed pool per grid cell, so that
each instance has a reference digest in ``reference.json``.  The run seed
picks which pool instances run and in what order: one instance from each
cost stratum of the pool when a run needs fewer instances than the pool
holds, the whole pool otherwise.  Importing this module puts the checkout's
``src`` first on ``sys.path``, so the benchmark always measures the code
next to it and never an installed copy.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Generator seed of every pool.  Pool instance ``rep`` of a mean cell (n, m)
# is exactly the sample ``tropmean bench --seed 0`` uses for that cell and rep.
POOL_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``cells`` are the grid cells of a round, cheapest first: ``(n, m)``
    for ``mean`` and ``(n,)`` for ``polytrope``.  ``pool`` is the number of
    instances per cell that have a reference digest.  A run of ``--seconds
    s`` does ``round(s / budget_s)`` rounds, at least one, so two commits
    always time the same inputs for the same seed.
    """

    name: str
    command: str
    cells: tuple[tuple[int, ...], ...]
    pool: int
    budget_s: float


# Per-instance cost varies up to 16-fold inside one cell, so fresh draws per
# seed would make runs disagree by 10-35 %.  mean-small stratifies its pool
# by cost; the pools of the two slow workloads hold exactly one run, so every
# seed times the same instances in its own order.  See README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mean-small",
            "mean",
            tuple((n, k * n) for n in (3, 4, 5, 6) for k in (1, 2, 3)),
            pool=24,
            budget_s=2.5,
        ),
        Workload(
            "mean-large",
            "mean",
            ((8, 8), (8, 16), (10, 10), (10, 20), (12, 12)),
            pool=2,
            budget_s=15.0,
        ),
        Workload(
            "polytrope-matrix",
            "polytrope",
            ((5,), (6,), (7,)),
            pool=3,
            budget_s=4.0,
        ),
    )
}


def cell_key(cell: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in cell)


def mean_rows(n: int, m: int, rep: int) -> list[list[Fraction]]:
    """The ``bench`` generator: m points, integers in [-10n, 10n] over 5."""
    rng = Random(f"{POOL_SEED}:{n}:{m}:{rep}")
    return [[Fraction(rng.randint(-10 * n, 10 * n), 5) for _ in range(n)] for _ in range(m)]


def matrix_rows(n: int, rep: int) -> list[list[Fraction]]:
    """Zero diagonal, finite off-diagonals in [-10n, 0] over 1, 2 or 5.

    Nonpositive entries rule out positive cycles and finite ones rule out
    unboundedness, so every matrix is a bounded, full-dimensional polytrope.
    """
    rng = Random(f"matrix:{POOL_SEED}:{n}:{rep}")
    return [
        [
            Fraction(0) if i == j else Fraction(rng.randint(-10 * n, 0), rng.choice((1, 2, 5)))
            for j in range(n)
        ]
        for i in range(n)
    ]


def input_document(workload: Workload, cell: tuple[int, ...], rep: int) -> dict:
    """The JSON document the command reads for one pool instance."""
    text = lambda rows: [[str(v) for v in row] for row in rows]
    if workload.command == "mean":
        return {"points": text(mean_rows(*cell, rep))}
    (n,) = cell
    return {"n": n, "entries": text(matrix_rows(n, rep))}


def write_input(directory: Path, workload: Workload, cell: tuple[int, ...], rep: int) -> Path:
    path = directory / f"{workload.command}-{cell_key(cell)}-{rep}.json"
    path.write_text(json.dumps(input_document(workload, cell, rep)), encoding="utf-8")
    return path


def argv_for(workload: Workload, path: Path) -> list[str]:
    if workload.command == "mean":
        return ["mean", str(path)]
    return ["polytrope", "--matrix", str(path)]


def rounds_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.budget_s))


def plan(workload: Workload, seed: int, rounds: int, reference: dict) -> list[tuple[tuple[int, ...], int]]:
    """The ops of a run as (cell, rep): ``rounds`` rounds over all cells,
    each round in seeded order.

    ``reference`` is the workload's entry in ``reference.json``; its
    ``by_cost`` lists each cell's pool from cheapest to dearest at the
    commit that defined the benchmark.  With fewer rounds than pool
    instances the list is cut into ``rounds`` strata of neighbours and the
    seed picks one instance from each, so every run spans the cell's whole
    cost range; otherwise the run cycles through the pool.
    """
    rng = Random(f"{workload.name}:{seed}")
    picks = {}
    for cell in workload.cells:
        order = reference[cell_key(cell)]["by_cost"]
        size = len(order)
        if rounds < size:
            strata = [order[i * size // rounds : (i + 1) * size // rounds] for i in range(rounds)]
            reps = [rng.choice(stratum) for stratum in strata]
        else:
            reps = [order[i % size] for i in range(rounds)]
        rng.shuffle(reps)
        picks[cell] = reps
    steps = []
    for r in range(rounds):
        cells = list(workload.cells)
        rng.shuffle(cells)
        steps.extend((cell, picks[cell][r]) for cell in cells)
    return steps


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))
