"""Check the seeded tie corpus; pytest does not collect it.

Tied samples, integer entries in a short range, make the exact QP take
long runs of zero-length steps at one point.  Each sample is drawn by a
Random seeded with "ties:n:m:lo:hi:rep" and checked by
``support.check_tie_sample``: the mean is exact, its certificate verifies
and ``min_sum`` is the objective at the mean.  A failing sample is printed
as a plain test case to paste into ``test_frechet.py``; each sample's QP
iterations, counted as ``qp.nullspace`` calls, and its run time go to
stderr.  The exit code is 1 when any sample failed.

    PYTHONPATH=src python tests/ties.py
"""

import sys
import time
import traceback
from random import Random
from unittest import mock

import tropmean.qp as qp_mod
from support import check_tie_sample

# (n, m, lo, hi, samples): 34 samples, about 3 s in all.
CORPUS = (
    (10, 30, -1, 1, 3),
    (10, 30, 0, 1, 2),
    (10, 30, -2, 2, 2),
    (15, 45, -1, 1, 3),
    (20, 60, -1, 1, 3),
    (20, 60, 0, 1, 2),
    (20, 60, -2, 2, 2),
    (25, 75, -1, 1, 3),
    (30, 90, -1, 1, 3),
    (30, 90, 0, 1, 2),
    (30, 90, -2, 2, 3),
    (40, 120, -1, 1, 2),
    (40, 120, 0, 1, 2),
    (10, 300, -1, 1, 1),
    (60, 60, -1, 1, 1),
)

CASE = '''
def test_tie_sample_{name}():
    check_tie_sample({rows!r})
'''


def tie_sample(n: int, m: int, lo: int, hi: int, rep: int) -> list[list[int]]:
    rng = Random(f"ties:{n}:{m}:{lo}:{hi}:{rep}")
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def run() -> int:
    failed = 0
    with mock.patch.object(qp_mod, "nullspace", wraps=qp_mod.nullspace) as basis:
        for n, m, lo, hi, count in CORPUS:
            for rep in range(1, count + 1):
                rows = tie_sample(n, m, lo, hi, rep)
                basis.reset_mock()
                t0 = time.perf_counter()
                try:
                    check_tie_sample(rows)
                except Exception as exc:
                    failed += 1
                    where = traceback.extract_tb(exc.__traceback__)[-1].line
                    print(f"# {type(exc).__name__} at: {where}")
                    print(CASE.format(name=failed, rows=rows))
                elapsed = time.perf_counter() - t0
                print(
                    f"({n}, {m}) entries {lo}..{hi} rep {rep}: "
                    f"{basis.call_count} iterations in {elapsed:.2f} s",
                    file=sys.stderr,
                )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
