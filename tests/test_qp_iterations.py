"""The exact QP's active-set iterations over the benchmark's mean pools,
and the linear systems the package's solves hand to ``integer_solve``.

The benchmark counts the iterations as ``qp.nullspace`` calls, one per
iteration.  Their totals over every ``mean-small`` and ``mean-large`` pool
sample are pinned here: a change to the QP's drop rule or starting working
set moves them.  ``perfbench/workloads.py`` is loaded from its file and not
changed.
"""

import importlib.util
import sys
from pathlib import Path
from random import Random

import pytest

import tropmean.oracle as oracle_mod
import tropmean.qp as qp_mod
from tropmean import SampleSet, exact_frechet
from tropmean.oracle import brute_force_frechet
from support import int_sample

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # Registered under its bare name for as long as the module's tests run:
    # its dataclasses look their module up.
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "workloads", module)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("name, iterations", [("mean-small", 1943), ("mean-large", 178)])
def test_pool_iterations_are_pinned(workloads, monkeypatch, name, iterations):
    workload = workloads.WORKLOADS[name]
    calls = []
    basis = qp_mod.nullspace

    def counted(*args):
        calls.append(1)
        return basis(*args)

    monkeypatch.setattr(qp_mod, "nullspace", counted)
    for cell in workload.cells:
        for rep in range(1, workload.pool + 1):
            assert exact_frechet(SampleSet.from_rows(workloads.mean_rows(*cell, rep))).exact
    assert len(calls) == iterations


def test_every_solved_system_is_square_and_symmetric(workloads, monkeypatch):
    """``integer_solve`` takes symmetric positive semidefinite systems only,
    so a caller that starts to send a general one fails here: the QP step
    on rep 1 of every ``mean-small`` cell, and the oracle's normal equations
    and deferred QPs on criterion 6 samples."""
    solve = qp_mod.integer_solve
    seen = {"qp": 0, "oracle": 0}

    def checked(caller):
        def integer_solve(rows):
            n = len(rows)
            assert all(len(row) == n + 1 for row in rows)
            assert all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i))
            seen[caller] += 1
            return solve(rows)

        return integer_solve

    monkeypatch.setattr(qp_mod, "integer_solve", checked("qp"))
    monkeypatch.setattr(oracle_mod, "integer_solve", checked("oracle"))
    for cell in workloads.WORKLOADS["mean-small"].cells:
        assert exact_frechet(SampleSet.from_rows(workloads.mean_rows(*cell, 1))).exact
    for n, m in ((3, 3), (3, 4), (4, 3)):
        for idx in range(2):
            brute_force_frechet(int_sample(Random(f"accept6:{n}:{m}:{idx}"), n, m))
    assert seen["qp"] > 0 and seen["oracle"] > 0
