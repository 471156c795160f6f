"""The exact QP's active-set iterations over the benchmark's mean pools.

The benchmark counts the iterations as ``qp.nullspace`` calls, one per
iteration.  Their totals over every ``mean-small`` and ``mean-large`` pool
sample are pinned here: a change to the QP's drop rule or starting working
set moves them.  ``perfbench/workloads.py`` is loaded from its file and not
changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import tropmean.qp as qp_mod
from tropmean import SampleSet, exact_frechet

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
