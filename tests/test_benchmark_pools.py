"""Every benchmark pool instance passes the benchmark's exactness gate.

``perfbench/run.py`` times ``tropmean.cli.main`` on fixed pools of inputs
and checks each output with ``perfbench/gate.py`` against the digests in
``perfbench/reference.json``; a failed check there is a failed op, seen only
when the benchmark runs.  This runs the same gate on every pool instance of
every workload, in-process: 288 ``mean-small``, 10 ``mean-large`` and 9
``polytrope-matrix`` inputs.  The benchmark's modules are loaded from their
files and not changed.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tropmean import SampleSet
from tropmean.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(patch, name):
    """Load perfbench/<name>.py as the module ``name``, registered for as
    long as ``patch`` lasts: its dataclasses look their module up, and
    gate.py imports workloads by that bare name."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    patch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as patch:
        yield _load(patch, "workloads"), _load(patch, "gate")


@pytest.mark.parametrize(
    "name, count", [("mean-small", 288), ("mean-large", 10), ("polytrope-matrix", 9)]
)
def test_every_pool_instance_passes_the_gate(bench, tmp_path, name, count):
    workloads, gate = bench
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference()[name]
    failed = []
    ran = 0
    for cell in workload.cells:
        digests = reference[workloads.cell_key(cell)]["digests"]
        for rep, expected in enumerate(digests, start=1):
            path = workloads.write_input(tmp_path, workload, cell, rep)
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = main(workloads.argv_for(workload, path))
            if workload.command == "mean":
                sample = SampleSet.from_rows(workloads.mean_rows(*cell, rep))
                problem = gate.check_mean(sample, rc, out.getvalue(), expected)
            else:
                problem = gate.check_polytrope(rc, out.getvalue(), expected)
            if problem is not None:
                failed.append(f"cell {cell} rep {rep}: {problem}")
            ran += 1
    assert failed == []
    assert ran == count
