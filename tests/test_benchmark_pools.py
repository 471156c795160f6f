"""Every benchmark pool instance passes the benchmark's exactness gate.

``perfbench/run.py`` times ``tropmean.cli.main`` on fixed pools of inputs
and checks each output with ``perfbench/gate.py`` against the digests in
``perfbench/reference.json``; a failed check there is a failed op, seen only
when the benchmark runs.  This runs the same gate on every pool instance of
every workload, in-process: 288 ``mean-small``, 10 ``mean-large`` and 9
``polytrope-matrix`` inputs, and pins the whole ``mean`` stdout of each mean
pool cell, which the gate does not, and the number of Fractions a ``mean``
op builds.  The benchmark's modules are loaded from their files and not
changed.
"""

import fractions
import hashlib
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


@pytest.fixture(scope="module")
def outputs(bench, tmp_path_factory):
    """Exit code and stdout of the command on every pool instance, by
    workload, then cell key, then rep."""
    workloads, _ = bench
    tmp_path = tmp_path_factory.mktemp("pools")
    runs = {}
    for name, workload in workloads.WORKLOADS.items():
        cells = runs[name] = {}
        for cell in workload.cells:
            done = cells[workloads.cell_key(cell)] = []
            for rep in range(1, workload.pool + 1):
                path = workloads.write_input(tmp_path, workload, cell, rep)
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    rc = main(workloads.argv_for(workload, path))
                done.append((rc, out.getvalue()))
    return runs


@pytest.mark.parametrize(
    "name, count", [("mean-small", 288), ("mean-large", 10), ("polytrope-matrix", 9)]
)
def test_every_pool_instance_passes_the_gate(bench, outputs, name, count):
    workloads, gate = bench
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference()[name]
    failed = []
    ran = 0
    for cell in workload.cells:
        key = workloads.cell_key(cell)
        digests = reference[key]["digests"]
        assert len(outputs[name][key]) == len(digests)
        for rep, ((rc, out), expected) in enumerate(zip(outputs[name][key], digests), start=1):
            if workload.command == "mean":
                sample = SampleSet.from_rows(workloads.mean_rows(*cell, rep))
                problem = gate.check_mean(sample, rc, out, expected)
            else:
                problem = gate.check_polytrope(rc, out, expected)
            if problem is not None:
                failed.append(f"cell {cell} rep {rep}: {problem}")
            ran += 1
    assert failed == []
    assert ran == count


# sha256 (first 16 hex digits) of the whole ``mean`` stdout of each pool
# cell, its instances' documents joined in rep order.  Unlike the gate's
# route-invariant digests these cover the printed mean and the certificate,
# which are where the QP's path ends: a change to the path moves them.
MEAN_STDOUT = {
    "mean-small": {
        "3,3": "2f8a06019d2a5e83",
        "3,6": "d4d4d53c6207048e",
        "3,9": "5ec76820b4986017",
        "4,4": "0bfbc43451918884",
        "4,8": "b53971ffadd6cec0",
        "4,12": "1bbd69de747dcc00",
        "5,5": "016c3121149521c7",
        "5,10": "096e6bfc3c3270c0",
        "5,15": "a753cf58ec84df66",
        "6,6": "0b7789c296f36fcb",
        "6,12": "44c3d670a9d723f4",
        "6,18": "189840907ee22fa8",
    },
    "mean-large": {
        "8,8": "d47fcd11b2183f85",
        "8,16": "9e0eb6b7349081fe",
        "10,10": "469bef67bdc891e5",
        "10,20": "88644cc5e2e83c15",
        "12,12": "b7cf9e7095bd0560",
    },
}


@pytest.mark.parametrize("name", ["mean-small", "mean-large"])
def test_every_mean_pool_stdout_is_pinned(outputs, name):
    digests = {
        key: hashlib.sha256("".join(out for _, out in runs).encode("utf-8")).hexdigest()[:16]
        for key, runs in outputs[name].items()
    }
    assert digests == MEAN_STDOUT[name]


@pytest.mark.parametrize("name", ["mean-small", "mean-large"])
def test_a_mean_op_builds_at_most_one_fraction_c_star(bench, tmp_path, monkeypatch, name):
    """A ``mean`` op holds its sample, points, result, the epigraph
    program's value and the certificate's weights as integers over their
    denominators, from the parser to the writer: on rep 1 of the dearest
    cell of each mean workload it constructs one Fraction at most,
    ``c_star``."""
    workloads, _ = bench
    workload = workloads.WORKLOADS[name]
    path = workloads.write_input(tmp_path, workload, workload.cells[-1], 1)
    built = []
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted)
    with redirect_stdout(io.StringIO()):
        assert main(workloads.argv_for(workload, path)) == 0
    monkeypatch.undo()
    assert len(built) <= 1, built
