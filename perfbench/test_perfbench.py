"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import gate
import run
import workloads
from tracer import Tracer
from tropmean.cli import main as tropmean_main
from workloads import ROOT, WORKLOADS

MEAN_SMALL = WORKLOADS["mean-small"]


def mean_op(tmp_path: Path, cell: tuple[int, int], rep: int) -> run.Op:
    reference = workloads.load_reference()[MEAN_SMALL.name]
    return run.make_op(MEAN_SMALL, cell, rep, tmp_path, reference)


def failures(monkeypatch: pytest.MonkeyPatch, op: run.Op, stdout: str) -> int:
    """Failures the timed loop counts when the program prints ``stdout``;
    each failure is reported on stderr."""

    def fake_main(argv: list[str]) -> int:
        print(stdout, end="")
        return 0

    monkeypatch.setattr(run, "tropmean_main", fake_main)
    failed, _ = run.plain_run([op])
    return failed


@pytest.fixture
def small_output(tmp_path: Path) -> tuple[run.Op, dict]:
    op = mean_op(tmp_path, (3, 9), 1)
    rc, stdout, _ = run.execute(lambda: tropmean_main(op.argv))
    assert rc == 0
    return op, json.loads(stdout)


def test_gate_passes_the_unaltered_output(monkeypatch, small_output):
    op, doc = small_output
    assert failures(monkeypatch, op, json.dumps(doc)) == 0


def test_gate_counts_an_altered_min_sum(monkeypatch, capsys, small_output):
    op, doc = small_output
    doc["min_sum"] = str(Fraction(doc["min_sum"]) + Fraction(1, 7))
    assert failures(monkeypatch, op, json.dumps(doc)) == 1
    assert "c_star, min_sum and objective(mean) disagree" in capsys.readouterr().err


def test_gate_counts_a_perturbed_certificate_weight(monkeypatch, capsys, small_output):
    op, doc = small_output
    group = next(g for g in doc["certificate"]["weights"] if len(g["pieces"]) >= 2)
    first, second = group["pieces"][:2]
    # Moving weight between two pieces keeps the weights convex, so only the
    # stationarity check in verify_certificate can catch it.
    shift = min(Fraction(first["w"]), Fraction(1, 3))
    first["w"] = str(Fraction(first["w"]) - shift)
    second["w"] = str(Fraction(second["w"]) + shift)
    assert failures(monkeypatch, op, json.dumps(doc)) == 1
    assert "certificate fails verification" in capsys.readouterr().err


def test_gate_counts_a_changed_polytrope_output():
    good = "{}\n"
    assert gate.check_polytrope(0, good, gate.digest(good)) is None
    assert gate.check_polytrope(0, "{ }\n", gate.digest(good)) is not None
    assert gate.check_polytrope(2, good, gate.digest(good)) is not None


# Routes that certified fixed pool instances of mean-small.  A change to the
# routing shows here as a count change, not as noise in the timed runs.
PINNED_ROUTES = {
    ((4, 4), 1): "greedy",
    ((3, 3), 1): "ladder",
    ((6, 6), 4): "ladder",
    ((4, 8), 1): "qp",
    ((5, 5), 3): "qp",
}


def test_inferred_routes_are_pinned(tmp_path):
    tracer = Tracer()
    for (cell, rep), route in PINNED_ROUTES.items():
        op = mean_op(tmp_path, cell, rep)
        before = dict(tracer.routes)
        rc, stdout, _ = run.execute(lambda: run.traced_call(tracer, op.argv))
        assert op.check(rc, stdout) is None
        gained = {k: v - before.get(k, 0) for k, v in tracer.routes.items()}
        assert {k for k, v in gained.items() if v} == {route}, (cell, rep)
    assert tracer.missing == []


def test_metric_names_match_benchmark_json(monkeypatch, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = run.layer_metrics(Tracer(), Counter(), 1.0, 0)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert {u for _, u in layers.values()} == {m["unit"] for m in spec["per_layer"]}
    assert all(m["unit"] == layers[m["name"]][1] for m in spec["per_layer"])
    op = mean_op(tmp_path, (3, 3), 1)
    _, plain = run.plain_run([op])
    plain["setup_s"] = (0.1, "s")
    assert sorted(plain) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(m["unit"] == plain[m["name"]][1] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_plans_are_seeded_and_covered_by_the_reference():
    reference = workloads.load_reference()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in WORKLOADS.values():
        cells = reference[workload.name]
        for cell in workload.cells:
            entry = cells[workloads.cell_key(cell)]
            assert len(entry["digests"]) == workload.pool
            assert sorted(entry["by_cost"]) == list(range(1, workload.pool + 1))
        rounds = workloads.rounds_for(workload, seconds)
        plans = [workloads.plan(workload, seed, rounds, cells) for seed in range(1, 6)]
        assert plans[0] == workloads.plan(workload, 1, rounds, cells)
        assert any(p != plans[0] for p in plans)
        assert all(len(p) == rounds * len(workload.cells) for p in plans)


def test_a_short_plan_takes_one_instance_per_cost_stratum():
    cells = workloads.load_reference()[MEAN_SMALL.name]
    steps = workloads.plan(MEAN_SMALL, 7, 4, cells)
    for cell in MEAN_SMALL.cells:
        order = cells[workloads.cell_key(cell)]["by_cost"]
        ranks = sorted(order.index(rep) for c, rep in steps if c == cell)
        assert [rank * 4 // len(order) for rank in ranks] == [0, 1, 2, 3]
