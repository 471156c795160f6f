"""The benchmark's tracer finds its layers by module attribute.

``perfbench/tracer.py`` counts the rows of each epigraph program through
``tropmean.frechet.minimize_qp`` (2nm rows for m samples in n coordinates)
and the active-set iterations through ``tropmean.qp.nullspace``, which the
loop calls once per iteration on the working-set rows.  It times the
polytrope layers through ``kleene_star``, ``tropical_vertices`` and
``pseudovertices``, looked up in both ``tropmean.polytrope`` and
``tropmean.cli``, and the parse, render and certificate-check layers
through ``tropmean.cli.load_points``, ``tropmean.cli.result_to_json`` and
``tropmean.frechet.verify_certificate``.  A kernel change that renamed any
of these, or stopped computing one basis per iteration, would zero or skew
those layers without failing anything else.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import tropmean.frechet as frechet_mod
from tropmean import SampleSet, exact_frechet

from support import fraction_program, reference_qp

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
HOOKS = {
    ("tropmean.frechet", "minimize_qp"): "qp.minimize",
    ("tropmean.qp", "nullspace"): "count:qp.nullspace_calls",
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_the_qp_names(tracer):
    targets = {(module, attr): layer for module, attr, layer, _ in tracer.TARGETS}
    for (module, attr), layer in HOOKS.items():
        assert targets[module, attr] == layer
        assert callable(getattr(importlib.import_module(module), attr, None))


def test_tracer_hooks_the_parse_render_and_check_names(tracer):
    targets = {(module, attr): layer for module, attr, layer, _ in tracer.TARGETS}
    for (module, attr), layer in {
        ("tropmean.cli", "load_points"): "serialize.load_points",
        ("tropmean.cli", "result_to_json"): "serialize.result_to_json",
        ("tropmean.frechet", "verify_certificate"): "certify.verify",
    }.items():
        assert targets[module, attr] == layer
        assert callable(getattr(importlib.import_module(module), attr, None))


def test_tracer_hooks_the_polytrope_names(tracer):
    hooked = {
        (module, attr): layer
        for module, attr, layer, _ in tracer.TARGETS
        if layer.startswith("polytrope.")
    }
    assert hooked == {
        (module, name): f"polytrope.{name}"
        for module in ("tropmean.polytrope", "tropmean.cli")
        for name in ("kleene_star", "tropical_vertices", "pseudovertices")
    }
    for module, attr in hooked:
        assert callable(getattr(importlib.import_module(module), attr, None))


def test_one_exact_solve_counts_its_rows_and_iterations(tracer, monkeypatch):
    rng = Random("hooks:exact")
    sample = SampleSet.from_rows(
        [[Fraction(rng.randint(-25, 25), 5) for _ in range(5)] for _ in range(8)]
    )
    programs = []
    solve = frechet_mod.minimize_qp

    def recorded(*args):
        programs.append(args)
        return solve(*args)

    monkeypatch.setattr(frechet_mod, "minimize_qp", recorded)
    spans = tracer.Tracer()
    spans.install()
    try:
        result = exact_frechet(sample)
    finally:
        spans.uninstall()
    assert result.exact
    assert not set(spans.missing) & {f"{m}.{a}" for m, a in HOOKS}
    (program,) = programs
    # The recorded program is on integers; the reference runs it as Fractions.
    _, stats = reference_qp(*fraction_program(*program))
    assert spans.calls["qp.minimize"] == 1
    assert spans.counts["qp.minimize.rows"] == len(program[2]) == 2 * 5 * 8
    assert spans.counts["qp.nullspace_calls"] == stats["iterations"] > 1
