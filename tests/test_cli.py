"""End-to-end command tests driven through main()."""

import argparse
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropmean
from tropmean import (
    NEG_INF,
    PolytropeMatrix,
    SampleSet,
    TorusPoint,
    Unbounded,
    canonicalize,
    exact_frechet,
    find_certificate,
    fm_polytrope,
    kleene_star,
    pseudovertices,
    trop_dist,
    tropical_vertices,
    verify_certificate,
)
from tropmean import serialize
from tropmean.cli import _build_parser, _polygon_ccw, _random_sample, main
from tropmean.frechet import FrechetResult
from tropmean.serialize import (
    certificate_from_json,
    certificate_to_json,
    format_ratio,
    format_rational,
    load_points,
    matrix_from_json,
    parse_rational,
    polytrope_to_json,
    result_to_json,
)
from support import (
    reference_certificate_to_json,
    reference_matrix_to_json,
    reference_polytrope_to_json,
    reference_pseudovertices,
    reference_result_to_json,
    reference_rows_to_json,
    reference_tropical_vertices,
)

F = Fraction

THREE_POINTS_DOC = '{"points": [[-3, 0, 0], [0, -6, 0], [0, 0, -12]]}'


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_distance_integer_output(tmp_path, capsys):
    path = write(tmp_path, "pts.json", '{"points": [[4, 0, 9], [0, -1, 5]]}')
    assert main(["distance", path]) == 0
    assert capsys.readouterr().out == "3\n"


def test_distance_fractional_output_appends_a_decimal(tmp_path, capsys):
    path = write(tmp_path, "pts.json", '{"points": [[0, 0, "1/2"], [0, 1, 0]]}')
    assert main(["distance", path]) == 0
    assert capsys.readouterr().out == "3/2 (= 1.5)\n"


def test_distance_beyond_float_range_prints_only_the_rational(tmp_path, capsys):
    big = 10**400 + 7
    path = write(tmp_path, "pts.json", '{"points": [[0, "1/3"], [0, "%d"]]}' % big)
    assert main(["distance", path]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{3 * big - 1}/3\n"
    assert captured.err == ""


def test_distance_explicit_pair_and_identity(tmp_path, capsys):
    path = write(tmp_path, "pts.csv", "0,1,2\n0,1,2\n4,0,9\n")
    assert main(["distance", path, "--pair", "1", "2"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["distance", path, "--pair", "2", "3"]) == 0
    assert capsys.readouterr().out == "8\n"


def test_distance_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"0,0,0\n0,1,2\n")))
    assert main(["distance", "-"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_distance_error_exits(tmp_path, capsys):
    path = write(tmp_path, "pts.json", '{"points": [[0, 1], [2, 3]]}')
    assert main(["distance", path, "--pair", "1", "9"]) == 2
    assert main(["distance", str(tmp_path / "missing.json")]) == 2
    bad = write(tmp_path, "bad.json", '{"points": [[0, 1]')
    assert main(["distance", bad]) == 2


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs a listing of open descriptors")
def test_reading_an_input_leaves_no_descriptor_open(tmp_path, capsys):
    """``_read_text`` opens a raw descriptor, which no finalizer closes and no
    ResourceWarning reports, so the descriptors the process holds are
    counted around a read of a file, of a directory and of a bad document."""
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    bad = write(tmp_path, "bad.json", '{"points": [[0, 1]')
    before = len(os.listdir("/proc/self/fd"))
    assert main(["mean", path]) == 0
    assert main(["mean", str(tmp_path)]) == 2
    assert main(["mean", bad]) == 2
    assert len(os.listdir("/proc/self/fd")) == before
    capsys.readouterr()


def test_mean_exact_golden(tmp_path, capsys):
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main(["mean", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] is True
    assert doc["min_sum"] == "186"
    assert doc["mean"] == ["0", "0", "-1"]
    assert doc["distances"] == ["4", "7", "11"]
    # emitted JSON re-parses to verified objects
    sample = SampleSet.from_rows([(-3, 0, 0), (0, -6, 0), (0, 0, -12)])
    cert = certificate_from_json(doc["certificate"], sample)
    assert verify_certificate(sample, cert)
    mat = matrix_from_json(doc["fm_polytrope"])
    assert reference_matrix_to_json(mat) == doc["fm_polytrope"]


def test_mean_singleton(tmp_path, capsys):
    path = write(tmp_path, "one.csv", "5,6,9\n")
    assert main(["mean", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["min_sum"] == "0"
    assert doc["mean"] == ["0", "1", "4"]
    assert doc["exact"] is True


def test_mean_ignores_an_options_block(tmp_path, capsys):
    """An options block in an input file is ignored, values no command
    could use included."""
    plain = write(tmp_path, "plain.json", THREE_POINTS_DOC)
    body = THREE_POINTS_DOC[:-1] + ', "options": {"max_iter": "abc", "tol": [1]}}'
    with_options = write(tmp_path, "opts.json", body)
    assert main(["mean", plain]) == 0
    expected = capsys.readouterr().out
    assert main(["mean", with_options]) == 0
    assert capsys.readouterr().out == expected


def _uncertified(sample):
    """The result ``exact_frechet`` returns when no mean was certified: the
    sample average, ``exact`` false, no certificate and a ``reason``."""
    mean = canonicalize([sum((p[a] for p in sample), F(0)) / sample.m for a in range(sample.n)])
    distances = [trop_dist(mean, p) for p in sample]
    den = lcm(*(d.denominator for d in distances))
    return FrechetResult(
        mean=mean,
        den=den,
        spreads=tuple(int(d * den) for d in distances),
        fm_polytrope=fm_polytrope(sample, mean),
        reason="stub reason",
    )


def test_mean_exit_codes_when_not_certified(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "pts.json", '{"points": [[0, 0, 0], [0, 1, 2]]}')
    stub = _uncertified(SampleSet.from_rows([(0, 0, 0), (0, 1, 2)]))
    import tropmean.cli as cli_mod

    monkeypatch.setattr(cli_mod, "exact_frechet", lambda s, **kw: stub)
    assert main(["mean", path]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["exact"] is False
    # One stderr line says that the mean is not certified, and why.
    assert captured.err == "mean not certified: stub reason\n"


@pytest.mark.parametrize(
    ("argv", "out"),
    [
        (["polytrope", "PATH"], ""),
        (["certify", "--point", "0,1/2,1", "PATH"], ""),
        (
            ["bench", "--dims", "3", "--multipliers", "1", "--reps", "2", "--no-timing"],
            "n,m,rep,mean_time_ms,objective\n",
        ),
    ],
    ids=["polytrope", "certify", "bench"],
)
def test_commands_that_need_a_certified_mean_say_why_there_is_none(
    tmp_path, capsys, monkeypatch, argv, out
):
    """Every other command that needs a certified mean refuses to go on:
    exit 3, nothing on stdout past ``bench``'s header, and one stderr line
    that names the result's reason, as ``mean`` does."""
    path = write(tmp_path, "pts.json", '{"points": [[0, 0, 0], [0, 1, 2]]}')
    stub = _uncertified(SampleSet.from_rows([(0, 0, 0), (0, 1, 2)]))
    import tropmean.cli as cli_mod

    for module in (cli_mod, tropmean.frechet):
        monkeypatch.setattr(module, "exact_frechet", lambda s, **kw: stub)
    assert main([path if a == "PATH" else a for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == "not optimal: could not certify a mean for this sample: stub reason\n"


def test_mean_prints_the_average_when_the_solve_raises_internal_error(
    tmp_path, capsys, monkeypatch
):
    """A broken invariant inside the exact solve is a bug, not bad input:
    ``exact_frechet`` falls back to the average, and ``mean`` prints it
    uncertified and exits 3 rather than ending in a traceback, with the
    error's message on one stderr line."""
    import tropmean.qp as qp_mod

    def broken(rows):
        raise tropmean.InternalError("stub")

    monkeypatch.setattr(qp_mod, "integer_solve", broken)
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main(["mean", path]) == 3
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["exact"] is False
    assert doc["mean"] == ["0", "-1", "-3"]
    assert captured.err == "mean not certified: stub\n"


def test_certify_reports_an_internal_error_on_one_line(tmp_path, capsys, monkeypatch):
    """The mean's weights must hold at every point of equal objective; when
    they do not, a bug and not bad input, ``certify`` exits 3 with one
    ``internal error`` line on stderr and prints nothing, rather than
    ending in a traceback.  The stub accepts the certificate at the mean,
    its first check, inside ``exact_frechet``, and refuses it at the point."""
    verdicts = iter((True, False))
    monkeypatch.setattr(tropmean.frechet, "verify_certificate", lambda sample, cert: next(verdicts))
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main(["certify", "--point", "0,0,-1", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: the mean's certificate does not hold at a point of equal objective\n"
    )


def test_polytrope_from_matrix_golden(tmp_path, capsys):
    body = json.dumps(
        {
            "n": 3,
            "entries": [["-1", "1", "-5"], ["-4", "0", None], ["0", "3", None]],
        }
    )
    path = write(tmp_path, "mat.json", body)
    assert main(["polytrope", "--matrix", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["starred"]["entries"] == [
        ["0", "1", "-5"],
        ["-4", "0", "-9"],
        ["0", "3", "0"],
    ]
    assert len(doc["tropical_vertices"]) == 3
    assert len(doc["pseudovertices"]) == 5
    polygon = [(parse_rational(u), parse_rational(v)) for u, v in doc["polygon"]]
    assert len(polygon) == 5
    assert set(polygon) == {
        (parse_rational(p[1]), parse_rational(p[2])) for p in doc["pseudovertices"]
    }
    # counterclockwise convex ordering, starting at the smallest vertex
    assert polygon[0] == min(polygon)
    k = len(polygon)
    for t in range(k):
        ax, ay = polygon[t]
        bx, by = polygon[(t + 1) % k]
        cx, cy = polygon[(t + 2) % k]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        assert cross >= 0


def test_polytrope_needs_exactly_one_input(tmp_path):
    path = write(tmp_path, "pts.csv", "0,0,0\n0,1,2\n")
    assert main(["polytrope"]) == 2
    assert main(["polytrope", path, "--matrix", path]) == 2


def test_polytrope_from_points_without_a_mean(tmp_path, capsys):
    path = write(tmp_path, "pts.csv", "0,0,0\n0,1,2\n")
    assert main(["polytrope", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["polygon"] == [["0", "1"], ["1", "1"]]


def test_polytrope_takes_no_claimed_mean(tmp_path, capsys):
    """A claimed mean is checked by ``certify --point``; ``polytrope``
    always computes the mean set itself."""
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    with pytest.raises(SystemExit) as caught:
        main(["polytrope", path, "--mean", "0,0,-1"])
    assert caught.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["mean", "--mode", "greedy"],
        ["mean", "--tol", "1/2"],
        ["mean", "--max-iter", "5"],
        ["bench", "--trace"],
        ["bench", "--max-iter", "5"],
    ],
    ids=["mean-mode", "mean-tol", "mean-max-iter", "bench-trace", "bench-max-iter"],
)
def test_greedy_flags_are_gone(tmp_path, capsys, argv):
    """``mean`` always runs the exact route and ``bench`` times it, so the
    flags that steered the greedy descent are unknown arguments."""
    if argv[0] == "mean":
        argv = [*argv, write(tmp_path, "pts.json", THREE_POINTS_DOC)]
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [["mean"], ["polytrope"]], ids=["mean", "polytrope"])
def test_mean_and_polytrope_star_one_unstarred_matrix(tmp_path, capsys, monkeypatch, command):
    """Every ``kleene_star`` call of one command returns one and the same
    closure object, so the command sweeps once; it is the closure of the
    matrix the command prints."""
    import tropmean.cli as cli_mod
    import tropmean.polytrope as polytrope_mod

    closures = []
    star = polytrope_mod.kleene_star

    def recorded(c):
        closures.append(star(c))
        return closures[-1]

    monkeypatch.setattr(polytrope_mod, "kleene_star", recorded)
    monkeypatch.setattr(cli_mod, "kleene_star", recorded)
    path = write(tmp_path, "pts.csv", "0,0,0\n0,1,2\n0,3,1\n")
    assert main([*command, path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(closures) >= 2 and len({id(c) for c in closures}) == 1
    matrix = matrix_from_json(doc.get("matrix", doc.get("fm_polytrope")))
    assert closures[0] == star(matrix)
    assert doc["tropical_vertices"] and doc["pseudovertices"]


def test_polytrope_matrix_builds_no_fraction(tmp_path, capsys, monkeypatch):
    """From the parsed document to the printed vertices, ``polytrope
    --matrix`` runs on integers: the matrix, its closure, the tropical
    vertices and pseudovertices and their text are built without one
    Fraction, for bounded matrices in 4 to 7 coordinates with p/q entries."""
    rng = Random("cli:no-fractions")
    paths = []
    for n in (4, 5, 6, 7):
        for rep in range(3):
            cell = lambda: f"{rng.randint(-10 * n, 0)}/{rng.choice((1, 2, 5))}"
            entries = [[cell() for _ in range(n)] for _ in range(n)]
            for i in range(n):
                entries[i][i] = "0"
            body = json.dumps({"n": n, "entries": entries})
            paths.append(write(tmp_path, f"mat-{n}-{rep}.json", body))
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    codes = [main(["polytrope", "--matrix", path]) for path in paths]
    monkeypatch.undo()
    assert codes == [0] * len(paths)
    assert built == []
    docs = capsys.readouterr().out
    assert docs.count('"pseudovertices"') == len(paths)


def test_polytrope_matrix_builds_no_torus_point(tmp_path, capsys, monkeypatch):
    """``polytrope --matrix`` prints both vertex lists from the closure's
    integer columns without one ``TorusPoint``, for bounded matrices in 3
    to 7 coordinates with p/q entries, and the printed tropical vertices are
    the leading rows of the printed pseudovertices."""
    rng = Random("cli:no-torus-points")
    paths = []
    for n in range(3, 8):
        for rep in range(3):
            cell = lambda: f"{rng.randint(-10 * n, 0)}/{rng.choice((1, 2, 3, 5))}"
            entries = [["0" if i == j else cell() for j in range(n)] for i in range(n)]
            body = json.dumps({"n": n, "entries": entries})
            paths.append(write(tmp_path, f"mat-{n}-{rep}.json", body))
    built = []
    init = tropmean.TorusPoint.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tropmean.TorusPoint, "__init__", counted)
    docs = []
    for path in paths:
        assert main(["polytrope", "--matrix", path]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    monkeypatch.undo()
    assert built == []
    for doc in docs:
        tverts = doc["tropical_vertices"]
        assert tverts and doc["pseudovertices"][: len(tverts)] == tverts


def _read_points(rows):
    return [canonicalize([parse_rational(v) for v in row]) for row in rows]


def test_printed_vertex_lists_read_back_as_the_reference(tmp_path, capsys):
    """The vertex lists ``polytrope --matrix`` and ``mean`` print read back,
    in order, as the Fraction reference's tropical vertices and
    pseudovertices: on matrices in 2 to 7 coordinates whose entries repeat a
    few values, one in ten off the diagonal -inf, and on tie-heavy samples
    with small integer coordinates.  An unbounded matrix prints nothing and
    exits 2."""
    rng = Random("cli:vertex-text")
    bounded = 0
    for t in range(240):
        n = 2 + t % 6
        pool = [Fraction(rng.randint(-3 * n, 0), rng.choice((1, 2, 3, 7))) for _ in range(3)]
        rows = [
            [
                Fraction(0) if i == j else NEG_INF if rng.random() < 0.1 else rng.choice(pool)
                for j in range(n)
            ]
            for i in range(n)
        ]
        c = PolytropeMatrix.from_rows(rows)
        body = json.dumps({"n": n, "entries": reference_matrix_to_json(c)["entries"]})
        code = main(["polytrope", "--matrix", write(tmp_path, f"mat-{t}.json", body)])
        out = capsys.readouterr().out
        try:
            expected = reference_tropical_vertices(c), reference_pseudovertices(c)
        except Unbounded:
            assert code == 2 and out == ""
            continue
        assert code == 0
        doc = json.loads(out)
        assert _read_points(doc["tropical_vertices"]) == expected[0]
        assert _read_points(doc["pseudovertices"]) == expected[1]
        bounded += 1
    assert 200 <= bounded < 240
    for t in range(40):
        n, m, span = 2 + t % 4, 1 + t % 5, 1 + t % 3
        points = [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]
        path = write(tmp_path, f"pts-{t}.json", json.dumps({"points": points}))
        assert main(["mean", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        fm = matrix_from_json(doc["fm_polytrope"])
        assert _read_points(doc["tropical_vertices"]) == reference_tropical_vertices(fm)
        assert _read_points(doc["pseudovertices"]) == reference_pseudovertices(fm)


def _seeded_matrix_bodies(rng, count):
    """``count`` matrix documents, n from 2 to 7 in turn, with p/q entries and
    one in twenty off-diagonals null.  Even ones are x_i - x_j less a slack
    that is zero for about a third of the entries, so some closures repeat a
    column; odd ones draw entries in [-3n, 1] and are sometimes empty."""
    bodies = []
    for t in range(count):
        n = 2 + t % 6
        x = [Fraction(rng.randint(-4 * n, 4 * n), rng.choice((1, 2, 3))) for _ in range(n)]

        def entry(i, j):
            if i == j:
                return "0"
            if rng.random() < 0.05:
                return None
            if t % 2:
                return f"{rng.randint(-3 * n, 1)}/{rng.choice((1, 2, 3, 5))}"
            if rng.random() < 0.3:
                return str(x[i] - x[j])
            return str(x[i] - x[j] - F(rng.randint(1, 3 * n), rng.choice((1, 2, 5))))

        entries = [[entry(i, j) for j in range(n)] for i in range(n)]
        bodies.append(json.dumps({"n": n, "entries": entries}))
    return bodies


def test_polytrope_prints_the_bytes_of_json_dumps_of_the_library_document(tmp_path, capsys):
    """``polytrope`` writes, byte for byte, ``json.dumps(doc, indent=2)`` and
    a newline of the reference document built from Fractions in
    ``support``: on seeded matrices in 2 to 7 coordinates, with null
    entries, with repeated closure columns and with n = 3 polygons, and from
    points files.  Matrices with no vertex list exit 2 and print nothing."""
    rng = Random("cli:polytrope-bytes")
    seen = {"printed": 0, "null": 0, "repeated": 0, "polygon": 0}
    for t, body in enumerate(_seeded_matrix_bodies(rng, 240)):
        code = main(["polytrope", "--matrix", write(tmp_path, f"mat-{t}.json", body)])
        out = capsys.readouterr().out
        mat = matrix_from_json(json.loads(body))
        try:
            doc = reference_polytrope_to_json(mat)
        except (Unbounded, tropmean.EmptyPolytrope):
            assert code == 2 and out == ""
            continue
        assert code == 0
        assert out == json.dumps(doc, indent=2) + "\n"
        seen["printed"] += 1
        seen["null"] += None in sum(json.loads(body)["entries"], [])
        seen["repeated"] += len(doc["tropical_vertices"]) < mat.n
        seen["polygon"] += "polygon" in doc
    assert seen["printed"] >= 180 and min(seen.values()) >= 5, seen
    for t in range(30):
        n, m, span = 2 + t % 4, 1 + t % 6, 1 + t % 3
        points = [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]
        text = json.dumps({"points": points})
        assert main(["polytrope", write(tmp_path, f"pts-{t}.json", text)]) == 0
        expected = reference_polytrope_to_json(exact_frechet(load_points(text)).fm_polytrope)
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def _count_format_ratio(monkeypatch):
    """The (num, den) of every ``format_ratio`` call the serializer makes."""
    import tropmean.serialize as serialize_mod

    calls = []

    def counted(num, den):
        calls.append((num, den))
        return format_ratio(num, den)

    monkeypatch.setattr(serialize_mod, "format_ratio", counted)
    return calls


def test_polytrope_formats_each_value_once_per_denominator(tmp_path, capsys, monkeypatch):
    """``polytrope --matrix`` calls ``format_ratio`` once for each distinct
    value of its document over each denominator in it: the matrix's values
    over its own, and the closure's and both vertex lists' over the
    closure's, shared with the matrix's when the two are equal."""
    calls = _count_format_ratio(monkeypatch)
    rng = Random("cli:format-once")
    bodies = _seeded_matrix_bodies(rng, 60)
    for n in (5, 6, 7):
        cell = lambda: f"{rng.randint(-10 * n, 0)}/{rng.choice((1, 2, 5))}"
        entries = [["0" if i == j else cell() for j in range(n)] for i in range(n)]
        bodies.append(json.dumps({"n": n, "entries": entries}))
    printed = 0
    for t, body in enumerate(bodies):
        calls.clear()
        if main(["polytrope", "--matrix", write(tmp_path, f"mat-{t}.json", body)]) != 0:
            continue
        capsys.readouterr()
        mat = matrix_from_json(json.loads(body))
        star = kleene_star(mat)
        values = {(v, mat.den) for row in mat.rows for v in row if v is not None}
        values |= {(v, star.den) for row in star.rows for v in row}
        values |= {(v, star.den) for col in pseudovertices(mat) for v in col}
        assert sorted(calls) == sorted(values)
        printed += 1
    assert printed >= 40


@pytest.fixture(scope="module")
def pool_points():
    """The points of every benchmark pool sample, 288 of ``mean-small`` and
    10 of ``mean-large``, from perfbench/workloads.py, loaded from its file
    and registered under its bare name while it runs: its dataclasses look
    their module up."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "workloads", module)
        spec.loader.exec_module(module)
        workloads = [module.WORKLOADS[name] for name in ("mean-small", "mean-large")]
        return [
            module.mean_rows(*cell, rep)
            for workload in workloads
            for cell in workload.cells
            for rep in range(1, workload.pool + 1)
        ]


def _tie_heavy_points(rng, count):
    """``count`` samples with n from 2 to 6, m from 1 to 8 and coordinates
    in -2..2, so that distances, coordinates and pieces tie often."""
    return [
        [[rng.randint(-2, 2) for _ in range(2 + t % 5)] for _ in range(1 + t % 8)]
        for t in range(count)
    ]


def _points_text(rows):
    return json.dumps({"points": [[str(v) for v in row] for row in rows]})


def test_mean_prints_the_bytes_of_json_dumps_of_the_reference_document(
    tmp_path, capsys, monkeypatch, pool_points
):
    """``mean`` writes, byte for byte, ``json.dumps(doc, indent=2)`` and a
    newline of the reference document built from Fractions in ``support``:
    on every benchmark pool sample, on 300 seeded tie-heavy samples, on a
    sample whose document holds integers longer than the 1,000-digit chunk
    of the rational writer, and, exit 3, for a mean that was not certified,
    with ``"exact": false`` and no certificate."""
    qs = [10**600 + 7, 10**600 + 9, 10**600 + 13]
    long = [[0, f"1/{qs[0]}", 3], [0, 2, f"-1/{qs[1]}"], [0, f"1/{qs[2]}", 0]]
    samples = [*pool_points, *_tie_heavy_points(Random("cli:mean-bytes"), 300), long]
    path = str(tmp_path / "pts.json")
    for rows in samples:
        text = _points_text(rows)
        Path(path).write_text(text, encoding="utf-8")
        assert main(["mean", path]) == 0
        sample = load_points(text)
        expected = reference_result_to_json(exact_frechet(sample), sample)
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
    assert re.search(r"[0-9]{1001}", json.dumps(expected))
    sample = SampleSet.from_rows([(0, 0, 0), (0, 1, 2)])
    stub = _uncertified(sample)
    import tropmean.cli as cli_mod

    monkeypatch.setattr(cli_mod, "exact_frechet", lambda s: stub)
    assert main(["mean", write(tmp_path, "pts.csv", "0,0,0\n0,1,2\n")]) == 3
    expected = reference_result_to_json(stub, sample)
    assert expected["exact"] is False and "certificate" not in expected
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_certify_prints_the_bytes_of_json_dumps_of_the_reference_document(
    tmp_path, capsys, pool_points
):
    """``certify --point`` writes, byte for byte, ``json.dumps(doc,
    indent=2)`` and a newline of the reference certificate document, at the
    mean and at the last tropical vertex of the mean polytrope, on every
    benchmark pool sample and on 300 seeded tie-heavy samples."""
    samples = [*pool_points, *_tie_heavy_points(Random("cli:certify-bytes"), 300)]
    path = str(tmp_path / "pts.json")
    apart = 0
    for rows in samples:
        text = _points_text(rows)
        Path(path).write_text(text, encoding="utf-8")
        sample = load_points(text)
        result = exact_frechet(sample)
        fm = result.fm_polytrope
        vertex = TorusPoint(kleene_star(fm).den, tropical_vertices(fm)[-1])
        for point in (result.mean, vertex):
            assert main(["certify", path, "--point", ",".join(map(str, point.coords))]) == 0
            expected = reference_certificate_to_json(find_certificate(sample, point), sample)
            assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
        apart += vertex != result.mean
    assert apart >= 50


def test_mean_formats_each_value_once_per_denominator(tmp_path, capsys, monkeypatch, pool_points):
    """``mean`` calls ``format_ratio`` once for each distinct value of its
    document over each denominator in it: the mean's coordinates over its
    own, the mean polytrope's entries over its own, both vertex lists' over
    the closure's, the certificate's constants over the sample's, the
    distances over the result's ``den`` and the minimum over its square,
    each sample's weights over their denominator and the certified value
    over its own, the tables of equal denominators shared."""
    calls = _count_format_ratio(monkeypatch)
    rng = Random("cli:mean-format-once")
    path = str(tmp_path / "pts.json")
    for rows in [*_tie_heavy_points(rng, 60), *pool_points[::12]]:
        text = _points_text(rows)
        Path(path).write_text(text, encoding="utf-8")
        calls.clear()
        assert main(["mean", path]) == 0
        capsys.readouterr()
        sample = load_points(text)
        result = exact_frechet(sample)
        fm, cert = result.fm_polytrope, result.certificate
        values = {(v, result.mean.den) for v in result.mean.nums}
        values |= {(v, fm.den) for row in fm.rows for v in row if v is not None}
        values |= {(v, kleene_star(fm).den) for col in pseudovertices(fm) for v in col}
        values |= {(v, result.den) for v in result.spreads}
        values.add((sum(v * v for v in result.spreads), result.den**2))
        values.add((cert.c_star.numerator, cert.c_star.denominator))
        values |= {(w, den) for den, entries in cert.weights for _, _, w in entries}
        values |= {
            (p[i] - p[k], sample.den)
            for (_, entries), p in zip(cert.weights, sample.nums)
            for i, k, _ in entries
        }
        assert sorted(calls) == sorted(values)


_keys = st.sampled_from(["matrix", "entries", "tropical_vertices", "pseudovertices", "polygon"])
_int_rows = st.lists(
    st.lists(st.integers(-40, 40) | st.none(), min_size=1, max_size=5), max_size=4
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_keys, st.sampled_from((1, 2, 6, 10)), _int_rows), min_size=1, max_size=4),
    st.booleans(),
)
def test_the_writer_gives_integer_row_blocks_as_rows_to_json(blocks, nested):
    """Blocks of rows of integers over a denominator, None among them, are
    written as ``json.dumps`` writes their rows of "p/q" strings and nulls,
    in objects at depth 1 and 2, blocks over one denominator sharing one
    table of text: den 1, one-row and empty blocks among them."""
    tables = serialize._Tables()
    line = "\n    " if nested else "\n  "
    text = {key: serialize._rows(tables[den], rows, line) for key, den, rows in blocks}
    expected = {key: reference_rows_to_json(den, rows) for key, den, rows in blocks}
    written = serialize._object(line[:-2], **text)
    if nested:
        written = serialize._object("\n", matrix=written, n="3")
        expected = {"matrix": expected, "n": 3}
    assert written == json.dumps(expected, indent=2)


def test_emit_writes_the_rendered_document_and_a_newline(tmp_path, capsys):
    """Each command that writes a document writes the text its serializer
    returns and one newline, nothing else."""
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    sample = load_points(THREE_POINTS_DOC)
    result = exact_frechet(sample)
    fm = result.fm_polytrope
    star = kleene_star(fm)
    polygon = _polygon_ccw(pseudovertices(fm))
    assert main(["mean", path]) == 0
    expected = result_to_json(result, sample, star.den, tropical_vertices(fm), pseudovertices(fm))
    assert capsys.readouterr().out == expected + "\n"
    assert main(["polytrope", path]) == 0
    expected = polytrope_to_json(fm, star, tropical_vertices(fm), pseudovertices(fm), polygon)
    assert capsys.readouterr().out == expected + "\n"
    point = canonicalize((0, 0, -1))
    assert main(["certify", path, "--point", "0,0,-1"]) == 0
    expected = certificate_to_json(find_certificate(sample, point), sample)
    assert capsys.readouterr().out == expected + "\n"


def test_certify_golden(tmp_path, capsys):
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main(["certify", path, "--point", "0,0,-1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c_star"] == "186"
    third = doc["weights"][2]["pieces"]
    assert [p["w"] for p in third] == ["4/11", "7/11"]


def test_certify_rejects_a_bad_point(tmp_path, capsys):
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main(["certify", path, "--point", "0,0,0"]) == 3
    err = capsys.readouterr().err
    assert "not optimal" in err
    assert main(["certify", path, "--point", "0,0"]) == 2


@pytest.mark.parametrize("point", ["0,,0,-1", "0,0,-1,", ",0,0,-1"])
def test_certify_refuses_an_empty_coordinate(tmp_path, capsys, point):
    """An empty field is an error, not a coordinate to skip: dropping it
    would certify a different, shorter point."""
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main(["certify", path, "--point", point]) == 2
    assert capsys.readouterr() == ("", "error: --point: not a rational: ''\n")


@pytest.mark.parametrize(
    "point, field",
    [
        ("0,1 0,-1", "1 0"),
        ("0,1 / 2,-1", "1 / 2"),
        ("0,- 1,-1", "- 1"),
        ("0,1e 3,-1", "1e 3"),
        ("0,0,- 1", "- 1"),
    ],
)
def test_certify_refuses_a_space_inside_a_coordinate(tmp_path, capsys, point, field):
    """``--point`` is split on commas alone and each field read as a
    document coordinate is, so a space inside a field is refused as in a
    points file, never deleted to join two numbers into one."""
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main(["certify", "--point", point, path]) == 2
    assert capsys.readouterr() == ("", f"error: --point: not a rational: {field!r}\n")


def test_certify_drops_spaces_around_a_coordinate(tmp_path, capsys):
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main(["certify", "--point", " 0 , 0 ,-1 ", path]) == 0
    spaced = capsys.readouterr().out
    point = serialize.read_point([" 0 ", " 0 ", "-1 "])
    assert json.loads(spaced)["point"] == [format_rational(v) for v in point.coords]
    assert main(["certify", "--point", "0,0,-1", path]) == 0
    assert capsys.readouterr().out == spaced


@pytest.mark.parametrize(
    "field, message",
    [
        ("1/0", "not a rational: '1/0'"),
        ("1e4400", "exponent of '1e4400' exceeds 1000"),
        ("1" * 1001, "number '1111111111...1111111111' has more than 1000 digits"),
        ("\u0663", "not a rational: '\u0663'"),
    ],
    ids=["zero-denominator", "exponent", "digits", "non-ascii-digit"],
)
def test_certify_names_an_unreadable_coordinate(tmp_path, capsys, field, message):
    """A --point coordinate that the coordinate reader refuses ends in one
    error line, which names the flag and quotes the coordinate."""
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main(["certify", path, "--point", f"0,{field},-1"]) == 2
    assert capsys.readouterr() == ("", f"error: --point: {message}\n")


def test_certify_refuses_a_one_coordinate_point(tmp_path, capsys):
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main(["certify", path, "--point", "5"]) == 2
    assert capsys.readouterr() == ("", "error: --point: need at least two coordinates\n")


def test_certify_singleton_is_trivial(tmp_path, capsys):
    path = write(tmp_path, "one.csv", "2,3,4\n")
    assert main(["certify", path, "--point", "2,3,4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c_star"] == "0"


def test_bench_is_reproducible_without_timing(capsys):
    args = ["bench", "--dims", "3,4", "--multipliers", "1,2", "--reps", "2", "--seed", "7"]
    assert main([*args, "--no-timing"]) == 0
    first = capsys.readouterr().out
    assert main([*args, "--no-timing"]) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "n,m,rep,mean_time_ms,objective"
    cells = [(n, mult * n, rep) for n in (3, 4) for mult in (1, 2) for rep in (1, 2)]
    assert len(lines) == 1 + len(cells)
    for line, (n, m, rep) in zip(lines[1:], cells):
        exact = exact_frechet(_random_sample(7, n, m, rep))
        assert line == f"{n},{m},{rep},,{format_rational(exact.min_sum)}"


def test_bench_records_timings_by_default(capsys):
    args = ["bench", "--dims", "3", "--multipliers", "1", "--reps", "2"]
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        cell = line.split(",")[3]
        assert float(cell) >= 0.0


@pytest.mark.parametrize(
    "flag, value, low", [("--dims", "1", 2), ("--dims", "0", 2), ("--multipliers", "0", 1)]
)
def test_bench_refuses_sizes_it_cannot_sample(flag, value, low, capsys):
    assert main(["bench", flag, value, "--reps", "1"]) == 2
    line = f"error: {flag}: '{value}' is not an integer of at least {low}\n"
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--dims", ","),
        ("--dims", ""),
        ("--dims", "3,"),
        ("--multipliers", ""),
        ("--multipliers", ",2"),
    ],
)
def test_bench_refuses_an_empty_size_entry(flag, value, capsys):
    """An empty entry is an error, not a size to skip: an empty list would
    print only the header and exit 0."""
    assert main(["bench", flag, value, "--reps", "1", "--no-timing"]) == 2
    assert capsys.readouterr() == ("", f"error: {flag}: not a rational: ''\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--reps", "0"], "--reps: '0' is not an integer of at least 1"),
        (["bench", "--reps", "x"], "--reps: not a rational: 'x'"),
        (["bench", "--reps", "1,2"], "--reps: not a rational: '1,2'"),
        (["bench", "--reps", "1.5"], "--reps: '1.5' is not an integer of at least 1"),
        (["bench", "--reps", "1_0"], "--reps: not a rational: '1_0'"),
        (["bench", "--seed", "1.5"], "--seed: '1.5' is not an integer"),
        (["bench", "--seed", "\u0663"], "--seed: not a rational: '\u0663'"),
        (["distance", "PATH", "--pair", "1", "x"], "--pair: not a rational: 'x'"),
        (["distance", "PATH", "--pair", "1,2", "3"], "--pair: not a rational: '1,2'"),
    ],
    ids=[
        "bench-reps",
        "bench-reps-text",
        "bench-reps-list",
        "bench-reps-fraction",
        "bench-reps-underscore",
        "bench-seed-fraction",
        "bench-seed-non-ascii-digit",
        "distance-pair-text",
        "distance-pair-list",
    ],
)
def test_unusable_counts_exit_2_with_one_line(tmp_path, capsys, argv, message):
    """A count is read as a document literal is, and must be an integer; a
    one-value flag takes no list.  A bad value is one line naming the flag."""
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main([path if a == "PATH" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "pts.json", '{"points": [[4, 0, 9], [0, -1, 5]]}')
    proc = subprocess.run(
        [sys.executable, "-m", "tropmean", "distance", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_closed_stdout_exits_1_quietly(tmp_path, capsys):
    """A reader that stops early (``| head -1``) ends the command with exit
    1 and nothing on stderr; an unreadable input file is still bad input."""
    src = str(Path(tropmean.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # far more rows than the run reaches before the pipe is closed
    argv = ["bench", "--dims", "2", "--multipliers", "1", "--reps", "100000", "--no-timing"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "tropmean", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"n,m,rep,mean_time_ms,objective\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert main(["mean", str(tmp_path / "missing.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "coordinate",
    ['"1e4400"', '"1e100000"', "1e4400", "7" * 5000, '"%s"' % ("7" * 5000)],
    ids=["string-1e4400", "string-1e100000", "number-1e4400", "number-5000-digits", "string-5000-digits"],
)
def test_oversized_literals_exit_2_with_one_line(tmp_path, capsys, coordinate):
    path = write(tmp_path, "big.json", '{"points": [[%s, 0, 0], [0, 1, 2]]}' % coordinate)
    for command in (["mean", path], ["distance", path]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_polytrope_matrix_rejects_malformed_json(tmp_path, capsys):
    for text in (
        '{"n": 2, "entries": [[0, -1], [-1, 0]',
        '{"n": 2, "entries": [[0, 1e4400], [-1, 0]]}',
        '{"entries": 5}',
        '{"entries": [[0]]}',
        '{"n": true, "entries": [[0]]}',
    ):
        path = write(tmp_path, "matrix.json", text)
        assert main(["polytrope", "--matrix", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _assert_one_error_line(capsys, start="error: "):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(start) and captured.err.count("\n") == 1


def test_non_utf8_points_exit_2_with_one_line_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"points": [[0, 1], [0, "\xff"]]}')
    for argv in (["mean"], ["distance"], ["polytrope"], ["certify", "--point", "0,0"]):
        assert main([*argv, str(path)]) == 2
        _assert_one_error_line(capsys, f"error: {path}: not UTF-8")


def test_non_utf8_matrix_exits_2_with_one_line_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"n": 2, "entries": [[0, "\xff"], [-1, 0]]}')
    assert main(["polytrope", "--matrix", str(path)]) == 2
    _assert_one_error_line(capsys, f"error: {path}: not UTF-8")


def test_bad_bytes_on_stdin_name_the_utf8_problem(capsys, monkeypatch):
    # A POSIX locale opens stdin with surrogateescape, so bad bytes decode
    # silently unless stdin is read as bytes.
    raw = io.BytesIO(b'{"points": [[0, 1], [0, "\xff"]]}')
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, "utf-8", "surrogateescape"))
    assert main(["mean", "-"]) == 2
    _assert_one_error_line(capsys, "error: stdin: not UTF-8 text (byte 25: invalid start byte)")


@pytest.mark.parametrize(
    "text", ['{"points": [[4, 0, 9], [0, -1, 5]]}', "4,0,9\r\n0,-1,5\r\n"], ids=["json", "csv"]
)
def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, monkeypatch, text):
    """A spreadsheet's "CSV UTF-8" export starts with a BOM; the file reads
    as it does without one, from a file and from stdin."""
    data = b"\xef\xbb\xbf" + text.encode("utf-8")
    path = tmp_path / "bom.txt"
    path.write_bytes(data)
    assert main(["distance", str(path)]) == 0
    assert capsys.readouterr().out == "3\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert main(["distance", "-"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_a_second_byte_order_mark_is_not_a_number(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf0,1\n2,3\n")
    assert main(["distance", str(path)]) == 2
    _assert_one_error_line(capsys, "error: line 1: not a rational: '\\ufeff0'")


def test_a_second_byte_order_mark_is_refused_by_the_json_reader(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf" + b'{"entries": [[0, -1], [-1, 0]]}')
    assert main(["polytrope", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"
    )


@pytest.mark.parametrize("command", [["mean"], ["polytrope", "--matrix"]], ids=["mean", "matrix"])
@pytest.mark.parametrize(
    "name, line",
    [
        ("missing.json", "[Errno 2] No such file or directory"),
        ("folder", "[Errno 21] Is a directory"),
    ],
    ids=["missing", "directory"],
)
def test_an_unreadable_file_exits_2_with_the_line_naming_it(tmp_path, capsys, command, name, line):
    path = tmp_path / name
    if name == "folder":
        path.mkdir()
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}: {str(path)!r}\n"


@pytest.mark.parametrize(
    "coordinate", ['"1_000"', '"1e1_0"', '"1 / 2"', '"\u0661\u0662"', '"\uff11"'],
    ids=["underscore", "underscore-exponent", "spaced-slash", "arabic-indic-digits", "fullwidth-digit"],
)
def test_numbers_outside_the_ascii_syntax_exit_2_on_every_python(tmp_path, capsys, coordinate):
    """Python 3.12 reads "1 / 2", 3.11 reads "1_000" and every version reads
    non-ASCII decimal digits; the command line reads none of them."""
    path = write(tmp_path, "pts.json", '{"points": [[%s, 2], [3, 4]]}' % coordinate)
    assert main(["distance", path]) == 2
    _assert_one_error_line(capsys, "error: not a rational: ")
    csv_path = write(tmp_path, "pts.csv", "%s,2\n3,4\n" % json.loads(coordinate))
    assert main(["distance", csv_path]) == 2
    _assert_one_error_line(capsys, "error: line 1: not a rational: ")


@pytest.mark.parametrize(
    "command", [["mean"], ["distance"], ["certify", "--point", "0,0"]], ids=["mean", "distance", "certify"]
)
def test_a_csv_cell_past_the_field_limit_exits_2_with_its_line(tmp_path, capsys, command):
    """The csv module refuses a field of more than 131,072 characters; a
    200,000-digit cell is a malformed input, not a crash."""
    path = write(tmp_path, "pts.csv", "0,1\n2," + "7" * 200_000 + "\n")
    assert main([*command, path]) == 2
    _assert_one_error_line(capsys, "error: line 2: field larger than field limit (131072)")


def test_a_csv_error_names_the_first_line_of_its_record(tmp_path, capsys):
    """A quoted cell may span lines, so the records and the lines part
    ways: the bad cell of the third record is on the fourth line."""
    path = write(tmp_path, "pts.csv", '1,2\n"3\n",4\n5,y\n')
    assert main(["mean", path]) == 2
    _assert_one_error_line(capsys, "error: line 4: not a rational: 'y'")


@pytest.mark.parametrize(
    "text, line",
    [
        ('{"points": [1, 2]}', "error: point 0 is not an array"),
        ('{"points": [["1e", 0], [0, 1]]}', "error: not a rational: '1e'"),
        ('{"points": [["2e1.5", 0], [0, 1]]}', "error: not a rational: '2e1.5'"),
    ],
    ids=["point-not-an-array", "exponent-missing", "exponent-not-an-integer"],
)
def test_malformed_points_exit_2_with_their_line(tmp_path, capsys, text, line):
    assert main(["mean", write(tmp_path, "pts.json", text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def _assert_short_error_line(capsys, start):
    captured = capsys.readouterr()
    assert captured.out == ""
    line = captured.err.encode("utf-8")
    assert line.startswith(start.encode("utf-8")) and line.count(b"\n") == 1
    assert len(line) <= 300


def test_a_long_coordinate_string_is_abbreviated_on_its_error_line(tmp_path, capsys):
    path = write(tmp_path, "long.json", '{"points": [["%s", 0], [0, 1]]}' % ("x" * 100_000))
    assert main(["mean", path]) == 2
    _assert_short_error_line(capsys, "error: not a rational: 'xxxxxxxxxx...xxxxxxxxxx'")


def test_a_deeply_nested_coordinate_is_abbreviated_on_its_error_line(tmp_path, capsys):
    nested = "[" * 900 + "]" * 900
    path = write(tmp_path, "nested.json", '{"points": [[%s, 0], [0, 1]]}' % nested)
    assert main(["mean", path]) == 2
    _assert_short_error_line(capsys, "error: cannot read coordinate [[[[[[[[[[...]]]]]]]]]]")


def test_deeply_nested_points_exit_2_with_one_line(tmp_path, capsys):
    path = write(tmp_path, "deep.json", "[" * 100_000)
    assert main(["mean", path]) == 2
    _assert_one_error_line(capsys)


def test_deeply_nested_matrix_exits_2_with_one_line(tmp_path, capsys):
    path = write(tmp_path, "deep.json", '{"entries": ' + "[" * 100_000)
    assert main(["polytrope", "--matrix", path]) == 2
    _assert_one_error_line(capsys)


UNBOUNDED_LINE = "error: closure column contains -inf; polytrope is unbounded\n"


@pytest.mark.parametrize(
    "entries, line",
    [
        ([["0", "2"], ["-1", "0"]], "error: closure diagonal entry (0,0) is positive\n"),
        ([[None, None, None], [None, None, None], [None, None, None]], UNBOUNDED_LINE),
        ([["0", None, "-1"], ["-2", None, "0"], ["0", None, "0"]], UNBOUNDED_LINE),
    ],
    ids=["positive-cycle", "all-null", "null-column"],
)
def test_polytrope_matrix_without_vertices_exits_2_with_one_line(tmp_path, capsys, entries, line):
    path = write(tmp_path, "matrix.json", json.dumps({"n": len(entries), "entries": entries}))
    assert main(["polytrope", "--matrix", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line


def test_polytrope_matrix_with_a_neg_inf_diagonal(tmp_path, capsys):
    entries = [[None, "-1", "-2"], ["-1", None, "-1/2"], ["-3", "0", "0"]]
    path = write(tmp_path, "matrix.json", json.dumps({"n": 3, "entries": entries}))
    assert main(["polytrope", "--matrix", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert [row[i] for i, row in enumerate(doc["starred"]["entries"])] == ["0", "0", "0"]
    assert doc["tropical_vertices"] and doc["pseudovertices"]


def test_optimized_interpreter_gives_the_same_output(tmp_path):
    """python -O strips asserts; the package's checks and output must not
    depend on them."""
    path = write(tmp_path, "pts.json", '{"points": [[0, "1/2", 3], [2, -1, 0], [0, 4, "-7/3"], [1, 1, 1]]}')
    src = str(Path(tropmean.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "tropmean", "mean", path],
            capture_output=True,
            text=True,
            env=env,
        )
        for flags in (["-O"], [])
    ]
    assert [proc.returncode for proc in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert '"exact": true' in runs[0].stdout


def _read_int(text):
    """An integer from decimal text of any length, read in chunks that stay
    below Python's limit on converting text to one integer."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_mean_writes_rationals_past_the_integer_text_limit(tmp_path, capsys):
    """Every literal holds 991 digits, within the cap, but the mean's
    denominator has more than 4,300, Python's limit for str(int)."""
    qs = [10**990 + 7 * j + 1 for j in range(6)]
    points = [[0, f"1/{q}"] for q in qs]
    path = write(tmp_path, "tiny.json", json.dumps({"points": points}))
    assert main(["mean", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    num, den = doc["mean"][1].split("/")
    expected = sum((F(1, q) for q in qs), F(0)) / 6
    assert len(den) > 4300
    assert (_read_int(num), _read_int(den)) == (expected.numerator, expected.denominator)


def test_the_parser_is_built_once_and_shared(tmp_path, capsys, monkeypatch):
    import test_layout

    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recorded(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
    path = write(tmp_path, "pts.json", THREE_POINTS_DOC)
    assert main(["distance", path]) == 0
    assert main(["distance", path, "--pair", "2", "3"]) == 0
    assert capsys.readouterr().out == "9\n18\n"
    assert len(parsers) == 2
    assert parsers[0] is parsers[1] is _build_parser()
    # A usage error after good calls still exits 2 with argparse's message.
    with pytest.raises(SystemExit) as exc:
        main(["distance"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tropmean distance")
    assert "error: the following arguments are required: file" in err
    test_layout.test_readme_names_every_cli_flag()


# The benchmark's reference digests cover the fields every correct route
# reproduces bit for bit; the file is read as data.
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
ROUTE_INVARIANT = ("distances", "min_sum", "fm_polytrope", "tropical_vertices", "pseudovertices")


@pytest.mark.parametrize(
    "workload, n, m, rep",
    [
        ("mean-large", 8, 8, 1),
        ("mean-large", 8, 16, 2),
        ("mean-large", 10, 20, 1),
        ("mean-large", 12, 12, 2),
        ("mean-small", 3, 9, 5),
        ("mean-small", 4, 8, 17),
        ("mean-small", 5, 15, 2),
        ("mean-small", 6, 18, 24),
    ],
)
def test_mean_reproduces_the_benchmark_reference_digest(tmp_path, capsys, workload, n, m, rep):
    sample = _random_sample(0, n, m, rep)
    doc = {"points": [[str(v) for v in p] for p in sample]}
    assert main(["mean", write(tmp_path, "pts.json", json.dumps(doc))]) == 0
    out = json.loads(capsys.readouterr().out)
    fields = {key: out[key] for key in ROUTE_INVARIANT}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    digests = reference[workload][f"{n},{m}"]["digests"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == digests[rep - 1]
