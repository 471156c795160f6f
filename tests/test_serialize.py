"""Wire formats: rational strings, JSON documents, CSV ingestion."""

import json
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmean import (
    NEG_INF,
    Certificate,
    ParseError,
    PolytropeMatrix,
    SampleSet,
    TorusPoint,
    as_rational,
    canonicalize,
    exact_frechet,
    find_certificate,
)
from tropmean import serialize
from tropmean.core import integer_ratio, read_literal
from tropmean.serialize import (
    MAX_LITERAL_DIGITS,
    MAX_LITERAL_EXPONENT,
    certificate_from_json,
    certificate_to_json,
    format_rational,
    load_points,
    matrix_from_json,
    parse_rational,
    read_point,
    result_to_json,
)
from support import (
    mixed_sample,
    reference_average,
    reference_canonicalize,
    reference_load_points,
    reference_matrix_from_json,
    reference_matrix_to_json,
    reference_point_to_json,
)

F = Fraction


def test_rational_strings_round_trip():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-7, 2)) == "-7/2"
    assert parse_rational("22/7") == F(22, 7)
    assert parse_rational(" -4 ") == F(-4)
    assert parse_rational("2.5") == F(5, 2)


def test_parse_rational_failures():
    with pytest.raises(ParseError):
        parse_rational("one half")
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_parse_rational_caps_digits_and_exponent():
    for text in ("1e4400", "1e100000", "7" * 5000, "1/" + "3" * 5000, "2.5E-4400"):
        with pytest.raises(ParseError):
            parse_rational(text)
    with pytest.raises(ParseError, match="digits"):
        parse_rational("1" * (MAX_LITERAL_DIGITS + 1))
    assert parse_rational("1" * MAX_LITERAL_DIGITS) == F(int("1" * MAX_LITERAL_DIGITS))
    with pytest.raises(ParseError, match="exponent"):
        parse_rational(f"1e{MAX_LITERAL_EXPONENT + 1}")
    assert parse_rational(f"-1e{MAX_LITERAL_EXPONENT}") == -F(10) ** MAX_LITERAL_EXPONENT
    assert parse_rational(f"1E-{MAX_LITERAL_EXPONENT}") == F(1, 10**MAX_LITERAL_EXPONENT)
    # the literal forms the bench generator and the README use still parse
    assert parse_rational("-12/5") == F(-12, 5)
    assert parse_rational("0.5e3") == F(500)
    # an underscore is read by Python 3.11's Fraction and not by 3.10's
    with pytest.raises(ParseError, match="not a rational"):
        parse_rational("1_000")


def test_load_points_caps_bare_json_numbers():
    huge = "7" * 5000
    for doc in (
        '{"points": [[%s, 1], [0, 0]]}' % huge,
        '{"points": [[1e4400, 1], [0, 0]]}',
        '[["1e100000", 1], [0, 0]]',
        '{"points": [[0, 1], [0, 0]], "options": {"max_iter": %s}}' % huge,
    ):
        with pytest.raises(ParseError):
            load_points(doc)
    with pytest.raises(ParseError):
        load_points("%s,1\n0,0\n" % huge)
    s = load_points('{"points": [["-12/5", 3], [2.5e2, -40]]}')
    assert s[0].coords == (F(0), F(27, 5))
    assert s[1].coords == (F(0), F(-290))


def test_matrix_round_trip_with_bottom_entries():
    mat = PolytropeMatrix.from_rows(
        [
            [F(0), F(1), NEG_INF],
            [F(-4), F(0), F(5, 2)],
            [NEG_INF, F(3), F(0)],
        ]
    )
    doc = json.loads(serialize._matrix(serialize._Tables(), mat, "\n"))
    assert doc["entries"][0][2] is None
    back = matrix_from_json(doc)
    assert back.entries == mat.entries


def test_matrix_json_validation():
    with pytest.raises(ParseError):
        matrix_from_json({"n": 2})
    with pytest.raises(ParseError):
        matrix_from_json({"n": 2, "entries": [["0", "1"]]})
    with pytest.raises(ParseError):
        matrix_from_json({"entries": [["0"], ["1", "2"]]})


def test_certificate_round_trip_uses_one_based_indices():
    s = SampleSet.from_rows([(-3, 0, 0), (0, -6, 0), (0, 0, -12)])
    cert = find_certificate(s, canonicalize([0, 0, -1]))
    doc = json.loads(certificate_to_json(cert, s))
    assert doc["c_star"] == "186"
    assert [g["sample"] for g in doc["weights"]] == [1, 2, 3]
    for group in doc["weights"]:
        for item in group["pieces"]:
            assert 1 <= item["i"] <= 3 and 1 <= item["k"] <= 3
    back = certificate_from_json(doc, s)
    assert back == cert


def test_certificate_json_needs_its_point():
    """The point is read like any coordinate and canonicalized; a document
    without it, or with the wrong number of coordinates, is refused."""
    s = SampleSet.from_rows([(-3, 0, 0), (0, -6, 0), (0, 0, -12)])
    cert = find_certificate(s, canonicalize([0, 0, -1]))
    doc = json.loads(certificate_to_json(cert, s))
    assert doc["point"] == ["0", "0", "-1"]
    shifted = dict(doc, point=["1/2", "0.5", "-1/2"])
    assert certificate_from_json(shifted, s) == cert
    for point in (None, ["0", "0"], ["0", "0", "-1", "0"], "0,0,-1", ["0", "x", "1"]):
        bad = dict(doc, point=point)
        if point is None:
            del bad["point"]
        with pytest.raises(ParseError):
            certificate_from_json(bad, s)


def test_certificate_json_rejects_mismatched_constants():
    s = SampleSet.from_rows([(0, 0, 0), (0, 1, 2)])
    result = exact_frechet(s)
    doc = json.loads(certificate_to_json(result.certificate, s))
    doc["weights"][0]["pieces"][0]["c"] = "999"
    with pytest.raises(ParseError):
        certificate_from_json(doc, s)


def test_certificate_constants_are_read_off_the_sample():
    """On samples over mixed denominators, whose ``den`` is mostly neither 1
    nor the common denominator e of the program, each written constant is
    p_i - p_k of its sample and the document reads back equal; a constant
    written unreduced is accepted, one off by 1/(2 den) is refused, and a
    certificate with one weight group fewer than its sample is not written."""
    rng = Random("serialize:constants")
    apart = 0
    for _ in range(40):
        s = mixed_sample(rng, rng.randint(2, 5), rng.randint(1, 6))
        cert = exact_frechet(s).certificate
        doc = json.loads(certificate_to_json(cert, s))
        for group, p in zip(doc["weights"], s):
            for item in group["pieces"]:
                assert item["c"] == format_rational(p[item["i"] - 1] - p[item["k"] - 1])
        assert certificate_from_json(doc, s) == cert
        piece = doc["weights"][-1]["pieces"][-1]
        c = F(piece["c"])
        piece["c"] = f"{2 * c.numerator}/{2 * c.denominator}"
        assert certificate_from_json(doc, s) == cert
        piece["c"] = format_rational(c + F(1, 2 * s.den))
        with pytest.raises(ParseError, match="piece constant mismatch"):
            certificate_from_json(doc, s)
        with pytest.raises(ValueError):
            certificate_to_json(Certificate(cert.c_star, cert.weights[:-1], cert.point), s)
        apart += s.den not in (1, lcm(s.den, reference_average(s).den))
    assert apart >= 20


@pytest.mark.parametrize("group, label", [(0, True), (1, 2.0), (2, "3"), (0, None)])
def test_certificate_json_reads_sample_labels_as_integers(group, label):
    """A weight group's ``sample`` is read like a piece index: ``true`` is
    not 1 and ``2.0`` is not 2, though they compare equal in Python."""
    s = SampleSet.from_rows([(-3, 0, 0), (0, -6, 0), (0, 0, -12)])
    doc = json.loads(certificate_to_json(find_certificate(s, canonicalize([0, 0, -1])), s))
    doc["weights"][group]["sample"] = label
    with pytest.raises(ParseError, match=f"weight group {group} must declare sample {group + 1}"):
        certificate_from_json(doc, s)


def test_result_document_shape():
    s = SampleSet.from_rows([(0, 0, 0), (0, 1, 2)])
    result = exact_frechet(s)
    tverts = [(0, 0, 1), (0, 1, 1)]
    text = result_to_json(result, s, 1, tverts, tverts[::-1])
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2)
    assert doc["min_sum"] == "2"
    assert doc["exact"] is True
    assert doc["mean"] == reference_point_to_json(result.mean)
    assert doc["distances"] == ["1", "1"]
    assert doc["tropical_vertices"] == [["0", "0", "1"], ["0", "1", "1"]]
    assert doc["pseudovertices"] == [["0", "1", "1"], ["0", "0", "1"]]
    assert "certificate" in doc


def test_load_points_json_forms():
    s = load_points('{"points": [[0, 1], ["1/2", 3]]}')
    assert s.m == 2 and s.n == 2
    assert s[1] == canonicalize([F(1, 2), F(3)])
    # keys other than "points", an options block included, are ignored
    with_options = '{"points": [[0, 1], ["1/2", 3]], "options": {"tol": "1/9", "max_iter": "x"}}'
    assert load_points(with_options) == s
    s = load_points("[[0, 1], [2, 3]]")
    assert s.m == 2


def test_load_points_decimals_are_exact():
    s = load_points('{"points": [[0, 0.1], [0, 0.2]]}')
    assert s[0].coords == (F(0), F(1, 10))
    assert s[1].coords == (F(0), F(1, 5))


def test_load_points_csv():
    s = load_points("0, 1, 2\n\n3, 4, 5\n")
    assert s.m == 2
    assert s[1] == canonicalize([3, 4, 5])
    s = load_points("1/2,0\n-3,0.25\n")
    assert s[1] == canonicalize([F(-3), F(1, 4)])


def test_load_points_error_positions():
    with pytest.raises(ParseError, match="line 1"):
        load_points('{"points": [[0, 1]')
    with pytest.raises(ParseError, match="line 2"):
        load_points("0,1\n0,x\n")
    with pytest.raises(ParseError):
        load_points('{"values": [[0, 1]]}')
    with pytest.raises(ParseError):
        load_points('{"points": []}')
    with pytest.raises(ParseError):
        load_points("")
    with pytest.raises(ParseError):
        load_points('{"points": [[0, 1], [0, 1, 2]]}')
    with pytest.raises(ParseError):
        load_points('{"points": [[true, false]]}')


@pytest.mark.parametrize("text", ['\ufeff{"points": [[0, 1]]}', "\ufeff [[0, 1]]"])
def test_load_points_refuses_a_byte_order_mark_before_json(text):
    """A caller's text that starts with a BOM is JSON that ``parse_json``
    refuses by name, not a CSV whose first field is not a rational."""
    with pytest.raises(ParseError) as info:
        load_points(text)
    assert str(info.value) == (
        "line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    )


def _lax(i):
    """What ``int(i) - 1`` made of an index, with the matching piece
    constant, so that only the index check can refuse the piece."""

    def change(piece, p):
        a = int(i) - 1
        piece.update(i=i, c=str(p[a] - p[piece["k"] - 1]))

    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda piece, p: piece.pop("i"), "a piece of sample 1 must be an object with i, k, c and w"),
        (lambda piece, p: piece.update(i="x"), "piece index 'x' is not an integer in 1..3"),
        (lambda piece, p: piece.update(i=9), "piece index 9 is not an integer in 1..3"),
        (_lax(0), "piece index 0 is not an integer in 1..3"),
        (_lax(-1), "piece index -1 is not an integer in 1..3"),
        (_lax(2.5), "piece index 2.5 is not an integer in 1..3"),
        (_lax(Fraction(5, 2)), "piece index Fraction(5, 2) is not an integer in 1..3"),
        (_lax(True), "piece index True is not an integer in 1..3"),
        (lambda piece, p: piece.update(i=piece["k"], c="0"), "a piece of sample 1 has i == k == 3"),
        ("string piece", "a piece of sample 1 must be an object with i, k, c and w"),
        ("pieces not a list", "the pieces of sample 1 must be an array"),
        ("one group fewer", "certificate must carry one weight group per sample"),
    ],
    ids=[
        "missing-i", "text-i", "i-past-n", "i-zero", "i-negative", "float-i",
        "fraction-i", "bool-i", "i-equals-k", "string-piece", "pieces-object",
        "group-missing",
    ],
)
def test_certificate_json_rejects_malformed_pieces(change, message):
    s = SampleSet.from_rows([(-3, 0, 0), (0, -6, 0), (0, 0, -12)])
    doc = json.loads(certificate_to_json(find_certificate(s, canonicalize([0, 0, -1])), s))
    group = doc["weights"][0]
    if change == "string piece":
        group["pieces"][0] = "i=1,k=2"
    elif change == "pieces not a list":
        group["pieces"] = {"i": 1}
    elif change == "one group fewer":
        doc["weights"].pop()
    else:
        change(group["pieces"][0], s[0])
    with pytest.raises(ParseError) as caught:
        certificate_from_json(doc, s)
    assert str(caught.value) == message


def _written(rng):
    """A random rational and one way a caller or a document writes it: an
    int, a Fraction, an unreduced "p/q" string or a decimal string."""
    kind = rng.randrange(4)
    if kind == 0:
        v = rng.randint(-20, 20)
        return Fraction(v), v
    if kind == 1:
        v = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        return v, v
    if kind == 2:
        t, q = rng.randint(2, 5), rng.randint(1, 12)
        text = f"{rng.randint(-40, 40) * t}/{q * t}"
    else:
        text = f"{rng.choice(['', '-'])}{rng.randint(0, 9)}.{rng.randint(0, 999):03d}"
    return Fraction(text), text


def _json_text(w, bare):
    """A written rational in a JSON document: ints bare, a decimal bare when
    ``bare`` holds, and every other form as a string."""
    if isinstance(w, int) or (bare and isinstance(w, str) and "." in w):
        return str(w)
    return json.dumps(str(w))


def test_library_constructors_and_document_readers_agree():
    """On seeded samples and matrices written as ints, Fractions, unreduced
    "p/q" strings and decimals, with first coordinates mostly nonzero, the
    library constructors and the document readers build equal values, and
    the values of the Fraction route: a sample from its rows, a JSON
    document and a CSV one, a point by ``canonicalize`` and ``read_point``,
    and a matrix from Fractions and ``NEG_INF`` and from a document with
    null."""
    rng = Random("serialize:routes")
    for _ in range(200):
        n, m = rng.randint(2, 6), rng.randint(1, 8)
        rows = [[_written(rng) for _ in range(n)] for _ in range(m)]
        written = [[w for _, w in row] for row in rows]
        bare = rng.random() < 0.5
        points = ", ".join("[" + ", ".join(_json_text(w, bare) for w in r) + "]" for r in written)
        csv_text = "\n".join(",".join(map(str, row)) for row in written)
        sample = SampleSet.from_rows(written)
        assert sample == load_points('{"points": [%s]}' % points) == load_points(csv_text)
        assert [p.coords for p in sample] == [reference_canonicalize(v for v, _ in r) for r in rows]
        assert [canonicalize(row) for row in written] == [read_point(row) for row in written]
        entries = [
            [(NEG_INF, None) if rng.random() < 0.2 else _written(rng) for _ in range(n)]
            for _ in range(n)
        ]
        mat = PolytropeMatrix.from_rows([[v for v, _ in row] for row in entries])
        texts = [[w if w is None or isinstance(w, int) else str(w) for _, w in r] for r in entries]
        assert mat == matrix_from_json({"entries": texts})
        assert mat.entries == tuple(tuple(v for v, _ in row) for row in entries)


# Literals the fast read takes (plain ASCII "p" and "p/q", signs, leading
# zeros) and every form it must hand to parse_rational unchanged.
_digits = st.text("0123456789", min_size=1, max_size=5)
_sign = st.sampled_from(["", "-", "+"])
_plain = st.one_of(
    st.builds("{}{}".format, _sign, _digits),
    st.builds("{}{}/{}".format, _sign, _digits, st.integers(1, 10**5)),
)
_literal = st.one_of(
    _plain,
    _plain,
    st.builds(" {} ".format, _plain),
    st.sampled_from(
        ["1_000", "2.5", "-0.125", ".5", "1e2", "2.5E-1", "-1e-3", "\u0663", "\u0661/\u0662",
         "1/0", "-3/00", "1/", "/2", "1//2", "--1", "1/-2", "0x10", "x", "", " ", "nan", "inf",
         "7" * 1001, "1/" + "3" * 999, "1e1001"]
    ),
)
_json_cell = st.one_of(
    st.builds(json.dumps, _literal),
    st.builds(str, st.integers(-(10**20), 10**20)),
    st.sampled_from(["2.5", "-0.0", "1E3", "true", "false", "null", "[1]", "{}"]),
)


@st.composite
def _plain_literals(draw):
    """A plain "p" or "p/q" literal, signed or not, with leading zeros, an
    unreduced fraction, or padded with zeros to a length up to one past the
    digit cap."""
    sign, text = draw(_sign), draw(_digits)
    if draw(st.booleans()):
        t, zeros = draw(st.integers(1, 12)), draw(st.sampled_from(["", "0", "00"]))
        text = f"{draw(st.integers(0, 99)) * t}/{zeros}{draw(st.integers(1, 12)) * t}"
    if draw(st.booleans()):
        length = draw(st.integers(MAX_LITERAL_DIGITS - 2, MAX_LITERAL_DIGITS + 1))
        text = text.rjust(length - len(sign), "0")
    return sign + text


@settings(max_examples=300, deadline=None)
@given(st.one_of(_plain_literals(), _literal))
def test_integer_ratio_reads_the_literals_read_literal_reads(text):
    """The plain read of ``integer_ratio`` and ``read_literal`` give one
    value for every literal, or refuse it with one ValueError line."""
    try:
        expected = read_literal(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            integer_ratio(text)
        assert str(refused.value) == str(exc)
    else:
        num, den = integer_ratio(text)
        assert den > 0 and Fraction(num, den) == expected


@pytest.mark.parametrize(
    "value",
    [True, 0.5, None, [1], {}, "x", "7" * (MAX_LITERAL_DIGITS + 1)],
    ids=["bool", "float", "none", "list", "dict", "text", "over-cap"],
)
def test_library_and_documents_refuse_a_value_with_one_line(value):
    """``as_rational`` raises TypeError for a value that is not an int, a
    Fraction or a string and ValueError for a malformed string, with the
    text of the ParseError a document reader raises for it, and of the
    line ``load_points`` gives for it in a points document."""
    with pytest.raises(ValueError if isinstance(value, str) else TypeError) as library:
        as_rational(value)
    with pytest.raises(ParseError) as document:
        serialize._ratio(value)
    assert str(document.value) == str(library.value)
    if not isinstance(value, float):
        with pytest.raises(ParseError) as loaded:
            load_points('{"points": [[0, %s], [1, 2]]}' % json.dumps(value))
        assert str(loaded.value) == str(library.value)


@st.composite
def _documents(draw):
    """A JSON or CSV points document.  Most rows share one width, and half
    the documents draw only from the literals the fast read takes."""
    width = draw(st.integers(2, 4))
    widths = draw(st.lists(st.sampled_from([width] * 24 + [0, 1, 5]), min_size=1, max_size=5))
    clean = draw(st.booleans())
    if draw(st.booleans()):
        bare = st.builds(str, st.integers(-(10**20), 10**20))
        cell = st.one_of(st.builds(json.dumps, _plain), bare) if clean else _json_cell
        rows = [draw(st.lists(cell, min_size=k, max_size=k)) for k in widths]
        points = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
        return points if draw(st.booleans()) else '{"points": %s}' % points
    cell = _plain if clean else _literal
    rows = [draw(st.lists(cell, min_size=k, max_size=k)) for k in widths]
    return "\n".join(",".join(row) for row in rows) + draw(st.sampled_from(["", "\n"]))


def _outcome(load, text):
    try:
        return load(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_load_points_matches_the_fraction_route(text):
    """The integer read accepts what the Fraction route accepts, builds the
    same points and the same integers, and fails with the same text."""
    got = _outcome(load_points, text)
    expected = _outcome(reference_load_points, text)
    if isinstance(expected, str):
        assert got == expected
    else:
        sample, scaled = expected
        assert not isinstance(got, str), got
        assert (got.points, (got.den, got.nums)) == (sample.points, scaled)


# Matrix cells of every kind a document can hold: bare ints, literals,
# decimals as parse_json reads them, null, and values no reader may take.
_matrix_cell = st.one_of(
    st.integers(-(10**20), 10**20),
    _literal,
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.none(),
    st.booleans(),
    st.floats(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@st.composite
def _matrix_documents(draw):
    """A matrix document, mostly square, half of them from well-formed cells
    only, with an ``n`` that is sometimes wrong."""
    n = draw(st.integers(2, 4))
    clean = st.one_of(st.integers(-50, 50), _plain, st.none())
    cell = clean if draw(st.booleans()) else _matrix_cell
    widths = draw(st.lists(st.sampled_from([n] * 12 + [n - 1, n + 1]), min_size=n, max_size=n))
    doc = {"entries": [draw(st.lists(cell, min_size=k, max_size=k)) for k in widths]}
    if draw(st.booleans()):
        doc["n"] = draw(st.sampled_from([n, n, n, n + 1, 1, True, "2"]))
    return doc


@settings(max_examples=300, deadline=None)
@given(_matrix_documents())
def test_matrix_from_json_matches_the_fraction_route(doc):
    """The integer read of a matrix document accepts what reading every
    entry to a Fraction accepts, builds the same matrix, and fails with the
    same text."""
    got = _outcome(matrix_from_json, doc)
    expected = _outcome(reference_matrix_from_json, doc)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert (got, got.entries) == (expected, expected.entries)


# Integers of 1,000 to 1,500 digits, where the chunked writer runs.
_long = st.integers(10**999, 10**1500 - 1)
_numerators = st.one_of(st.integers(-60, 60), _long, _long.map(lambda v: -v))
_denominators = st.one_of(st.just(1), st.integers(1, 60), _long)


@st.composite
def _numerator_grids(draw):
    """An n x n grid of numerators and None, n from 2 to 4."""
    n = draw(st.integers(2, 4))
    cell = st.one_of(_numerators, st.none())
    return [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(_denominators, _numerator_grids())
def test_points_and_matrices_render_as_by_the_fraction_route(den, rows):
    """The writer writes a point's or a matrix's integers as ``json.dumps``
    writes the strings that formatting each Fraction gave, which are
    Python's own text for it: negative values, den 1, None entries and
    integers past the chunk size alike."""
    c = PolytropeMatrix(den, rows)
    expected = reference_matrix_to_json(c)
    assert serialize._matrix(serialize._Tables(), c, "\n") == json.dumps(expected, indent=2)
    p = TorusPoint(den, (0, *(0 if v is None else v for v in rows[0][1:])))
    expected = reference_point_to_json(p)
    assert serialize._point(serialize._Tables(), p, "\n") == json.dumps(expected, indent=2)

