"""JSON and CSV formats for points, matrices, results and certificates.

Rationals travel as strings, "p/q" or plain "p" for integers, so no reader
ever sees a rounded value.  Decimal literals in input files are converted
exactly (0.2 becomes 1/5, not the nearest binary float).  Minus infinity in
matrix entries is encoded as JSON null.  Every JSON document is read by
one ``json.JSONDecoder``, built at import with the number hooks below.

Every number read, whether a string literal, a CSV cell or a bare JSON
number, is held to MAX_LITERAL_DIGITS digits in all (numerator, denominator,
decimal part and exponent together) and to a decimal exponent of at most
MAX_LITERAL_EXPONENT in absolute value.  The caps are checked on the text,
before any integer is built, so a literal such as 1e100000000 is refused at
once, and every number read stays well below Python's limit of 4,300
digits for converting an integer to text.  The caps are defined in
``core`` and named here beside the formats.

Points, matrix entries and certificate values are read by the library's one
reader of rational values, ``core.integer_ratio``: a bare JSON integer or a
plain ASCII "p" or "p/q" literal goes straight to an integer pair, and
every other string through ``read_literal``, as ``parse_rational`` reads
it.  ``_ratio`` and ``read_point``, which is ``core.canonicalize``, add only
the boundary that turns the library's TypeError or ValueError into a
ParseError with the same text.  ``load_points`` and ``matrix_from_json``
put their pairs over the lcm of the denominators through ``core.over_lcm``,
as the library constructors do: a sample's integers and a matrix's
``(den, rows)``; ``certificate_from_json`` puts each sample's weights over
theirs.

Rationals are written by one routine, ``format_ratio``, from a numerator
and a positive denominator, and ``format_rational`` from a Fraction's two
integers.  The documents the commands print, ``result_to_json``,
``polytrope_to_json`` and ``certificate_to_json``, are text written in one
pass, byte for byte as ``json.dumps(doc, indent=2)`` writes them.  Their
rows of integers over one denominator, points, matrices, vertex lists and
the polygon, go through one row writer, ``_rows``, and one table of quoted
text per denominator that the document's blocks share, so each distinct
value is formatted once and no Fraction is built to write them.  A
result's distances and minimum, over its ``den`` and ``den`` squared, and
a certificate's weights, over each sample's denominator, are written
through the same tables; ``format_ratio`` reduces each value by the gcd,
so its text is the Fraction's.
"""

from __future__ import annotations

import io
import json
from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from . import core
from .certify import Certificate
from .core import SampleSet, TorusPoint, abbreviate, canonicalize, integer_ratio, over_lcm
from .errors import ParseError
from .frechet import FrechetResult
from .polytrope import PolytropeMatrix


def format_rational(v: Fraction) -> str:
    return format_ratio(v.numerator, v.denominator)


def format_ratio(num: int, den: int) -> str:
    """num / den, den > 0, in lowest terms as "p" or "p/q"."""
    g = gcd(num, den)
    if g > 1:
        num, den = num // g, den // g
    if -_CHUNK < num < _CHUNK and den < _CHUNK:
        return str(num) if den == 1 else f"{num}/{den}"
    return _decimal(num) if den == 1 else f"{_decimal(num)}/{_decimal(den)}"


# Integers of at least _CHUNK_DIGITS digits are written chunk by chunk, so an
# output of any size stays below Python's limit on converting one integer.
_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(v: int) -> str:
    if -_CHUNK < v < _CHUNK:
        return str(v)
    rest, chunks = abs(v), []
    while rest:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(low)
    head = ("-" if v < 0 else "") + str(chunks.pop())
    return head + "".join(f"{c:0{_CHUNK_DIGITS}d}" for c in reversed(chunks))


# The literal caps, defined in ``core`` and named here beside the formats.
MAX_LITERAL_DIGITS = core.MAX_LITERAL_DIGITS
MAX_LITERAL_EXPONENT = core.MAX_LITERAL_EXPONENT


def parse_rational(text: str) -> Fraction:
    try:
        return core.read_literal(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_json(text: str) -> object:
    """A JSON document with its numbers read exactly and within the caps.

    Decimal numbers become Fractions, integers stay ints.  A leading
    byte-order mark is refused as ``json.loads`` refuses it.
    """
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def _parse_int(text: str) -> int:
    # A literal no longer than the digit cap is within the caps.
    return int(text) if len(text) <= MAX_LITERAL_DIGITS else int(parse_rational(text))


_DECODER = json.JSONDecoder(parse_float=parse_rational, parse_int=_parse_int)


def matrix_from_json(data: object) -> PolytropeMatrix:
    if not isinstance(data, dict) or "entries" not in data:
        raise ParseError("matrix JSON must be an object with an 'entries' key")
    entries = data["entries"]
    if not isinstance(entries, list):
        raise ParseError("matrix 'entries' must be a list of rows")
    n = data.get("n", len(entries))
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ParseError("matrix size n must be an integer of at least 2")
    if len(entries) != n:
        raise ParseError("matrix entry rows do not match declared size")
    rows = []
    for raw in entries:
        if not isinstance(raw, list) or len(raw) != n:
            raise ParseError("matrix rows must all have length n")
        rows.append([None if v is None else _ratio(v) for v in raw])
    return PolytropeMatrix(*over_lcm(rows))


def certificate_from_json(data: object, sample: SampleSet) -> Certificate:
    """A proof document's certificate for ``sample``; each constant c is
    checked against the sample's integers by cross-multiplying, and each
    sample's weights are put over the lcm of their denominators."""
    if not isinstance(data, dict) or not {"c_star", "point", "weights"} <= data.keys():
        raise ParseError("certificate JSON needs 'c_star', 'point' and 'weights'")
    raw = data["point"]
    if not isinstance(raw, list) or len(raw) != sample.n:
        raise ParseError(f"certificate 'point' must be an array of {sample.n} coordinates")
    point = read_point(raw)
    groups = data["weights"]
    if not isinstance(groups, list) or len(groups) != sample.m:
        raise ParseError("certificate must carry one weight group per sample")
    by_sample = []
    for j, (group, p) in enumerate(zip(groups, sample.nums)):
        label = group.get("sample") if isinstance(group, dict) else None
        if isinstance(label, bool) or not isinstance(label, int) or label != j + 1:
            raise ParseError(f"weight group {j} must declare sample {j + 1}")
        items = group.get("pieces", [])
        if not isinstance(items, list):
            raise ParseError(f"the pieces of sample {j + 1} must be an array")
        pairs, ws = [], []
        for item in items:
            if not isinstance(item, dict) or not {"i", "k", "c", "w"} <= item.keys():
                raise ParseError(f"a piece of sample {j + 1} must be an object with i, k, c and w")
            i, k = _piece_index(item["i"], sample.n), _piece_index(item["k"], sample.n)
            if i == k:
                raise ParseError(f"a piece of sample {j + 1} has i == k == {i + 1}")
            cn, cd = _ratio(item["c"])
            if cn * sample.den != (p[i] - p[k]) * cd:
                raise ParseError(
                    f"piece constant mismatch in sample {j + 1}: {abbreviate(item['c'])}"
                )
            pairs.append((i, k))
            ws.append(_ratio(item["w"]))
        wden, (wn,) = over_lcm([ws])
        by_sample.append((wden, tuple([(i, k, w) for (i, k), w in zip(pairs, wn)])))
    return Certificate(Fraction(*_ratio(data["c_star"])), by_sample, point)


def read_point(values: Sequence[object]) -> TorusPoint:
    """The canonical point of coordinates, by ``core.canonicalize``."""
    try:
        return canonicalize(values)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def _piece_index(value: object, n: int) -> int:
    """A 1-based coordinate index of a certificate piece, as a 0-based int."""
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= n:
        raise ParseError(f"piece index {abbreviate(value)} is not an integer in 1..{n}")
    return value - 1


class _Texts(dict):
    """The quoted JSON text of integers over one denominator, "null" for
    None, each value formatted on its first lookup."""

    def __init__(self, den: int) -> None:
        super().__init__({None: "null"})
        self.den = den

    def __missing__(self, v: int) -> str:
        text = self[v] = f'"{format_ratio(v, self.den)}"'
        return text


class _Tables(dict):
    """A document's ``_Texts``, one per denominator, so that its blocks over
    one denominator share their text."""

    def __missing__(self, den: int) -> _Texts:
        texts = self[den] = _Texts(den)
        return texts

    def rational(self, v: Fraction) -> str:
        return self[v.denominator][v.numerator]


# Each writer below returns one value of a document as ``json.dumps(doc,
# indent=2)`` writes it on a line that ``indent``, a newline and spaces,
# starts; the values inside it are written first, as text.
def _list(items: list[str], indent: str) -> str:
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


def _object(indent: str, **fields: str) -> str:
    """Each field's name, which needs no escaping, to its value's text."""
    inner = indent + "  "
    items = [f'"{k}": {v}' for k, v in fields.items()]
    return "{" + inner + ("," + inner).join(items) + indent + "}"


def _rows(texts: _Texts, rows: Sequence[Sequence[int | None]], indent: str) -> str:
    """Nonempty rows of integers over the denominator of ``texts``, None for
    -inf, as lists of "p/q" strings and nulls: one join per row over the
    table, and one over the rows with the text that closes a row and opens
    the next between them."""
    inner = indent + "  "
    item, text = inner + "  ", texts.__getitem__
    sep, between = "," + item, inner + "]," + inner + "[" + item
    body = between.join([sep.join(map(text, r)) for r in rows])
    return f"[{inner}[{item}{body}{inner}]{indent}]" if rows else "[]"


def _point(tables: _Tables, p: TorusPoint, indent: str) -> str:
    return _list(list(map(tables[p.den].__getitem__, p.nums)), indent)


def _matrix(tables: _Tables, c: PolytropeMatrix, indent: str) -> str:
    return _object(indent, n=str(c.n), entries=_rows(tables[c.den], c.rows, indent + "  "))


def _certificate(tables: _Tables, cert: Certificate, sample: SampleSet, indent: str) -> str:
    inner = indent + "  "
    group, at = inner + "  ", inner + "      "
    c, groups = tables[sample.den], []
    for j, ((den, entries), p) in enumerate(zip(cert.weights, sample.nums, strict=True)):
        w = tables[den]
        pieces = [
            _object(at, i=str(i + 1), k=str(k + 1), c=c[p[i] - p[k]], w=w[v])
            for i, k, v in entries
        ]
        groups.append(_object(group, sample=str(j + 1), pieces=_list(pieces, group + "  ")))
    return _object(
        indent,
        c_star=tables.rational(cert.c_star),
        point=_point(tables, cert.point, inner),
        weights=_list(groups, inner),
    )


def certificate_to_json(cert: Certificate, sample: SampleSet) -> str:
    """Certificate as a self-contained proof document: the certified value,
    the point it is attained at and the weights, each with its piece's
    constant c = p_i - p_k written from the sample's integers.

    Sample and coordinate indices are 1-based here, matching how such
    proofs are written out by hand; in-memory objects stay 0-based.
    """
    return _certificate(_Tables(), cert, sample, "\n")


def result_to_json(
    result: FrechetResult,
    sample: SampleSet,
    den: int,
    tropical: Sequence[Sequence[int]],
    pseudo: Sequence[Sequence[int]],
) -> str:
    """A mean result for ``sample`` with the tropical vertices and
    pseudovertices of its mean polytrope, which the caller computes: integer
    columns over den, the closure's denominator.  The certificate, when
    there is one, is written as ``certificate_to_json`` writes it."""
    tables, line, e = _Tables(), "\n  ", result.den
    fields = {
        "mean": _point(tables, result.mean, line),
        "distances": _list(list(map(tables[e].__getitem__, result.spreads)), line),
        "min_sum": tables[e * e][sum(v * v for v in result.spreads)],
        "fm_polytrope": _matrix(tables, result.fm_polytrope, line),
        "exact": "true" if result.exact else "false",
        "tropical_vertices": _rows(tables[den], tropical, line),
        "pseudovertices": _rows(tables[den], pseudo, line),
    }
    if result.certificate is not None:
        fields["certificate"] = _certificate(tables, result.certificate, sample, line)
    return _object("\n", **fields)


def polytrope_to_json(
    mat: PolytropeMatrix,
    star: PolytropeMatrix,
    tropical: Sequence[Sequence[int]],
    pseudo: Sequence[Sequence[int]],
    polygon: Sequence[Sequence[int]] | None,
) -> str:
    """A matrix with its closure ``star`` and the vertex lists and, for
    n = 3, the polygon (None otherwise) that the caller reads off it:
    integer rows over the closure's denominator."""
    tables, line = _Tables(), "\n  "
    texts = tables[star.den]
    fields = {
        "matrix": _matrix(tables, mat, line),
        "starred": _matrix(tables, star, line),
        "tropical_vertices": _rows(texts, tropical, line),
        "pseudovertices": _rows(texts, pseudo, line),
    }
    if polygon is not None:
        fields["polygon"] = _rows(texts, polygon, line)
    return _object("\n", **fields)


def load_points(text: str) -> SampleSet:
    """Parse an input document, JSON first, headerless CSV as fallback.

    JSON: {"points": [[...], ...]} with coordinates as "p/q" strings,
    integers, or decimal literals; any other key, such as an old "options"
    block, is ignored, and a leading byte-order mark refused.  CSV: one point
    per row.  Coordinates are read as integer pairs over one denominator.
    """
    stripped = text.removeprefix("\ufeff").lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        doc = parse_json(text)
        if isinstance(doc, list):
            doc = {"points": doc}
        if not isinstance(doc, dict) or "points" not in doc:
            raise ParseError("JSON input must carry a 'points' array")
        raw = doc["points"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("'points' must be a nonempty array")
        rows = []
        for idx, row in enumerate(raw):
            if not isinstance(row, list):
                raise ParseError(f"point {idx} is not an array")
            rows.append([_ratio(v) for v in row])
    else:
        import csv  # here, so that JSON input and the other commands skip it

        # A record may span lines; an error names the first line of the
        # record being read, the line after those the reader has consumed.
        reader = csv.reader(io.StringIO(text))
        rows, lineno = [], 1
        try:
            for record in reader:
                if record and any(cell.strip() for cell in record):
                    rows.append([_ratio(cell.strip()) for cell in record])
                lineno = reader.line_num + 1
        except (ParseError, csv.Error) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not rows:
            raise ParseError("no data rows found")
    try:
        return SampleSet(*over_lcm(rows))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _ratio(value: object) -> tuple[int, int]:
    """One coordinate from a JSON scalar or CSV cell, exactly, as (numerator,
    denominator), by ``core.integer_ratio``."""
    try:
        return integer_ratio(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
