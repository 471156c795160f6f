"""JSON and CSV formats for points, matrices, results and certificates.

Rationals travel as strings, "p/q" or plain "p" for integers, so no reader
ever sees a rounded value.  Decimal literals in input files are converted
exactly (0.2 becomes 1/5, not the nearest binary float).  Minus infinity in
matrix entries is encoded as JSON null.

Every number read, whether a string literal, a CSV cell or a bare JSON
number, is held to MAX_LITERAL_DIGITS digits in all (numerator, denominator,
decimal part and exponent together) and to a decimal exponent of at most
MAX_LITERAL_EXPONENT in absolute value.  The caps are checked on the text,
before any integer is built, so a literal such as 1e100000000 is refused at
once, and every number read stays well below Python's limit of 4,300
digits for converting an integer to text.  ``as_rational`` shares the check.

Points, matrix entries and certificate values are read by one coordinate
reader, ``_ratio``: a bare JSON integer or a plain ASCII "p" or "p/q"
literal goes straight to an integer pair, and every other form through
``parse_rational``.  ``load_points`` and ``matrix_from_json`` then put
their pairs over the lcm of the denominators, the sample as its common
denominator and integers, the matrix as its ``(den, rows)``.

Rationals are written by one routine, ``format_ratio``, from a numerator
and a positive denominator, and ``format_rational`` from a Fraction's two
integers.  Rows of integers over one denominator, a point's ``(den,
nums)``, a matrix's ``(den, rows)`` and the vertex columns over their
closure's denominator, are written by ``rows_to_json``, which formats each
distinct value once, so no Fraction is built to write a point, a matrix or
a vertex list.
"""

from __future__ import annotations

import io
import json
import re
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from . import core
from .certify import Certificate
from .core import SampleSet, TorusPoint, abbreviate, read_literal
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
        return read_literal(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_json(text: str) -> object:
    """A JSON document with its numbers read exactly and within the caps.

    Decimal numbers become Fractions, integers stay ints.
    """
    try:
        return json.loads(text, parse_float=parse_rational, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def _parse_int(text: str) -> int:
    # A literal no longer than the digit cap is within the caps.
    return int(text) if len(text) <= MAX_LITERAL_DIGITS else int(parse_rational(text))


def rows_to_json(den: int, rows: Sequence[Sequence[int | None]]) -> list[list[str | None]]:
    """Rows of integers over one denominator den > 0 as text, None as None;
    each distinct value is formatted once."""
    text: dict[int | None, str | None] = {
        v: format_ratio(v, den) for v in {v for row in rows for v in row} if v is not None
    }
    text[None] = None
    return [[text[v] for v in row] for row in rows]


def point_to_json(p: TorusPoint) -> list[str]:
    return rows_to_json(p.den, [p.nums])[0]


def matrix_to_json(c: PolytropeMatrix) -> dict[str, object]:
    return {"n": c.n, "entries": rows_to_json(c.den, c.rows)}


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
    return PolytropeMatrix(*_over_lcm(rows))


def certificate_to_json(cert: Certificate, sample: SampleSet) -> dict[str, object]:
    """Certificate as a self-contained proof document: the certified value,
    the point it is attained at and the weights, each with its piece's
    constant c = p_i - p_k written from the sample's integers.

    Sample and coordinate indices are 1-based here, matching how such
    proofs are written out by hand; in-memory objects stay 0-based.
    """
    weights = []
    for j, (entries, p) in enumerate(zip(cert.weights, sample.nums, strict=True)):
        pieces = [
            {
                "i": i + 1,
                "k": k + 1,
                "c": format_ratio(p[i] - p[k], sample.den),
                "w": format_rational(w),
            }
            for i, k, w in entries
        ]
        weights.append({"sample": j + 1, "pieces": pieces})
    return {
        "c_star": format_rational(cert.c_star),
        "point": point_to_json(cert.point),
        "weights": weights,
    }


def certificate_from_json(data: object, sample: SampleSet) -> Certificate:
    """A proof document's certificate for ``sample``; each constant c is
    checked against the sample's integers by cross-multiplying."""
    if not isinstance(data, dict) or not {"c_star", "point", "weights"} <= data.keys():
        raise ParseError("certificate JSON needs 'c_star', 'point' and 'weights'")
    raw = data["point"]
    if not isinstance(raw, list) or len(raw) != sample.n:
        raise ParseError(f"certificate 'point' must be an array of {sample.n} coordinates")
    den, (nums,) = _over_lcm([[_ratio(v) for v in raw]])
    point = TorusPoint(den, tuple(v - nums[0] for v in nums))
    groups = data["weights"]
    if not isinstance(groups, list) or len(groups) != sample.m:
        raise ParseError("certificate must carry one weight group per sample")
    by_sample: list[tuple[tuple[int, int, Fraction], ...]] = []
    for j, (group, p) in enumerate(zip(groups, sample.nums)):
        label = group.get("sample") if isinstance(group, dict) else None
        if isinstance(label, bool) or not isinstance(label, int) or label != j + 1:
            raise ParseError(f"weight group {j} must declare sample {j + 1}")
        items = group.get("pieces", [])
        if not isinstance(items, list):
            raise ParseError(f"the pieces of sample {j + 1} must be an array")
        entries = []
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
            entries.append((i, k, Fraction(*_ratio(item["w"]))))
        by_sample.append(tuple(entries))
    return Certificate(Fraction(*_ratio(data["c_star"])), tuple(by_sample), point)


def _piece_index(value: object, n: int) -> int:
    """A 1-based coordinate index of a certificate piece, as a 0-based int."""
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= n:
        raise ParseError(f"piece index {abbreviate(value)} is not an integer in 1..{n}")
    return value - 1


def result_to_json(
    result: FrechetResult,
    sample: SampleSet,
    den: int,
    tropical: Sequence[Sequence[int]],
    pseudo: Sequence[Sequence[int]],
) -> dict[str, object]:
    """A mean result for ``sample`` with the tropical vertices and
    pseudovertices of its mean polytrope, which the caller computes: integer
    columns over den, the closure's denominator."""
    vertices = rows_to_json(den, [*tropical, *pseudo])
    out: dict[str, object] = {
        "mean": point_to_json(result.mean),
        "distances": [format_rational(d) for d in result.distances],
        "min_sum": format_rational(result.min_sum),
        "fm_polytrope": matrix_to_json(result.fm_polytrope),
        "exact": result.exact,
        "tropical_vertices": vertices[: len(tropical)],
        "pseudovertices": vertices[len(tropical) :],
    }
    if result.certificate is not None:
        out["certificate"] = certificate_to_json(result.certificate, sample)
    return out


def load_points(text: str) -> SampleSet:
    """Parse an input document, JSON first, headerless CSV as fallback.

    JSON: {"points": [[...], ...]} with coordinates as "p/q" strings,
    integers, or decimal literals; any other key, such as an old "options"
    block, is ignored.  CSV: one point per row.  Coordinates are read as
    integer pairs and the sample is built on their common denominator.
    """
    stripped = text.lstrip()
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

        rows = []
        for lineno, record in enumerate(csv.reader(io.StringIO(text)), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            try:
                rows.append([_ratio(cell.strip()) for cell in record])
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        if not rows:
            raise ParseError("no data rows found")
    try:
        return SampleSet(*_over_lcm(rows))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _over_lcm(rows: list[list[tuple[int, int] | None]]) -> tuple[int, list[list[int | None]]]:
    """(den, nums): rows of (numerator, denominator) pairs or None, over the lcm den."""
    den = lcm(*(p[1] for row in rows for p in row if p is not None))
    return den, [[None if p is None else p[0] * (den // p[1]) for p in row] for row in rows]


# A plain ASCII "p" or "p/q" literal with a nonzero q.
_PLAIN_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def _ratio(value: object) -> tuple[int, int]:
    """One coordinate from a JSON scalar or CSV cell, exactly, as (numerator,
    denominator); a bare int or a plain literal is read directly."""
    if type(value) is int:
        return value, 1
    if type(value) is str and len(value) <= MAX_LITERAL_DIGITS:
        plain = _PLAIN_RATIONAL.fullmatch(value)
        if plain:
            return int(plain[1]), int(plain[2] or 1)
    if isinstance(value, bool):
        raise ParseError("booleans are not coordinates")
    if isinstance(value, (int, Fraction)):
        v = Fraction(value)
    elif isinstance(value, str):
        v = parse_rational(value)
    elif isinstance(value, float):
        # Floats only appear when a caller bypassed parse_float; refuse
        # rather than guess which decimal was meant.
        raise ParseError(f"refusing inexact float {value!r}; write it as a string")
    else:
        raise ParseError(f"cannot read coordinate {abbreviate(value)}")
    return v.numerator, v.denominator
