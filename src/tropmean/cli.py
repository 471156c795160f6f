"""Command-line front end.

Five subcommands: ``distance``, ``mean``, ``polytrope``, ``certify`` and
``bench``.  ``mean`` runs ``exact_frechet`` and ``bench`` times it on
seeded random samples; ``certify --point`` accepts a point whose objective
equals the exact mean's certified minimum.  ``mean`` and ``polytrope`` read
both vertex lists of their mean or input polytrope off one closure, which
``kleene_star`` keeps on the matrix, as integer columns over its
denominator.
Input is read as bytes, a file's with ``os.read`` and no buffered file
object, and decoded as UTF-8, from a file or stdin alike.
``argparse`` parses only each command's shape, its flags, arguments and
their counts, and keeps its usage error for a fault there.  The handlers
read the flag values, before any file or output, with the documents'
readers: ``--point`` by ``read_point`` on its comma-separated fields, and
each integer flag by ``parse_rational``.  A bad value is a ParseError whose
one line names the flag.
Results go to stdout as JSON (CSV for bench, one line for distance),
diagnostics to stderr; each JSON document is the text ``serialize``
writes for it, ``result_to_json``, ``polytrope_to_json`` or
``certificate_to_json``, and a newline.  Exit codes: 0 success,
1 stdout closed by its reader, 2 malformed or unusable input, 3 a point
that fails optimality certification, a mean that could not be certified,
or an ``InternalError``, a broken invariant such as the mean's weights
failing at a point of equal objective, with one stderr line saying why.
``mean`` alone prints an uncertified mean, the average, before its exit 3;
``polytrope FILE``, ``certify`` and ``bench`` refuse it through
``FrechetResult.certified``, ``bench`` after the rows before it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from collections.abc import Sequence

from .core import SampleSet, abbreviate, trop_dist
from .errors import EmptyPolytrope, InternalError, NotOptimal, ParseError, Unbounded
from .frechet import exact_frechet, find_certificate
from .polytrope import kleene_star, pseudovertices, tropical_vertices
from .serialize import (
    certificate_to_json,
    format_rational,
    load_points,
    matrix_from_json,
    parse_json,
    parse_rational,
    polytrope_to_json,
    read_point,
    result_to_json,
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so the flush at exit
        # cannot fail again, and end quietly.  A BrokenPipeError is an
        # OSError, so this handler comes first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, OSError, EmptyPolytrope, Unbounded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotOptimal as exc:
        print(f"not optimal: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="tropmean",
        description="Exact Fréchet means and mean polytropes under the tropical metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("distance", help="tropical distance between two sample points")
    p_dist.add_argument("file", help="points file (JSON or CSV), '-' for stdin")
    p_dist.add_argument(
        "--pair",
        nargs=2,
        default=("1", "2"),
        metavar=("A", "B"),
        help="1-based indices of the two points (default: 1 2)",
    )
    p_dist.set_defaults(handler=_cmd_distance)

    p_mean = sub.add_parser("mean", help="Fréchet mean and FM polytrope")
    p_mean.add_argument("file", help="points file (JSON or CSV), '-' for stdin")
    p_mean.set_defaults(handler=_cmd_mean)

    p_poly = sub.add_parser("polytrope", help="h-description, vertices and plot data")
    p_poly.add_argument("file", nargs="?", help="points file; omit when using --matrix")
    p_poly.add_argument("--matrix", help="polytrope matrix JSON file instead of points")
    p_poly.set_defaults(handler=_cmd_polytrope)

    p_cert = sub.add_parser("certify", help="optimality certificate for a point")
    p_cert.add_argument("file", help="points file (JSON or CSV), '-' for stdin")
    p_cert.add_argument("--point", required=True, help="point as 'a,b,c'")
    p_cert.set_defaults(handler=_cmd_certify)

    p_bench = sub.add_parser("bench", help="timing grid over random samples")
    p_bench.add_argument("--dims", default="5,10,15,20")
    p_bench.add_argument("--multipliers", default="1,2,3")
    p_bench.add_argument("--reps", default="10")
    p_bench.add_argument("--seed", default="0")
    p_bench.add_argument(
        "--no-timing",
        action="store_true",
        help="leave the timing column empty for byte-reproducible output",
    )
    p_bench.set_defaults(handler=_cmd_bench)
    return parser


def _read_text(path: str) -> str:
    """The bytes of a file, or of stdin for '-', decoded as UTF-8 whatever
    the locale, without one leading byte-order mark, with "\r\n" and "\r"
    read as "\n" as text mode reads them."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        fd = os.open(path, os.O_RDONLY)
        try:
            data = b"".join(iter(functools.partial(os.read, fd, 1 << 16), b""))
        except OSError as exc:  # a directory opens, and its read names no file
            raise OSError(exc.errno, exc.strerror, path) from None
        finally:
            os.close(fd)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise ParseError(f"{name}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def _integers(flag: str, texts: Sequence[str], low: int | None = None) -> list[int]:
    """A flag's values, each read by ``parse_rational`` as a document's
    literal is and held to be an integer, of at least ``low`` if given."""
    values = []
    for text in texts:
        try:
            value = parse_rational(text)
        except ParseError as exc:
            raise ParseError(f"{flag}: {exc}") from None
        if value.denominator != 1 or low is not None and value < low:
            bound = "" if low is None else f" of at least {low}"
            raise ParseError(f"{flag}: {abbreviate(text)} is not an integer{bound}")
        values.append(value.numerator)
    return values


def _cmd_distance(args: argparse.Namespace) -> int:
    a, b = _integers("--pair", args.pair, 1)
    sample = load_points(_read_text(args.file))
    if max(a, b) > sample.m:
        raise ParseError(f"--pair: point indices must be in 1..{sample.m}")
    d = trop_dist(sample[a - 1], sample[b - 1])
    line = format_rational(d)
    if d.denominator != 1:
        try:
            line += f" (= {float(d):.6g})"
        except OverflowError:
            pass
    print(line)
    return 0


def _cmd_mean(args: argparse.Namespace) -> int:
    sample = load_points(_read_text(args.file))
    result = exact_frechet(sample)
    fm = result.fm_polytrope
    den = kleene_star(fm).den
    print(result_to_json(result, sample, den, tropical_vertices(fm), pseudovertices(fm)))
    if result.exact:
        return 0
    print(f"mean not certified: {result.reason}", file=sys.stderr)
    return 3


def _cmd_polytrope(args: argparse.Namespace) -> int:
    if (args.matrix is None) == (args.file is None):
        raise ParseError("give either a points file or --matrix, not both or neither")

    if args.matrix is not None:
        mat = matrix_from_json(parse_json(_read_text(args.matrix)))
    else:
        mat = exact_frechet(load_points(_read_text(args.file))).certified().fm_polytrope

    star = kleene_star(mat)
    tropical, pverts = tropical_vertices(mat), pseudovertices(mat)
    polygon = _polygon_ccw(pverts) if mat.n == 3 else None
    print(polytrope_to_json(mat, star, tropical, pverts, polygon))
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    try:
        point = read_point(args.point.split(","))
    except ParseError as exc:
        raise ParseError(f"--point: {exc}") from None
    sample = load_points(_read_text(args.file))
    if point.dim != sample.n:
        raise ParseError(f"--point has {point.dim} coordinates, the points have {sample.n}")
    print(certificate_to_json(find_certificate(sample, point), sample))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    dims = _integers("--dims", args.dims.split(","), 2)
    multipliers = _integers("--multipliers", args.multipliers.split(","), 1)
    (reps,) = _integers("--reps", [args.reps], 1)
    (seed,) = _integers("--seed", [args.seed])
    print("n,m,rep,mean_time_ms,objective")
    for n in dims:
        for mult in multipliers:
            m = mult * n
            for rep in range(1, reps + 1):
                sample = _random_sample(seed, n, m, rep)
                t0 = time.perf_counter()
                result = exact_frechet(sample).certified()
                elapsed_ms = (time.perf_counter() - t0) * 1000.0
                cell = "" if args.no_timing else f"{elapsed_ms:.3f}"
                print(f"{n},{m},{rep},{cell},{format_rational(result.min_sum)}")
    return 0


def _random_sample(seed: int, n: int, m: int, rep: int) -> SampleSet:
    """Deterministic sample: integers uniform in [-10n, 10n] over 5.

    The generator is Python's Mersenne Twister seeded with the string
    "seed:n:m:rep", which CPython hashes stably, so output is identical
    across processes and platforms.
    """
    from random import Random  # here, so that no other command imports it

    rng = Random(f"{seed}:{n}:{m}:{rep}")
    return SampleSet(5, [[rng.randint(-10 * n, 10 * n) for _ in range(n)] for _ in range(m)])


def _polygon_ccw(points: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Pseudovertices as 2D coordinates (x2-x1, x3-x1), counterclockwise from
    the lexicographically smallest: the points on or below the chord from it to
    the largest left to right, then the points above the chord right to left.
    The points are canonical integer columns over one denominator, and the
    coordinates are their last two entries, over the same denominator."""
    pts = sorted((p[1], p[2]) for p in points)
    if len(pts) >= 3:
        (ax, ay), (bx, by) = pts[0], pts[-1]
        side = [(bx - ax) * (v - ay) - (by - ay) * (u - ax) for u, v in pts]
        below = [p for p, s in zip(pts, side) if s <= 0]
        above = [p for p, s in zip(pts, side) if s > 0]
        pts = below + above[::-1]
    return pts
