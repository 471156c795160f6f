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
Results go to stdout as JSON (CSV for bench, one line for distance),
diagnostics to stderr; each JSON document is the text ``serialize``
writes for it, ``result_to_json``, ``polytrope_to_json`` or
``certificate_to_json``, and a newline.  Exit codes: 0 success,
1 stdout closed by its reader, 2 malformed or unusable input, 3 a point
that fails optimality certification or a mean that could not be certified,
which ``mean`` still prints, with one stderr line saying why.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from collections.abc import Callable, Sequence

from .core import SampleSet, TorusPoint, trop_dist
from .errors import EmptyPolytrope, NotOptimal, ParseError, Unbounded
from .frechet import exact_frechet, find_certificate
from .polytrope import kleene_star, pseudovertices, tropical_vertices
from .serialize import (
    certificate_to_json,
    format_rational,
    load_points,
    matrix_from_json,
    parse_json,
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
        type=int,
        default=(1, 2),
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
    p_cert.add_argument("--point", type=_parse_vector, required=True, help="point as 'a,b,c'")
    p_cert.set_defaults(handler=_cmd_certify)

    p_bench = sub.add_parser("bench", help="timing grid over random samples")
    p_bench.add_argument("--dims", type=_ints_at_least(2), default=(5, 10, 15, 20))
    p_bench.add_argument("--multipliers", type=_ints_at_least(1), default=(1, 2, 3))
    p_bench.add_argument("--reps", type=_int_at_least(1), default=10)
    p_bench.add_argument("--seed", type=int, default=0)
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


def _parse_vector(text: str) -> TorusPoint:
    parts = text.replace(" ", "").split(",")
    if len(parts) < 2:
        raise argparse.ArgumentTypeError("need at least two comma-separated coordinates")
    try:
        return read_point(parts)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type for one integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    return parse


def _ints_at_least(low: int) -> Callable[[str], tuple[int, ...]]:
    """An argparse type for comma-separated integers, each at least ``low``."""

    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if any(v < low for v in values):
            raise argparse.ArgumentTypeError(f"values must be at least {low}")
        return values

    return parse


def _cmd_distance(args: argparse.Namespace) -> int:
    sample = load_points(_read_text(args.file))
    a, b = args.pair
    if not (1 <= a <= sample.m and 1 <= b <= sample.m):
        raise ParseError(f"point indices must be in 1..{sample.m}")
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
        sample = load_points(_read_text(args.file))
        result = exact_frechet(sample)
        if not result.exact:
            raise NotOptimal(f"could not certify a mean for this sample: {result.reason}")
        mat = result.fm_polytrope

    star = kleene_star(mat)
    tropical, pverts = tropical_vertices(mat), pseudovertices(mat)
    polygon = _polygon_ccw(pverts) if mat.n == 3 else None
    print(polytrope_to_json(mat, star, tropical, pverts, polygon))
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    sample = load_points(_read_text(args.file))
    if args.point.dim != sample.n:
        raise ParseError(
            f"--point has {args.point.dim} coordinates, the points have {sample.n}"
        )
    print(certificate_to_json(find_certificate(sample, args.point), sample))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    writer = sys.stdout
    writer.write("n,m,rep,mean_time_ms,objective\n")
    for n in args.dims:
        for mult in args.multipliers:
            m = mult * n
            for rep in range(1, args.reps + 1):
                sample = _random_sample(args.seed, n, m, rep)
                t0 = time.perf_counter()
                result = exact_frechet(sample)
                elapsed_ms = (time.perf_counter() - t0) * 1000.0
                cell = "" if args.no_timing else f"{elapsed_ms:.3f}"
                writer.write(f"{n},{m},{rep},{cell},{format_rational(result.min_sum)}\n")
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
