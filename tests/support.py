"""Shared generators for the randomized suites.

Randomness always comes from a Random seeded with a short string, so every
run of the tests sees the same instances on every platform and process.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import lcm
from random import Random

from tropmean import (
    NEG_INF,
    Certificate,
    CertificateError,
    ParseError,
    PolytropeMatrix,
    SampleSet,
    Unbounded,
    canonicalize,
    exact_frechet,
    kleene_star,
    objective,
    trop_dist,
    tropical_vertices,
    verify_certificate,
)
from tropmean.cli import main
from tropmean.core import TorusPoint
from tropmean.errors import InternalError
from tropmean.core import abbreviate
from tropmean.oracle import brute_force_frechet
from tropmean.serialize import load_points, parse_json, parse_rational

DENOMS = (1, 2, 3, 5)


def rand_fraction(rng: Random, span: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(DENOMS))


def rand_vector(rng: Random, n: int, span: int = 12) -> list[Fraction]:
    return [rand_fraction(rng, span) for _ in range(n)]


def rand_point(rng: Random, n: int, span: int = 12) -> TorusPoint:
    return canonicalize(rand_vector(rng, n, span))


def int_sample(rng: Random, n: int, m: int, span: int | None = None) -> SampleSet:
    """Sample with small integer coordinates, the oracle-friendly shape."""
    s = 3 * n if span is None else span
    return SampleSet.from_rows(
        [[Fraction(rng.randint(-s, s)) for _ in range(n)] for _ in range(m)]
    )


def rand_sample(rng: Random, n: int, m: int, span: int = 12) -> SampleSet:
    return SampleSet.from_rows([rand_vector(rng, n, span) for _ in range(m)])


def mixed_sample(rng: Random, n: int, m: int) -> SampleSet:
    """A sample read from literals over 1, 2 and 6 and decimals, so that
    its common denominator and its weights' differ."""
    def literal():
        kind = rng.randrange(4)
        if kind == 3:
            return f"{rng.randint(-9, 9)}.{rng.randint(0, 99):02d}"
        return f"{rng.randint(-12, 12)}/{(1, 2, 6)[kind]}"

    rows = [[literal() for _ in range(n)] for _ in range(m)]
    return load_points(json.dumps({"points": rows}))


def nonpositive_matrix(rng: Random, n: int, span: int = 12) -> PolytropeMatrix:
    """Random constraint matrix with zero diagonal and entries <= 0.

    Nonpositive off-diagonals rule out positive cycles, so Q is never
    empty, and every entry is finite, so Q is bounded.
    """
    rows = [
        [
            Fraction(0)
            if i == j
            else Fraction(rng.randint(-span, 0), rng.choice((1, 2)))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return PolytropeMatrix.from_rows(rows)


# The dense reference routines skip the zero entries of their first
# operand, which changes no result and keeps sparse programs cheap.
def mat_vec(a, x):
    return [dot(r, x) for r in a]


def dot(x, y):
    return sum((a * b for a, b in zip(x, y) if a), Fraction(0))


def densify(edges, nodes):
    """The dense rows of difference edges over the nodes 1..nodes-1:
    (a, b) is e_a - e_b, and node 0, the ground, has no column."""
    rows = []
    for a, b in edges:
        row = [Fraction(0)] * nodes
        row[a] += 1
        row[b] -= 1
        rows.append(row[1:])
    return rows


def dense_objective(squares, nodes):
    """(H, g, c0), dense over the nodes 1..nodes-1 and over Fractions, with
    1/2 z^T H z + g^T z + c0 the sum of the squares (a, b, c), that is
    (z_a - z_b - c)^2 with node 0 the ground: each adds
    2 (e_a - e_b)(e_a - e_b)^T to H, -2 c (e_a - e_b) to g and c^2 to c0,
    and the ground's row and column are left out."""
    h = [[Fraction(0)] * nodes for _ in range(nodes)]
    g = [Fraction(0)] * nodes
    c0 = Fraction(0)
    for a, b, c in squares:
        ends = ((a, 1), (b, -1))
        for s, ss in ends:
            g[s] -= 2 * ss * c
            for t, st in ends:
                h[s][t] += 2 * ss * st
        c0 += Fraction(c) ** 2
    return [row[1:] for row in h[1:]], g[1:], c0


def rref_over_fractions(rows):
    """Plain Gauss-Jordan over the rationals: (RREF rows, pivot columns).

    The reference the integer kernel is checked against, so it shares no
    code with ``tropmean.qp.integer_solve``.
    """
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        lead = m[r][c]
        m[r] = [v / lead if v else v for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows):
    return len(rref_over_fractions(rows)[1])


def solve_over_fractions(a, b):
    """A x = b by ``rref_over_fractions``: (particular, basis), or None when
    inconsistent.  The particular solution has its free variables at zero;
    the basis holds one nullspace vector per free column, in column order."""
    nvars = len(a[0]) if a else 0
    red, pivots = rref_over_fractions([list(row) + [rhs] for row, rhs in zip(a, b)])
    if nvars in pivots:
        return None
    particular = [Fraction(0)] * nvars
    for r, c in enumerate(pivots):
        particular[c] = red[r][nvars]
    basis = []
    for f in (c for c in range(nvars) if c not in pivots):
        vec = [Fraction(int(t == f)) for t in range(nvars)]
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(vec)
    return particular, basis


def reference_qp(h, g, c0, rows, d, z0, max_iter=1000):
    """The primal active-set loop of ``qp.minimize_qp`` written over Fractions,
    on the objective 1/2 z^T H z + g^T z + c0 with dense H.

    The nullspace and the subspace step come from ``solve_over_fractions``, the
    ratio test compares rational step lengths with a strict ``<`` in row
    order, and the working set starts as the greedily independent tight
    rows.  At a stationary point it drops the row with the most negative
    multiplier, ties to the lowest row index; once a working set is
    stationary a second time at one point, it drops the lowest-index
    negative row instead, until a step has positive length.  Returns
    ``((value, z, active, lam), stats)``, where ``stats`` counts loop
    iterations, rows dropped for a negative multiplier, the drops that took
    the lowest index after a repeat, and ratio-test ties a later row lost
    to an earlier one, and lists the blocking rows in the order they
    joined.
    """
    nvars = len(z0)
    z = list(z0)
    stats = {"iterations": 0, "drops": 0, "fallbacks": 0, "ties": 0, "blocked": []}
    stationary, repeated = set(), False
    slacks = [dot(row, z) - rhs for row, rhs in zip(rows, d)]
    if any(s < 0 for s in slacks):
        raise InternalError("infeasible starting point")
    work = []
    for i, s in enumerate(slacks):
        if s == 0 and rank([rows[a] for a in work + [i]]) == len(work) + 1:
            work.append(i)
    for _ in range(max_iter):
        stats["iterations"] += 1
        grad = [a + b for a, b in zip(mat_vec(h, z), g)]
        if work:
            _, basis = solve_over_fractions([rows[i] for i in work], [Fraction(0)] * len(work))
        else:
            basis = [[Fraction(int(a == b)) for b in range(nvars)] for a in range(nvars)]
        step = [Fraction(0)] * nvars
        if basis:
            hb = [mat_vec(h, v) for v in basis]
            red = [[dot(va, vb) for vb in hb] for va in basis]
            sol = solve_over_fractions(red, [-dot(v, grad) for v in basis])
            if sol is None:
                raise InternalError("unbounded equality subproblem")
            for y, v in zip(sol[0], basis):
                step = [s + y * vt for s, vt in zip(step, v)]
        if not any(step):
            lam = []
            if work:
                at = [[rows[i][t] for i in work] for t in range(nvars)]
                sol = solve_over_fractions(at, grad)
                if sol is None:
                    raise InternalError("stationary point with inconsistent multiplier system")
                lam = sol[0]
            neg = [(v, i) for i, v in zip(work, lam) if v < 0]
            if not neg:
                value = Fraction(1, 2) * dot(mat_vec(h, z), z) + dot(g, z) + c0
                order = sorted(range(len(work)), key=work.__getitem__)
                return (value, z, [work[a] for a in order], [lam[a] for a in order]), stats
            repeated = repeated or frozenset(work) in stationary
            stationary.add(frozenset(work))
            if repeated:
                work.remove(min(i for _, i in neg))
                stats["fallbacks"] += 1
            else:
                work.remove(min(neg)[1])
            stats["drops"] += 1
            continue
        alpha, blocker = Fraction(1), None
        for i, row in enumerate(rows):
            s = dot(row, step)
            if i in work or s >= 0:
                continue
            limit = (dot(row, z) - d[i]) / -s
            if limit < alpha:
                alpha, blocker = limit, i
            elif limit == alpha and blocker is not None:
                stats["ties"] += 1
        if alpha:
            stationary, repeated = set(), False
        z = [zt + alpha * st for zt, st in zip(z, step)]
        if blocker is not None:
            work.append(blocker)
            stats["blocked"].append(blocker)
    raise InternalError("active-set iteration cap exceeded")


def fraction_program(n, x0, d):
    """The integer program (n, x0, d) of ``qp.minimize_qp`` as ``reference_qp``
    takes it: dense H, g and c0, dense rows, d, and the start off the ground,
    all Fractions, from ``epigraph_program`` on the sample whose rows d
    holds, -p_j and then p_j for each sample j."""
    ps = [[Fraction(v) for v in d[r + n : r + 2 * n]] for r in range(0, len(d), 2 * n)]
    h, g, edges, rhs, z0 = epigraph_program([Fraction(v) for v in x0], ps)
    if rhs != d:
        raise ValueError("d does not hold -p_j and then p_j for each sample")
    return h, g, Fraction(0), densify(edges, len(z0)), rhs, z0[1:]


def integer_program(sample: SampleSet, start: TorusPoint):
    """The epigraph program of ``sample`` at ``start`` put on integers for
    ``qp.minimize_qp``: ((n, x0, d), e).

    The nodes are scaled by e, the lcm of the denominators of the sample and
    the start, so the program in e z has x0 = e x and d = e d.  Its optimizer
    and multipliers are e times, its value e^2 times those of the rational
    program, and its working sets are the same.  The scaling is this
    helper's own, so it shares no code with ``qp`` or ``frechet``.
    """
    _, _, _, d, z0 = reference_epigraph_program(sample, start)
    x = z0[: sample.n]
    e = lcm(*(v.denominator for v in (*d, *x)))
    return (sample.n, [_whole(e * v) for v in x], [_whole(e * v) for v in d]), e


def _whole(v):
    v = Fraction(v)
    if v.denominator != 1:
        raise ValueError(f"{v} is not an integer")
    return v.numerator


def fraction_result(result, e):
    """``minimize_qp``'s result on ``integer_program``'s program, read back as
    the rational program's (value, x, alpha, beta): the value is an integer
    over (zd e)^2, the rest integers over zd e."""
    value, (zd, xn), alpha, beta = result
    back = lambda vs: [Fraction(v, zd * e) for v in vs]
    return Fraction(value, (zd * e) ** 2), back(xn), [back(a) for a in alpha], [back(b) for b in beta]


def reference_region_program(nums, assignment):
    """(squares, edges, d) of an oracle cell as a general difference program
    on x_1..x_n alone, node 0 the ground, for ``dense_objective`` and
    ``densify``: one square (x_i - x_k - p_i + p_k)^2 per sample on its pair
    (i, k), and the rows x_i - x_a >= p_i - p_a and x_a - x_k >= p_a - p_k,
    each pair (a, b) once at its largest bound, in row-major order."""
    n = len(nums[0])
    bound = {}
    for p, (i, k) in zip(nums, assignment):
        for a in range(n):
            for row, c in (((i, a), p[i] - p[a]), ((a, k), p[a] - p[k])):
                if row[0] != row[1] and (row not in bound or c > bound[row]):
                    bound[row] = c
    edges = sorted(bound)
    squares = [(i, k, p[i] - p[k]) for p, (i, k) in zip(nums, assignment)]
    return squares, edges, [bound[row] for row in edges]


# The assembly of the mean's epigraph program and of the result at a point,
# as it ran over Fractions before ``exact_frechet`` moved to integers on one
# common denominator; the integer route must hand the solver and the caller
# exactly these values.
def reference_average(sample: SampleSet) -> TorusPoint:
    """The canonical coordinatewise average, the start of the program."""
    return canonicalize(
        [sum((p[a] for p in sample), Fraction(0)) / sample.m for a in range(sample.n)]
    )


def epigraph_program(x, ps):
    """(dense H, g, edges, d, z0) of the split epigraph program of the points
    ``ps`` started at ``x``, over Fractions, on the nodes x_1..x_n,
    u_1..u_m, l_1..l_m; H and g leave out x_1, the ground, and z0 lifts u_j
    and l_j to the max and min of x - p_j."""
    n, m = len(x), len(ps)
    nvars = n - 1 + 2 * m
    zero = Fraction(0)
    h = [[zero] * nvars for _ in range(nvars)]
    # u_j is node n + j, so column n + j - 1 off the ground.
    for u in range(n - 1, n - 1 + m):
        h[u][u] = h[u + m][u + m] = Fraction(2)
        h[u][u + m] = h[u + m][u] = Fraction(-2)
    g = [zero] * nvars
    edges = []
    d = []
    for j, p in enumerate(ps):
        edges += [(n + j, i) for i in range(n)]
        edges += [(i, n + m + j) for i in range(n)]
        d += [-c for c in p] + list(p)
    gaps = [[a - b for a, b in zip(x, p)] for p in ps]
    z0 = [*x, *map(max, gaps), *map(min, gaps)]
    return h, g, edges, d, z0


def reference_epigraph_program(sample: SampleSet, start: TorusPoint):
    """``epigraph_program`` of the sample at ``start``."""
    return epigraph_program(list(start.coords), list(sample))


def reference_epigraph(sample: SampleSet, start: TorusPoint):
    """(mean, certificate) of the epigraph program by the Fraction route:
    ``reference_epigraph_program``, ``reference_qp`` and the weights read off
    the rational multipliers, alpha_ji beta_jk / (sum alpha_j sum beta_j) per
    i < k piece, weight 1 on piece (0, 1) for a sample with no multiplier."""
    n, m = sample.n, sample.m
    h, g, edges, d, z0 = reference_epigraph_program(sample, start)
    (c_star, z, active, lam), _ = reference_qp(h, g, 0, densify(edges, len(z0)), d, z0[1:])
    sides = [({}, {}) for _ in range(m)]
    for r, value in zip(active, lam):
        if value:
            j, s = divmod(r, 2 * n)
            sides[j][s // n][s % n] = value
    weights = []
    for alpha, beta in sides:
        total = sum(alpha.values(), Fraction(0)) * sum(beta.values(), Fraction(0))
        if not total:
            alpha, beta, total = {0: Fraction(1)}, {1: Fraction(1)}, 1
        per = {
            (min(i, k), max(i, k)): a * b / total
            for i, a in alpha.items()
            for k, b in beta.items()
        }
        weights.append(tuple((i, k, w) for (i, k), w in sorted(per.items())))
    mean = canonicalize([Fraction(0), *z[: n - 1]])
    return mean, Certificate(c_star, integer_weights(weights), mean)


def reference_result_fields(sample: SampleSet, mean: TorusPoint):
    """(distances, min_sum, fm_polytrope) of the result at ``mean``."""
    dists = tuple(trop_dist(mean, p) for p in sample)
    n = sample.n
    rows = [
        [
            Fraction(0) if i == k else max(-dj + p[i] - p[k] for p, dj in zip(sample, dists))
            for k in range(n)
        ]
        for i in range(n)
    ]
    return dists, sum((v * v for v in dists), Fraction(0)), PolytropeMatrix.from_rows(rows)


# The input and certificate routes as they ran over Fractions before the
# sample and the matrix were carried as integers from the parser on: the
# integer routes must accept the same inputs, build the same samples and
# matrices and reach the same verdicts, with the same error texts.
def reference_coord(value):
    """One coordinate from a JSON scalar or CSV cell as a Fraction, by the
    checks and messages of the serializer's coordinate reader."""
    if isinstance(value, bool):
        raise ParseError("booleans are not coordinates")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise ParseError(f"refusing inexact float {value!r}; write it as a string")
    raise ParseError(f"cannot read coordinate {abbreviate(value)}")


def reference_matrix_from_json(data):
    """A matrix document read entry by entry to Fractions and -inf and built
    by ``PolytropeMatrix.from_rows``."""
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
        rows.append([NEG_INF if v is None else reference_coord(v) for v in raw])
    return PolytropeMatrix.from_rows(rows)


def reference_load_points(text: str):
    """(sample, (den, nums)) by the Fraction route: every coordinate through
    ``reference_coord``, then ``SampleSet.from_rows``, and the sample's
    integers over den, the lcm of the canonical coordinates' denominators."""
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
            rows.append([reference_coord(v) for v in row])
    else:
        rows = []
        for lineno, record in enumerate(csv.reader(io.StringIO(text)), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            try:
                rows.append([reference_coord(cell.strip()) for cell in record])
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        if not rows:
            raise ParseError("no data rows found")
    try:
        sample = SampleSet.from_rows(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    den = lcm(*(c.denominator for p in sample for c in p))
    nums = tuple(tuple(c.numerator * (den // c.denominator) for c in p) for p in sample)
    return sample, (den, nums)


# A point as it ran over Fractions before it was held as integers over its
# denominator: ``canonicalize`` subtracted the first coordinate from every
# Fraction.
def reference_canonicalize(coords) -> tuple[Fraction, ...]:
    """The canonical coordinates of a raw vector by Fraction arithmetic."""
    vals = [Fraction(v) for v in coords]
    return tuple(v - vals[0] for v in vals)


# The documents the commands print, built as dicts from Fractions, with each
# rational written as Python's own text for its Fraction: the references the
# serializer's text writers are compared against byte for byte through
# ``json.dumps(doc, indent=2)``, sharing no code with them.
def reference_point_to_json(p: TorusPoint) -> list[str]:
    return [str(c) for c in p.coords]


def reference_rows_to_json(den: int, rows) -> list[list[str | None]]:
    """Rows of integers over den, None for -inf, as "p/q" strings and None."""
    return [[None if v is None else str(Fraction(v, den)) for v in row] for row in rows]


def reference_matrix_to_json(c: PolytropeMatrix) -> dict:
    entries = [[None if v == NEG_INF else str(v) for v in row] for row in c.entries]
    return {"n": c.n, "entries": entries}


def reference_certificate_to_json(cert: Certificate, sample: SampleSet) -> dict:
    """The proof document: 1-based indices, each piece's constant
    c = p_i - p_k read off the sample's Fraction coordinates."""
    weights = [
        {
            "sample": j + 1,
            "pieces": [
                {"i": i + 1, "k": k + 1, "c": str(p[i] - p[k]), "w": str(w)}
                for i, k, w in entries
            ],
        }
        for j, (entries, p) in enumerate(zip(fraction_weights(cert), sample))
    ]
    return {
        "c_star": str(cert.c_star),
        "point": reference_point_to_json(cert.point),
        "weights": weights,
    }


def reference_result_to_json(result, sample: SampleSet) -> dict:
    """The ``mean`` document of ``result``, with the vertex lists of its mean
    polytrope from the Fraction vertex pass."""
    fm = result.fm_polytrope
    doc = {
        "mean": reference_point_to_json(result.mean),
        "distances": [str(d) for d in result.distances],
        "min_sum": str(result.min_sum),
        "fm_polytrope": reference_matrix_to_json(fm),
        "exact": result.exact,
        "tropical_vertices": list(map(reference_point_to_json, reference_tropical_vertices(fm))),
        "pseudovertices": list(map(reference_point_to_json, reference_pseudovertices(fm))),
    }
    if result.certificate is not None:
        doc["certificate"] = reference_certificate_to_json(result.certificate, sample)
    return doc


def reference_polytrope_to_json(mat: PolytropeMatrix) -> dict:
    """The ``polytrope`` document of ``mat``: the matrix, its closure, the
    vertex lists of the Fraction vertex pass and, for n = 3, the polygon
    (x2-x1, x3-x1) counterclockwise from the smallest point, below the chord
    to the largest and then above it."""
    pverts = reference_pseudovertices(mat)
    doc = {
        "matrix": reference_matrix_to_json(mat),
        "starred": reference_matrix_to_json(kleene_star(mat)),
        "tropical_vertices": list(map(reference_point_to_json, reference_tropical_vertices(mat))),
        "pseudovertices": list(map(reference_point_to_json, pverts)),
    }
    if mat.n == 3:
        pts = sorted((p[1], p[2]) for p in pverts)
        if len(pts) >= 3:
            (ax, ay), (bx, by) = pts[0], pts[-1]
            above = [(u, v) for u, v in pts if (bx - ax) * (v - ay) > (by - ay) * (u - ax)]
            pts = [p for p in pts if p not in above] + above[::-1]
        doc["polygon"] = [[str(u), str(v)] for u, v in pts]
    return doc


def reference_verify_certificate(sample: SampleSet, cert: Certificate) -> bool:
    """``verify_certificate`` by elimination over Fractions: the same
    structural checks in the same order, then the combined quadratic q
    minimized by ``solve_over_fractions`` on its normal equations in the
    gauge x_1 = 0.  The certificate holds when min q >= c_star and the
    objective at its point equals min q: q lies below the objective, so
    that is the point minimizing q with every weighted piece active."""
    if len(cert.weights) != sample.m:
        raise CertificateError("certificate sample count mismatch")
    n = sample.n
    if cert.point.dim != n:
        raise CertificateError(f"certificate point has {cert.point.dim} coordinates, not {n}")
    a = [[Fraction(0)] * (n - 1) for _ in range(n - 1)]
    b = [Fraction(0)] * (n - 1)
    c0 = Fraction(0)
    for j, per in enumerate(fraction_weights(cert)):
        if not per:
            raise CertificateError(f"sample {j} carries no pieces")
        total = Fraction(0)
        p = sample[j]
        for i, k, w in per:
            if not (0 <= i < n and 0 <= k < n) or i == k:
                raise CertificateError("piece indices out of range")
            if w < 0:
                raise CertificateError("negative weight")
            total += w
            c = p[i] - p[k]
            # w (x_i - x_k - c)^2 with e_i - e_k in the coordinates x_2..x_n
            row = [Fraction(0)] * (n - 1)
            if i:
                row[i - 1] += 1
            if k:
                row[k - 1] -= 1
            for s in range(n - 1):
                b[s] += w * c * row[s]
                for t in range(n - 1):
                    a[s][t] += w * row[s] * row[t]
            c0 += w * c * c
        if total != 1:
            raise CertificateError(f"weights of sample {j} sum to {total}, not 1")
    y, _ = solve_over_fractions(a, b)
    value = c0 - dot(b, y)
    at_point = sum((trop_dist(cert.point, p) ** 2 for p in sample), Fraction(0))
    return value >= cert.c_star and value == at_point


# A textbook phase-one simplex with Bland's rule: artificial variables are
# introduced for every row and their sum is minimized.  Bland's pivot rule
# (smallest eligible index, smallest row index on ratio ties) guarantees
# termination, and with Fraction arithmetic there is no tolerance to tune.
# It is the reference the polytrope suite checks its extreme-point filter by.
def feasible_point(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Return some x >= 0 with A x = b, or None when the system is infeasible."""
    nrows = len(a)
    if nrows == 0:
        return []
    nvars = len(a[0])

    # Tableau columns: nvars original variables, nrows artificials, then rhs.
    tab: list[list[Fraction]] = []
    for i in range(nrows):
        row = [Fraction(v) for v in a[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        row.extend(Fraction(1) if j == i else Fraction(0) for j in range(nrows))
        row.append(rhs)
        tab.append(row)
    basis = [nvars + i for i in range(nrows)]
    total = nvars + nrows

    # Objective row for sum of artificials, expressed in the current basis.
    obj = [Fraction(0)] * (total + 1)
    for i in range(nrows):
        for j in range(total + 1):
            obj[j] += tab[i][j]

    while True:
        enter = next((j for j in range(nvars) if obj[j] > 0), None)
        if enter is None:
            break
        ratio = None
        leave = None
        for i in range(nrows):
            if tab[i][enter] > 0:
                r = tab[i][total] / tab[i][enter]
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio = r
                    leave = i
        if leave is None:
            # The phase-one objective is bounded below by zero, so an
            # unbounded pivot column cannot occur.
            raise RuntimeError("phase-one simplex lost boundedness")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(nrows):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, tab[leave])]
        basis[leave] = enter

    if obj[total] != 0:
        return None
    x = [Fraction(0)] * nvars
    for i, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = tab[i][total]
    return x


def vertex_points(fn, c: PolytropeMatrix) -> list[TorusPoint]:
    """The integer columns ``fn`` returns for ``c``, ``tropical_vertices``
    or ``pseudovertices``, as points over the closure's denominator."""
    columns = fn(c)
    den = kleene_star(c).den
    return [TorusPoint(den, col) for col in columns]


# The vertex pass as it ran over Fractions before the polytrope layer moved
# to integers on one common denominator: the order of the returned points,
# not only their set, is what the command line prints.
def reference_tropical_vertices(c: PolytropeMatrix) -> list[TorusPoint]:
    """Canonicalized closure columns, deduplicated in column order."""
    star = kleene_star(c)
    out: list[TorusPoint] = []
    seen: set[TorusPoint] = set()
    for col in zip(*star.entries):
        if any(v == NEG_INF for v in col):
            raise Unbounded("closure column contains -inf; polytrope is unbounded")
        p = canonicalize(col)
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def reference_segment_breakpoints(x: TorusPoint, y: TorusPoint) -> tuple[TorusPoint, ...]:
    """(lam + x) max y at each distinct y_i - x_i, in increasing order."""
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    thresholds = sorted({yi - xi for xi, yi in zip(x, y)})
    return tuple(
        canonicalize([max(lam + xi, yi) for xi, yi in zip(x, y)]) for lam in thresholds
    )


def reference_pseudovertices(c: PolytropeMatrix) -> list[TorusPoint]:
    """Segment breakpoints between tropical vertices whose tight pairs
    connect all coordinates."""
    star = kleene_star(c)
    verts = reference_tropical_vertices(star)
    candidates = dict.fromkeys(verts)
    for a, b in combinations(verts, 2):
        candidates.update(dict.fromkeys(reference_segment_breakpoints(a, b)))
    return [p for p in candidates if _reference_tight_pairs_connect(star, p)]


def _reference_tight_pairs_connect(star: PolytropeMatrix, p: TorusPoint) -> bool:
    n = p.dim
    reached = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in reached and (
                p[i] - p[j] == star.entries[i][j] or p[j] - p[i] == star.entries[j][i]
            ):
                reached.add(j)
                stack.append(j)
    return len(reached) == n


# The paper's definition of the mean set, the intersection of the tropical
# balls B(p_j, d_j), written over Fractions: ``fm_polytrope`` must build the
# same matrix on integers.
def ball_to_polytrope(center, radius) -> PolytropeMatrix:
    """H-description of the closed tropical ball B(center, radius): entry
    (i, j) is -r + y_i - y_j off the diagonal and zero on it.  For r >= 0
    the matrix is its own closure."""
    r = Fraction(radius)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    y = [Fraction(c) for c in center]
    n = len(y)
    return PolytropeMatrix.from_rows(
        [[Fraction(0) if i == j else -r + y[i] - y[j] for j in range(n)] for i in range(n)]
    )


def intersect(mats) -> PolytropeMatrix:
    """Entrywise max of the constraint matrices: the h-description of the
    intersection, which is generally not closed."""
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].n
    if any(m.n != n for m in mats):
        raise ValueError("dimension mismatch")
    if len(mats) == 1:
        return mats[0]
    return PolytropeMatrix.from_rows(
        [[max(m.entries[i][j] for m in mats) for j in range(n)] for i in range(n)]
    )


def active_pieces(sample: SampleSet, x) -> list[list[tuple[int, int]]]:
    """Per sample, every ordered pair (i, k) whose affine form attains
    +-d_tr(x, p_j); both orientations of a pair are listed, and at a sample
    point every pair is."""
    xs = [Fraction(v) for v in x]
    out = []
    for p in sample:
        d = trop_dist(xs, p)
        out.append(
            [
                (i, k)
                for i in range(sample.n)
                for k in range(sample.n)
                if i != k and abs(xs[i] - xs[k] - (p[i] - p[k])) == d
            ]
        )
    return out


def form_value(sample: SampleSet, j: int, i: int, k: int, x) -> Fraction:
    """The affine form x_i - x_k - (p_i - p_k) of sample j's piece (i, k) at x."""
    p = sample[j]
    return x[i] - x[k] - (p[i] - p[k])


def weight_map(cert: Certificate, j: int) -> dict[tuple[int, int], Fraction]:
    """Sample j's weights, keyed by their pieces' ordered pairs (i, k)."""
    return {(i, k): w for i, k, w in fraction_weights(cert)[j]}


def fraction_weights(cert: Certificate) -> tuple[tuple[tuple[int, int, Fraction], ...], ...]:
    """Each sample's weights as (i, k, w) with w a Fraction, read off the
    integers over the sample's denominator that the certificate holds."""
    return tuple(tuple((i, k, Fraction(w, den)) for i, k, w in per) for den, per in cert.weights)


def integer_weights(weights) -> tuple:
    """Per-sample (i, k, w) weights, w a Fraction or an int, as a
    ``Certificate`` holds them: integers over the lcm of the sample's
    denominators, 1 for a sample with no pieces."""
    groups = []
    for per in weights:
        den = lcm(*(Fraction(w).denominator for _, _, w in per))
        groups.append((den, tuple((i, k, int(w * den)) for i, k, w in per)))
    return tuple(groups)


def small_scope(n: int, m_max: int, lo: int, hi: int):
    """Every multiset of 1 to m_max canonical integer points in n
    coordinates, first coordinate 0 and the others in lo..hi, as rows."""
    points = [(0, *rest) for rest in product(range(lo, hi + 1), repeat=n - 1)]
    for m in range(1, m_max + 1):
        yield from combinations_with_replacement(points, m)


def check_small_scope_sample(rows, path) -> None:
    """Assert the small-scope checks on the sample ``rows``: the mean is
    exact, its ``min_sum`` is the oracle's value, its certificate verifies,
    and every tropical vertex of ``fm_polytrope`` has objective ``min_sum``;
    in-process, ``certify --point`` exits 0 at each vertex and 3 at a point
    off the mean set.  The command line reads the sample from ``path``."""
    sample = SampleSet.from_rows(rows)
    result = exact_frechet(sample)
    assert result.exact
    assert result.min_sum == brute_force_frechet(sample)[0]
    assert verify_certificate(sample, result.certificate)
    den = kleene_star(result.fm_polytrope).den
    vertices = [[Fraction(v, den) for v in col] for col in tropical_vertices(result.fm_polytrope)]
    path.write_text(json.dumps({"points": [list(row) for row in rows]}))
    for x in vertices:
        assert objective(sample, x) == result.min_sum
        assert _certify(path, x) == 0
    # The first vertex moved along the last coordinate, 1/7 at a time,
    # until its objective exceeds min_sum: a point off the mean set.
    off = list(vertices[0])
    while objective(sample, off) == result.min_sum:
        off[-1] += Fraction(1, 7)
    assert _certify(path, off) == 3


def check_tie_sample(rows) -> None:
    """Assert that the mean of the sample ``rows`` is exact, that its
    certificate verifies, and that its ``min_sum`` is the objective there."""
    sample = SampleSet.from_rows(rows)
    result = exact_frechet(sample)
    assert result.exact, result.reason
    assert verify_certificate(sample, result.certificate)
    assert result.min_sum == objective(sample, result.mean)


def _certify(path, x) -> int:
    """The exit code of ``certify --point x path``, its output dropped."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(["certify", "--point", ",".join(map(str, x)), str(path)])
