"""Fréchet means under the tropical metric.

The objective c(x) = sum_j d_tr(x, p_j)^2 is piecewise quadratic and convex
on the torus.  Three cooperating routes live here:

* ``greedy_frechet``: coordinate-pair descent with the diminishing step
  schedule 2/(k+2) and monotone acceptance, entirely in rational arithmetic.
* ``exact_frechet``: promotes the greedy iterate to the exact optimum by
  reading off the near-active pieces, solving the induced tie system by
  equality-constrained least squares, and certifying the candidate; an
  epigraph quadratic program covers the cases the tie systems miss.
* ``fm_polytrope``: the h-description of the full mean set, obtained by
  intersecting the tropical balls around the samples with the per-sample
  optimal radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence

from .certify import Certificate, find_certificate, verify_certificate
from .core import (
    RationalLike,
    SampleSet,
    TorusPoint,
    as_rational,
    canonicalize,
    trop_dist,
)
from .errors import NotOptimal
from .linalg import solve_affine
from .polytrope import PolytropeMatrix, segment_breakpoints
from .qp import QPError, minimize_qp

DEFAULT_TOL = Fraction(1, 10**12)

# Rounds without a tol-sized improvement before the greedy loop stops.  The
# schedule may overshoot at the current step size even away from optimality,
# so a single stalled scan is not treated as convergence; ten consecutive
# stalls (with the step shrinking in between) are.
STALL_ROUNDS = 10


@dataclass(frozen=True)
class FrechetResult:
    """Outcome of a mean computation.

    ``exact`` is True only when a positivity certificate for ``mean`` was
    found and independently verified; ``min_sum`` always equals the sum of
    the squared ``distances``.
    """

    mean: TorusPoint
    distances: tuple[Fraction, ...]
    min_sum: Fraction
    fm_polytrope: PolytropeMatrix
    exact: bool
    certificate: Certificate | None = None


def objective(sample: SampleSet, x: Sequence[RationalLike]) -> Fraction:
    """Sum of squared tropical distances from x to the sample points."""
    xs = [as_rational(v) for v in x]
    return sum((trop_dist(xs, p) ** 2 for p in sample), Fraction(0))


def greedy_frechet(
    sample: SampleSet,
    max_iter: int = 100_000,
    tol: RationalLike = DEFAULT_TOL,
    on_round: Callable[[int, Fraction], None] | None = None,
) -> tuple[TorusPoint, Fraction]:
    """Descent over the direction pairs e_i - e_j with steps 2/(k+2).

    Starts from the coordinatewise average of the sample.  Each round
    evaluates the objective after a full step along every ordered pair,
    takes the steepest strict decrease (lexicographically first on ties)
    and advances the schedule; rounds that improve nothing still shrink
    the step.  Stops after ``max_iter`` rounds or once no direction gains
    more than ``tol`` for several consecutive rounds.

    Iterates stay exact rationals throughout.  Internally the point is an
    integer vector over a common denominator so the inner scan is pure
    integer arithmetic.
    """
    tolv = as_rational(tol)
    n = sample.n
    m = sample.m
    scale0 = lcm(*(c.denominator for p in sample for c in p), m)
    base = [[int(c * scale0) for c in p] for p in sample]

    # Start at the average: numerators at scale0 * m.
    den = scale0 * m
    nums = [sum(base[j][a] for j in range(m)) for a in range(n)]
    nums, den = _reduce(nums, den)

    def exact_value(nums: list[int], den: int) -> Fraction:
        s = lcm(den, scale0)
        f_pt, f_smp = s // den, s // scale0
        total = Fraction(0)
        for j in range(m):
            diffs = [nums[a] * f_pt - base[j][a] * f_smp for a in range(n)]
            spread = max(diffs) - min(diffs)
            total += Fraction(spread * spread, s * s)
        return total

    current = exact_value(nums, den)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    k = 1
    stall = 0
    rounds = 0
    while rounds < max_iter and stall < STALL_ROUNDS:
        rounds += 1
        g2 = gcd(2, k + 2)
        q = (k + 2) // g2
        scale = lcm(den, q, scale0)
        lift = scale // den
        step = (2 // g2) * (scale // q)
        pos = [v * lift for v in nums]
        sample_lift = scale // scale0
        deltas = []
        tops = []
        bots = []
        for j in range(m):
            row = [pos[a] - base[j][a] * sample_lift for a in range(n)]
            deltas.append(row)
            order = sorted(range(n), key=lambda a: row[a])
            bots.append([(row[a], a) for a in order[:3]])
            tops.append([(row[a], a) for a in order[-1 : -4 : -1]])

        best_num = None
        best_dir = None
        for i, j in pairs:
            acc = 0
            for s in range(m):
                row = deltas[s]
                a = row[i] + step
                b = row[j] - step
                hi = a if a >= b else b
                lo = b if a >= b else a
                for val, idx in tops[s]:
                    if idx != i and idx != j:
                        if val > hi:
                            hi = val
                        break
                for val, idx in bots[s]:
                    if idx != i and idx != j:
                        if val < lo:
                            lo = val
                        break
                e = hi - lo
                acc += e * e
            if best_num is None or acc < best_num:
                best_num = acc
                best_dir = (i, j)

        decrease = Fraction(0)
        trial = Fraction(best_num, scale * scale)
        if trial < current:
            i, j = best_dir
            pos[i] += step
            pos[j] -= step
            nums, den = _reduce(pos, scale)
            decrease = current - trial
            current = trial
        k += 1
        stall = stall + 1 if decrease <= tolv else 0
        if on_round is not None:
            on_round(rounds, current)

    point = canonicalize([Fraction(v, den) for v in nums])
    return point, current


def _reduce(nums: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *nums) if nums else den
    if g > 1:
        return [v // g for v in nums], den // g
    return list(nums), den


def fm_polytrope(sample: SampleSet, mean: TorusPoint) -> PolytropeMatrix:
    """H-description of the set of all Fréchet means.

    Every mean sits at the same per-sample distances d_j, so the mean set
    is the intersection of the tropical balls B(p_j, d_j); entrywise that
    is c_ij = max_j(-d_j + p_{j,i} - p_{j,k}) with a zero diagonal.
    """
    n = sample.n
    dists = [trop_dist(mean, p) for p in sample]
    rows = []
    for i in range(n):
        row = []
        for kk in range(n):
            if i == kk:
                row.append(Fraction(0))
            else:
                row.append(max(-dists[j] + sample[j][i] - sample[j][kk] for j in range(sample.m)))
        rows.append(row)
    return PolytropeMatrix.from_rows(rows)


def two_point_mean(p1: TorusPoint, p2: TorusPoint) -> TorusPoint:
    """Midpoint of the tropical segment between two points.

    Walks the breakpoint chain from p1 to p2 and interpolates linearly
    inside the ordinary piece containing the half-way arc length.  The
    result is a Fréchet mean of {p1, p2} with both distances d(p1,p2)/2.
    """
    total = trop_dist(p1, p2)
    if total == 0:
        return p1
    target = total / 2
    chain = list(segment_breakpoints(p2, p1))  # runs from p1 to p2
    acc = Fraction(0)
    for u, w in zip(chain, chain[1:]):
        piece = trop_dist(u, w)
        if piece == 0:
            continue
        if acc + piece >= target:
            tau = (target - acc) / piece
            return canonicalize([a + tau * (b - a) for a, b in zip(u, w)])
        acc += piece
    return chain[-1]


def exact_frechet(
    sample: SampleSet,
    greedy_max_iter: int = 400,
    greedy_tol: RationalLike = Fraction(1, 10**9),
) -> FrechetResult:
    """Exact Fréchet mean with a verified optimality certificate.

    Pipeline: run the greedy solver to near-convergence, guess the active
    piece pattern at increasing slack thresholds and solve each pattern's
    tie system exactly; when no pattern certifies, minimize the objective
    outright as an epigraph quadratic program started at the greedy
    iterate.  Every candidate from every stage passes through the same
    certificate search plus independent verification, and only a certified
    point is reported with ``exact=True``.  The quadratic program solves
    the convex problem exactly, so its optimum certifies; when it fails
    with a QPError instead, the greedy iterate comes back flagged
    ``exact=False``.
    """
    v, greedy_val = greedy_frechet(sample, max_iter=greedy_max_iter, tol=greedy_tol)

    result = _certified_result(sample, v)
    if result is not None:
        return result

    ladder = [
        Fraction(1, 10**6),
        Fraction(1, 1000),
        Fraction(1, 100),
        Fraction(1, 10),
        Fraction(1, 2),
        Fraction(1),
        Fraction(2),
        Fraction(4),
    ]
    tried: set[tuple[tuple[tuple[int, int], ...], ...]] = set()
    for theta in ladder:
        pattern = _near_active_pattern(sample, v, theta)
        for _ in range(4):  # original pattern plus up to three polish rounds
            key = tuple(tuple(p) for p in pattern)
            if key in tried:
                break
            tried.add(key)
            cand = _tie_candidate(sample, pattern)
            if cand is None:
                break
            if _consistent(sample, pattern, cand):
                result = _certified_result(sample, cand)
                if result is not None:
                    return result
            pattern = _near_active_pattern(sample, cand, Fraction(0))

    try:
        cand = _epigraph_candidate(sample, v)
    except QPError:
        cand = None
    if cand is not None:
        result = _certified_result(sample, cand)
        if result is not None:
            return result

    dists = tuple(trop_dist(v, p) for p in sample)
    return FrechetResult(
        mean=v,
        distances=dists,
        min_sum=greedy_val,
        fm_polytrope=fm_polytrope(sample, v),
        exact=False,
        certificate=None,
    )


def _certified_result(sample: SampleSet, point: TorusPoint) -> FrechetResult | None:
    """Certificate search plus independent verification at one point."""
    try:
        cert = find_certificate(sample, point)
    except NotOptimal:
        return None
    if not verify_certificate(sample, cert):
        return None
    dists = tuple(trop_dist(point, p) for p in sample)
    value = sum((d * d for d in dists), Fraction(0))
    assert value == cert.c_star
    return FrechetResult(
        mean=point,
        distances=dists,
        min_sum=value,
        fm_polytrope=fm_polytrope(sample, point),
        exact=True,
        certificate=cert,
    )


def _epigraph_candidate(sample: SampleSet, start: TorusPoint) -> TorusPoint:
    """Global minimizer via one exact quadratic program.

    Variables are the gauge coordinates x_2..x_n plus one epigraph value
    t_j per sample, constrained by t_j >= (x_i - x_k) - (p_{j,i} - p_{j,k})
    for every ordered pair; minimizing sum t_j^2 presses each t_j onto the
    per-sample max, so the optimum solves the full piecewise problem.  The
    start point lifts the greedy iterate, which is feasible by definition.
    """
    n = sample.n
    m = sample.m
    nv = n - 1
    nvars = nv + m
    zero = Fraction(0)

    h = [[zero] * nvars for _ in range(nvars)]
    for j in range(m):
        h[nv + j][nv + j] = Fraction(2)
    g = [zero] * nvars

    c_rows: list[list[Fraction]] = []
    d: list[Fraction] = []
    for j in range(m):
        p = sample[j]
        for i in range(n):
            for k in range(n):
                if i == k:
                    continue
                row = [zero] * nvars
                if i > 0:
                    row[i - 1] -= 1
                if k > 0:
                    row[k - 1] += 1
                row[nv + j] = Fraction(1)
                c_rows.append(row)
                d.append(-(p[i] - p[k]))

    xs = list(start.coords)
    z0 = [xs[a + 1] for a in range(nv)]
    z0.extend(trop_dist(start, p) for p in sample)
    _, z, _ = minimize_qp(h, g, c_rows, d, z0)
    return canonicalize([zero] + z[:nv])


def _near_active_pattern(
    sample: SampleSet, x: TorusPoint, theta: Fraction
) -> list[list[tuple[int, int]]]:
    """Ordered pairs within theta of each per-sample maximum at x."""
    n = sample.n
    xs = list(x.coords)
    pattern = []
    for p in sample:
        diffs = [xs[a] - p[a] for a in range(n)]
        d = max(diffs) - min(diffs)
        pairs = []
        for a in range(n):
            for b in range(n):
                if a != b and diffs[a] - diffs[b] >= d - theta:
                    pairs.append((a, b))
        pattern.append(pairs)
    return pattern


def _tie_candidate(
    sample: SampleSet, pattern: list[list[tuple[int, int]]]
) -> TorusPoint | None:
    """Exact minimizer of the pattern's tie system, or None if inconsistent.

    All pieces named in a sample's pattern are forced equal (linear
    constraints); the sum of the squared representative pieces is then
    minimized over the constraint subspace by normal equations.
    """
    n = sample.n
    nv = n - 1

    def coeff(a: int, b: int) -> list[Fraction]:
        vec = [Fraction(0)] * nv
        if a > 0:
            vec[a - 1] += 1
        if b > 0:
            vec[b - 1] -= 1
        return vec

    eq_rows: list[list[Fraction]] = []
    eq_rhs: list[Fraction] = []
    for j, pairs in enumerate(pattern):
        p = sample[j]
        a0, b0 = pairs[0]
        c0 = p[a0] - p[b0]
        v0 = coeff(a0, b0)
        for a, b in pairs[1:]:
            c1 = p[a] - p[b]
            eq_rows.append([u - w for u, w in zip(v0, coeff(a, b))])
            eq_rhs.append(c0 - c1)

    if eq_rows:
        sol = solve_affine(eq_rows, eq_rhs)
        if sol is None:
            return None
        part, basis = list(sol.particular), [list(b) for b in sol.basis]
    else:
        part = [Fraction(0)] * nv
        basis = [
            [Fraction(1) if t == s else Fraction(0) for t in range(nv)]
            for s in range(nv)
        ]

    # Least squares for sum_j ell_j(x)^2 with x = part + basis . y.
    kdim = len(basis)
    rows_a: list[list[Fraction]] = []
    rhs_b: list[Fraction] = []
    for j, pairs in enumerate(pattern):
        p = sample[j]
        a0, b0 = pairs[0]
        v0 = coeff(a0, b0)
        const = sum(v0[t] * part[t] for t in range(nv)) - (p[a0] - p[b0])
        rows_a.append([sum(v0[t] * basis[s][t] for t in range(nv)) for s in range(kdim)])
        rhs_b.append(const)

    if kdim:
        ata = [
            [
                sum(rows_a[j][s] * rows_a[j][t] for j in range(len(rows_a)))
                for t in range(kdim)
            ]
            for s in range(kdim)
        ]
        atb = [
            -sum(rows_a[j][s] * rhs_b[j] for j in range(len(rows_a)))
            for s in range(kdim)
        ]
        ysol = solve_affine(ata, atb)
        assert ysol is not None
        y = ysol.particular
        x = [part[t] + sum(basis[s][t] * y[s] for s in range(kdim)) for t in range(nv)]
    else:
        x = part
    return canonicalize([Fraction(0)] + x)


def _consistent(
    sample: SampleSet, pattern: list[list[tuple[int, int]]], cand: TorusPoint
) -> bool:
    """The pattern's representative piece must attain the distance at cand."""
    xs = list(cand.coords)
    for j, pairs in enumerate(pattern):
        p = sample[j]
        a0, b0 = pairs[0]
        value = (xs[a0] - xs[b0]) - (p[a0] - p[b0])
        if value != trop_dist(xs, p):
            return False
    return True
