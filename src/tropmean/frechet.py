"""Fréchet means under the tropical metric.

The objective c(x) = sum_j d_tr(x, p_j)^2 is piecewise quadratic and convex
on the torus.  Two routes live here:

* ``greedy_frechet``: coordinate-pair descent with the diminishing step
  schedule 2/(k+2) and monotone acceptance, entirely in rational arithmetic.
* ``exact_frechet``: one epigraph quadratic program, started at the
  coordinatewise average, whose optimum is the exact mean and whose KKT
  multipliers are its positivity certificate; the certificate is checked
  independently before the mean is reported as exact.
  ``find_certificate`` hands out that certificate for any point whose
  objective equals its certified minimum.

``fm_polytrope`` gives the h-description of the full mean set, obtained by
intersecting the tropical balls around the samples with the per-sample
optimal radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence

from .certify import Certificate, piece_for, verify_certificate
from .core import (
    RationalLike,
    SampleSet,
    TorusPoint,
    as_rational,
    canonicalize,
    trop_dist,
)
from .errors import NotOptimal
from .polytrope import PolytropeMatrix, segment_breakpoints
from .qp import Edge, QPError, minimize_qp

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
    return _mean_set(sample, [trop_dist(mean, p) for p in sample])


def _mean_set(sample: SampleSet, dists: Sequence[Fraction]) -> PolytropeMatrix:
    """The intersection of the balls B(p_j, d_j) given the distances d_j."""
    n = sample.n
    # The maximum runs over integers on one common denominator.
    den = lcm(*(v.denominator for v in dists), *(c.denominator for p in sample for c in p))
    dn = [v.numerator * (den // v.denominator) for v in dists]
    pn = [[c.numerator * (den // c.denominator) for c in p] for p in sample]
    rows = []
    for i in range(n):
        row = []
        for kk in range(n):
            if i == kk:
                row.append(Fraction(0))
            else:
                row.append(Fraction(max(p[i] - p[kk] - dj for p, dj in zip(pn, dn)), den))
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
    chain = segment_breakpoints(p2, p1)  # runs from p1 to p2
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


def exact_frechet(sample: SampleSet) -> FrechetResult:
    """Exact Fréchet mean with a verified optimality certificate.

    Solves the epigraph quadratic program once, started at the
    coordinatewise average of the sample, and reads the certificate off
    the multipliers of its optimum.  The result is reported with
    ``exact=True`` only after ``verify_certificate`` accepts that
    certificate and its value equals the objective at the mean.  When the
    program fails with a QPError or a check fails, the start point comes
    back flagged ``exact=False``.
    """
    start = canonicalize(
        [sum((p[a] for p in sample), Fraction(0)) / sample.m for a in range(sample.n)]
    )
    try:
        mean, cert = _epigraph_qp(sample, start)
    except QPError:
        return _result_at(sample, start)
    result = _result_at(sample, mean, cert)
    if cert.c_star == result.min_sum and verify_certificate(sample, cert):
        return result
    return _result_at(sample, start)


def _result_at(
    sample: SampleSet, mean: TorusPoint, cert: Certificate | None = None
) -> FrechetResult:
    """The result at ``mean``, flagged exact when a ``cert`` is given."""
    dists = tuple(trop_dist(mean, p) for p in sample)
    return FrechetResult(
        mean=mean,
        distances=dists,
        min_sum=sum((d * d for d in dists), Fraction(0)),
        fm_polytrope=_mean_set(sample, dists),
        exact=cert is not None,
        certificate=cert,
    )


def find_certificate(sample: SampleSet, x_star: TorusPoint) -> Certificate:
    """The verified certificate of ``exact_frechet``, when x_star is a mean.

    A certificate proves objective >= c_star everywhere and names no point,
    so x_star is a Fréchet mean exactly when its objective equals the
    certified minimum; the certificate then proves its optimality.  Raises
    NotOptimal when x_star's objective is higher, or when no mean of the
    sample could be certified.
    """
    result = exact_frechet(sample)
    if not result.exact:
        raise NotOptimal("could not certify a mean for this sample")
    value = objective(sample, x_star.coords)
    if value != result.min_sum:
        raise NotOptimal(f"objective {value} exceeds the certified minimum {result.min_sum}")
    return result.certificate


def _epigraph_qp(sample: SampleSet, start: TorusPoint) -> tuple[TorusPoint, Certificate]:
    """Global minimizer and its certificate from one exact quadratic program.

    The split program writes d(x, p_j) = u_j - l_j and minimizes
    sum (u_j - l_j)^2 over x_2..x_n, u and l subject to u_j - x_i >= -p_{j,i}
    and x_k - l_j >= p_{j,k} for all i, k: 2nm difference rows, the edges
    ``minimize_qp`` takes.  The start lifts with u_j and l_j at the max and
    min of x - p_j, and so does the optimum.

    With multipliers alpha_ji and beta_jk on those rows, stationarity in u_j
    and l_j gives sum_i alpha_ji = sum_k beta_jk = 2 t_j, t_j = u_j - l_j, and
    in x gives sum_j (sum_i alpha_ji e_i - sum_k beta_jk e_k) = 0.  So the
    product weights w_jik = alpha_ji beta_jk / (2 t_j)^2, on pieces active at
    t_j, are a positivity certificate (see ``certify``): their combined
    gradient sum_j 2 t_j sum_ik w_jik (e_i - e_k) vanishes.  Pieces are
    reported as their i < k representative; a sample with t_j = 0 is the mean
    itself, and weight 1 on piece (0, 1) serves.
    """
    n = sample.n
    m = sample.m
    nv = n - 1
    nvars = nv + 2 * m
    zero = Fraction(0)

    h = [[zero] * nvars for _ in range(nvars)]
    for u in range(nv, nv + m):
        h[u][u] = h[u + m][u + m] = Fraction(2)
        h[u][u + m] = h[u + m][u] = Fraction(-2)
    g = [zero] * nvars

    # Sample j's n rows of u_j, then its n rows of l_j: row r is sample r // 2n.
    # x_1 is the ground, and x_2..x_n are variables 0..n-2.
    xs = [None, *range(nv)]
    edges: list[Edge] = []
    d: list[Fraction] = []
    for j in range(m):
        edges += [(nv + j, x) for x in xs]
        edges += [(x, nv + m + j) for x in xs]
        d += [-c for c in sample[j]] + list(sample[j])

    x = start.coords
    gaps = [[a - b for a, b in zip(x, p)] for p in sample]
    z0 = [*x[1:], *map(max, gaps), *map(min, gaps)]
    c_star, z, active, lam = minimize_qp(h, g, edges, d, z0)

    # Per sample, its alpha and its beta by coordinate.
    sides: list[tuple[dict[int, Fraction], ...]] = [({}, {}) for _ in range(m)]
    for r, value in zip(active, lam):
        if value:
            j, s = divmod(r, 2 * n)
            sides[j][s // n][s % n] = value
    weights = []
    for j, (alpha, beta) in enumerate(sides):
        total = sum(alpha.values(), zero) * sum(beta.values(), zero)
        if not total:
            alpha, beta, total = {0: Fraction(1)}, {1: Fraction(1)}, 1
        per = {
            (min(i, k), max(i, k)): a * b / total
            for i, a in alpha.items()
            for k, b in beta.items()
        }
        pieces = sorted(per.items())
        weights.append(tuple((piece_for(sample, j, i, k), w) for (i, k), w in pieces))
    return canonicalize([zero] + z[:nv]), Certificate(c_star, tuple(weights))
