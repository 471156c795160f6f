"""Exhaustive ground truth for small Fréchet mean instances.

One piece per sample is chosen out of the n(n-1) ordered coordinate pairs;
the sum of the chosen squared pieces is minimized over the region where
every chosen piece attains its sample's maximum.  On that region the
restricted sum equals the true objective, and the regions cover the torus,
so the least of the restricted minima is the exact global minimum.

The walk over assignments is a plain depth-first walk over the feasible
regions.  A region prefix is a system of difference constraints
x_i - x_k >= c, so feasibility and a feasible point come from a
Bellman-Ford pass rather than an LP.  Each child takes its own copy of the
parent's region tightened by its pair, so the walk undoes nothing, and an
infeasible child is dropped with everything below it.  Each leaf is
settled where the walk reaches it, from the normal equations of its m
chosen squares: by their free minimizer when that already lies inside the
region, and otherwise by the sample's epigraph program (``qp``) pinned to
the assignment, which is the chosen squares over the region, started at
the region's feasible point.  Nothing is pruned by value: each chosen
square is at most its sample's squared distance, so a prefix's least sum
never exceeds the optimum, and no bound of that kind could cut a branch.

The module is deliberately independent of the one exact route in
``frechet``, a single epigraph program started at the average: it shares
only the kernels of ``qp``, ``minimize_qp`` and ``integer_solve``, and its
region enumeration and the normal equations of its leaves,
``add_square`` and ``min_quadratic``, are its own, so the tests can
confront the two routes on equal terms.

The walk runs on the sample's fields, its integers over one common
denominator den, in the coordinates X = den x: regions, feasible points,
squares, normal equations and pinned programs are integers, and a region
minimum is a pair (num, den') of integers, den' > 0, in units of
1/den^2, compared with another by cross-multiplying.  Only the returned
value and witness are scaled back, and the value is the one Fraction a
walk builds.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from .core import SampleSet, TorusPoint
from .errors import InternalError, TropmeanError
from .qp import integer_solve, minimize_qp, right_hand_sides

Assignment = tuple[tuple[int, int], ...]

# Cap on the optimal-assignment list; desk-scale instances stay far below
# it, degenerate handcrafted ones will not starve memory.
MAX_ASSIGNMENTS = 10_000

# Cap on the assignments a walk may cover, checked before any work.
BUDGET = 10**6


class BudgetExceeded(TropmeanError):
    """Raised when the assignments to walk would exceed the work budget."""


def brute_force_frechet(sample: SampleSet) -> tuple[Fraction, TorusPoint, list[Assignment]]:
    """Exact minimum, one witness minimizer, and all optimal assignments.

    Raises BudgetExceeded when (n(n-1))^m exceeds the module's ``BUDGET``,
    before any work is done.  One depth-first walk settles each leaf region
    where it reaches it, and nothing is deferred: the witness comes from the
    first region (in depth-first lexicographic order) that attains the
    minimum, and the assignments are those of the optimal regions in the
    same order, the first ``MAX_ASSIGNMENTS`` of them.  An assignment holds
    ordered (i, k) pairs, one per sample, where the pair means coordinate i
    realizes the max and k the min of x - p_j.
    """
    n = sample.n
    m = sample.m
    count = (n * (n - 1)) ** m
    if count > BUDGET:
        raise BudgetExceeded(f"{count} assignments exceed budget {BUDGET}")

    pairs = [(i, k) for i in range(n) for k in range(n) if i != k]
    nv = n - 1
    den, nums = sample.den, sample.nums
    d = right_hand_sides(nums)
    # The least region minimum settled so far, times den^2, as (num, den').
    best: tuple[int, int] | None = None
    witness: tuple[int, Sequence[int]] = (1, ())  # its point, integers over a denominator
    winners: list[Assignment] = []

    def descend(chosen: Assignment, region: list[list[int | None]]) -> None:
        """Walk the children of the prefix ``chosen``, whose region bounds
        x_i - x_k below by region[i][k], None while unconstrained."""
        nonlocal best, witness
        p = nums[len(chosen)]
        for i, k in pairs:
            # Choosing (i, k) for p forces x_i - x_t >= p_i - p_t and
            # x_t - x_k >= p_t - p_k for every t.
            sub = [row[:] for row in region]
            for t in range(n):
                for lo, hi in ((i, t), (t, k)):
                    gap = p[lo] - p[hi]
                    if lo != hi and (sub[lo][hi] is None or gap > sub[lo][hi]):
                        sub[lo][hi] = gap
            feas = _difference_point(sub, n)
            if feas is None:
                continue
            here = chosen + ((i, k),)
            if len(here) < m:
                descend(here, sub)
                continue
            # A leaf: the free minimizer of its squares when it lies inside,
            # else the sample's epigraph program pinned to the assignment,
            # started at the feasible point, whose value comes over zd^2.
            a, b = [[0] * nv for _ in range(nv)], [0] * nv
            c = sum(add_square(a, b, ci, ck, q[ci] - q[ck], 1) for (ci, ck), q in zip(here, nums))
            (num, vd), point = min_quadratic(a, b, c)
            if not _inside(sub, point):
                num, point, _, _ = minimize_qp(n, [v - feas[0] for v in feas], d, here)
                vd = point[0] * point[0]
            if best is None or num * best[1] < best[0] * vd:
                best, witness = (num, vd), point
                winners.clear()
            if num * best[1] == best[0] * vd and len(winners) < MAX_ASSIGNMENTS:
                winners.append(here)

    descend((), [[None] * n for _ in range(n)])
    if best is None:
        raise InternalError("no feasible region, though the regions cover the torus")
    wd, wn = witness
    return Fraction(best[0], best[1] * den * den), TorusPoint(wd * den, tuple(wn)), winners


def _inside(region: list[list[int | None]], x: tuple[int, Sequence[int]]) -> bool:
    """Whether x_i = xn[i] / xd, x = (xd, xn), lies in the region."""
    xd, xn = x
    return all(
        c is None or xi - xk >= c * xd for row, xi in zip(region, xn) for c, xk in zip(row, xn)
    )


def _difference_point(region: list[list[int | None]], n: int) -> list[int] | None:
    """A vector with x_i - x_k >= region[i][k] everywhere, or None.

    Bellman-Ford on the constraint graph: an entry c at (i, k) is the edge
    x_k <= x_i - c.  All potentials start at zero, which plays the role of
    a virtual source connected to every node.
    """
    dist = [0] * n
    for sweep in range(n + 1):
        changed = False
        for i in range(n):
            row = region[i]
            di = dist[i]
            for k in range(n):
                c = row[k]
                if c is not None and dist[k] > di - c:
                    dist[k] = di - c
                    changed = True
        if not changed:
            return dist
    return None


def add_square(a: list[list[int]], b: list[int], i: int, k: int, c: int, w: int) -> int:
    """Add w (x_i - x_k - c)^2 to the integer normal equations A y = b, in
    place.

    That is w (e_i - e_k)(e_i - e_k)^T on A and w c (e_i - e_k) on b, so w
    and w c are added or subtracted directly: +w on A's two diagonal entries
    and -w on its two off-diagonal ones, +w c at i and -w c at k on b.
    y = (x_2, ..., x_n) is the gauge x_1 = 0, so a piece that touches x_1
    adds to one row only.  Returns the square's share w c^2 of the constant
    term.
    """
    i, k = i - 1, k - 1
    wc = w * c
    if i >= 0:
        b[i] += wc
        a[i][i] += w
    if k >= 0:
        b[k] -= wc
        a[k][k] += w
        if i >= 0:
            a[i][k] -= w
            a[k][i] -= w
    return wc * c


def min_quadratic(
    a: list[list[int]], b: list[int], c0: int
) -> tuple[tuple[int, int], tuple[int, tuple[int, ...]]]:
    """Exact global minimum of y.A.y - 2 b.y + c0, the sum of squares whose
    integer normal equations ``add_square`` built.

    A y = b is solved by ``integer_solve``, which takes A symmetric
    positive semidefinite and the system consistent, as the normal
    equations of a sum of squares are, and gives y = nums / den with its
    free coordinates at zero.  At y the value is c0 - b.y.  Returns the
    minimum as (c0 den - b.nums, den) and the minimizer, padded back to
    full n-length coordinates with x_1 = 0, as (den, nums): x_i =
    nums[i] / den.
    """
    den, nums = integer_solve([[*row, rhs] for row, rhs in zip(a, b)])
    return (c0 * den - sum(map(mul, b, nums)), den), (den, (0, *nums))
