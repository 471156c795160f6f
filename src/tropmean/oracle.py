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
settled where the walk reaches it, in one way: by the sample's epigraph
program (``qp``) pinned to the assignment, which is the chosen squares
over the region, started at the region's feasible point.  Its value is
the region minimum and its optimizer the leaf's candidate witness.
Nothing is pruned by value: each chosen square is at most its sample's
squared distance, so a prefix's least sum never exceeds the optimum, and
no bound of that kind could cut a branch.

The module is deliberately independent of the one exact route in
``frechet``, a single epigraph program started at the average: its region
walk and its Bellman-Ford pass are its own, and it shares one kernel,
``qp.minimize_qp`` run pinned to a region, so the tests can confront the
two routes on equal terms.

The walk runs on the sample's fields, its integers over one common
denominator den, in the coordinates X = den x: regions, feasible points
and pinned programs are integers, and a region minimum is a pair
(num, den') of integers, den' > 0, in units of 1/den^2, compared with
another by cross-multiplying.  Only the returned value and witness are
scaled back, and the value is the one Fraction a walk builds.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .core import SampleSet, TorusPoint
from .errors import InternalError, TropmeanError
from .qp import minimize_qp, right_hand_sides

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
            # A leaf: the sample's epigraph program pinned to the assignment,
            # started at the feasible point, whose value comes over zd^2.
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
