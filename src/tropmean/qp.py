"""Exact primal active-set solver for small optimal-tension quadratic programs.

Minimizes q(z) = 1/2 z^T H z + g^T z subject to difference constraints
z_a - z_b >= d, where H is positive semidefinite and given by its nonzero
entries per row, the data are integers and either end of a constraint may
be the ground, a node held at zero.
These are optimal-tension problems (Rockafellar, *Network Flows and
Monotropic Optimization*, 1984).  The method is the classical one: keep a
working set W of constraints treated as equalities, minimize q on the
corresponding affine subspace, either step to the nearest blocking
constraint or, once stationary, inspect the multipliers.  Blocking rows are
always independent of the working set, so multipliers stay unique, and the
multipliers of the optimum are returned with it.

An independent set of difference rows is a forest on the variables and the
ground, so the working set needs no elimination:

* Its nullspace is spanned by the indicator vectors of the components
  without the ground, and that is exactly the basis read off the RREF of its
  rows: in a component of k variables joined by k - 1 rows any k - 1 columns
  are independent, so the pivots are its k - 1 lowest variables, the free
  column is its highest, and the RREF vector of that column is 1 on the
  component; the vectors come in the order of their free columns.  So the
  steps are those of the loop that takes its basis from the RREF.
* A tight row enters the starting working set exactly when it joins two
  components, which is when greedy order finds it independent of the rows
  before it.
* Its multipliers, the flow dual to the tension, come from peeling leaves.

The data are integers, and so is every step of the loop; its iterates are
exactly those of the same loop over the rationals:

* z is kept as an integer vector over one denominator, z = zn / zd, reduced
  by the gcd after each move, and the gradient H z + g as the integer
  vector zd * (H z + g).
* The ratio test walks the rows once.  A slack is computed, as
  zn_a - zn_b - d zd, only for a row the step moves toward, the only rows
  that can block.  Step lengths are compared by integer cross-multiplication,
  in the same row order and with the same strict comparison as over the
  rationals, so the blocking rows are the same too.
* The reduced system is solved by one ``linalg.integer_solve``.

A program with rational data is put on integers by its caller: scaling z by
a positive factor, and the objective by another, changes no working set,
step or blocking row.

Exact arithmetic removes every tolerance question; the iteration cap is a
safety net and is never reached on the problem sizes this package solves.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import integer_solve

IntSparse = list[tuple[int, int]]
Edge = tuple[int | None, int | None]

MAX_ITER = 10_000


class QPError(RuntimeError):
    pass


def minimize_qp(
    h: list[IntSparse], g: list[int], edges: list[Edge], d: list[int], z0: list[int]
) -> tuple[Fraction, tuple[int, list[int]], list[int], list[int]]:
    """Solve min 1/2 z^T H z + g^T z  s.t.  z_a - z_b >= d[r] for each edge r = (a, b).

    Either end of an edge may be None, the ground, which is held at zero:
    (a, None) reads z_a >= d[r] and (None, b) reads -z_b >= d[r].  z0 must
    be feasible.  H is symmetric positive semidefinite, given as the
    nonzero entries (column, value) of each of its rows.  All data are ints.
    Returns (optimal value, (zd, zn), active rows, u): the optimizer
    z = zn / zd with zd > 0, the rows of the final working set in increasing
    order, and their multipliers lam = u / zd over the same zd, lam >= 0 in
    the same order, with sum_r lam_r (e_a - e_b) = H z + g.
    """
    nvars = len(z0)
    # Node nvars is the ground: zn and every step hold a zero there.
    ends = [(nvars if a is None else a, nvars if b is None else b) for a, b in edges]
    zd, zn = 1, [*z0, 0]
    slacks = [zn[a] - zn[b] - v for (a, b), v in zip(ends, d)]
    if any(s < 0 for s in slacks):
        raise QPError("infeasible starting point")
    work = _independent_subset(ends, [i for i, s in enumerate(slacks) if s == 0], nvars)

    for _ in range(MAX_ITER):
        grad = [_idot(row, zn) + v * zd for row, v in zip(h, g)]
        ends_w = [ends[i] for i in work]
        sd, sn = _subspace_step(h, grad, nullspace(ends_w, nvars), zd)
        if not any(sn):
            u = _multipliers(ends_w, grad)
            neg = [i for i, v in zip(work, u) if v < 0]
            if not neg:
                # zn.grad = zn^T H zn + zd g.zn, all over zd^2.
                value = Fraction(_dot(zn, grad) + zd * _dot(g, zn), 2 * zd * zd)
                order = sorted(range(len(work)), key=work.__getitem__)
                return value, (zd, zn[:nvars]), [work[a] for a in order], [u[a] for a in order]
            work.remove(min(neg))
            continue
        sn.append(0)
        # Row i's limit slack_i / (-row_i.step) is (slack / -prod) times
        # sd/zd with slack = zn_a - zn_b - d_i zd, so the limits compare as
        # slack / -prod, starting from zd/sd (a full step).  Only a row with
        # prod < 0 can block; working-set rows have prod == 0.
        best_num, best_den = zd, sd
        blocker = None
        for i, (a, b) in enumerate(ends):
            prod = sn[a] - sn[b]
            if prod < 0:
                num = zn[a] - zn[b] - d[i] * zd
                if num * best_den < best_num * -prod:
                    best_num, best_den = num, -prod
                    blocker = i
        if best_num:
            # z + alpha step with alpha = best_num sd / (best_den zd).
            zn = [best_den * a + best_num * b for a, b in zip(zn, sn)]
            zd *= best_den
            div = gcd(zd, *zn)
            if div > 1:
                zd //= div
                zn = [v // div for v in zn]
        if blocker is not None:
            work.append(blocker)
    raise QPError("active-set iteration cap exceeded")


def _idot(row: IntSparse, x: list[int]) -> int:
    acc = 0
    for t, v in row:
        acc += v * x[t]
    return acc


def _dot(x: list[int], y: list[int]) -> int:
    return sum(a * b for a, b in zip(x, y))


def _subspace_step(
    hs: list[IntSparse], grad: list[int], groups: list[list[int]], zd: int
) -> tuple[int, list[int]]:
    """Minimize the quadratic along z + span(B); returns the step as (sd, sn).

    The columns of B are the indicator vectors of the groups.  With grad =
    zd (H z + g), the reduced system
    (B^T H B) u = -B^T grad is solved by u = zd y, y the rational solution.
    With den the common denominator of u, the step B y is sn / sd with
    sn = B (den u) and sd = den zd, both divided by their gcd.
    """
    group_of = [-1] * len(grad)
    for a, group in enumerate(groups):
        for t in group:
            group_of[t] = a
    red = [[0] * len(groups) + [-sum(grad[t] for t in group)] for group in groups]
    # Entry (a, b) of B^T H B sums H over the rows in group a and the
    # columns in group b; row t of hs is row t of the symmetric H.
    for b, group in enumerate(groups):
        for t in group:
            for s, hv in hs[t]:
                a = group_of[s]
                if a >= 0:
                    red[a][b] += hv
    solved = integer_solve(red)
    if solved is None:
        # Cannot happen for a quadratic bounded below on the subspace.
        raise QPError("unbounded equality subproblem")
    den, nums = solved
    sn = [0] * len(grad)
    for group, coef in zip(groups, nums):
        for t in group:
            sn[t] += coef
    div = gcd(den, *sn)
    return den * zd // div, [v // div for v in sn]


def nullspace(ends: list[tuple[int, int]], nvars: int) -> list[list[int]]:
    """Basis of {z : z_a = z_b for every row (a, b)}, node nvars being the ground.

    The basis is the indicator vectors of the components that do not hold
    the ground, in the order of their largest variable, each given as its
    variables in increasing order.
    """
    parent, _ = _forest(ends, nvars)
    members: dict[int, list[int]] = {}
    for t in range(nvars + 1):
        r = t
        while r != parent[r]:
            r = parent[r]
        parent[t] = r
        members.setdefault(r, []).append(t)
    del members[parent[nvars]]
    return sorted(members.values(), key=lambda group: group[-1])


def _multipliers(ends: list[tuple[int, int]], grad: list[int]) -> list[int]:
    """Solve sum_r u_r (e_a - e_b) = grad over the working-set rows (a, b).

    The working set is a forest, solved by peeling its leaves: a leaf
    variable t has one row left, whose multiplier is the residual of t, or
    its negative when t is the row's end b; the row's other end takes that
    residual on.  A residual left at a root without a row is an
    inconsistency.  The ground, node len(grad), is never peeled.
    """
    nvars = len(grad)
    at: list[list[int]] = [[] for _ in range(nvars + 1)]
    for r, (a, b) in enumerate(ends):
        at[a].append(r)
        at[b].append(r)
    degree = [len(rs) for rs in at]
    residual = [*grad, 0]
    u = [0] * len(ends)
    done = [False] * len(ends)
    leaves = [t for t in range(nvars) if degree[t] == 1]
    while leaves:
        t = leaves.pop()
        if degree[t] != 1:
            continue
        r = next(r for r in at[t] if not done[r])
        done[r] = True
        degree[t] = 0
        res = residual[t]
        residual[t] = 0
        a, b = ends[r]
        u[r], other = (res, b) if a == t else (-res, a)
        residual[other] += res
        degree[other] -= 1
        if degree[other] == 1 and other < nvars:
            leaves.append(other)
    if any(residual[:nvars]):
        raise QPError("stationary point with inconsistent multiplier system")
    return u


def _independent_subset(ends: list[tuple[int, int]], rows: list[int], nvars: int) -> list[int]:
    """The rows, in order, that greedy order keeps independent.

    A row is kept exactly when it joins two components of the rows kept
    before it.
    """
    _, kept = _forest([ends[r] for r in rows], nvars)
    return [rows[i] for i in kept]


def _forest(ends: list[tuple[int, int]], nvars: int) -> tuple[list[int], list[int]]:
    """Union-find over the nodes 0..nvars, node nvars being the ground.

    Joins the rows (a, b) in order and returns the parent list and the
    positions of the rows that joined two components.
    """
    parent = list(range(nvars + 1))
    kept = []
    for r, (a, b) in enumerate(ends):
        while a != parent[a]:
            parent[a] = a = parent[parent[a]]
        while b != parent[b]:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            kept.append(r)
    return parent, kept
