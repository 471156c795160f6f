"""Exact primal active-set solver for small optimal-tension quadratic programs.

Minimizes a sum of squares q(z) = sum_s (z_a - z_b - c_s)^2 subject to
difference constraints z_a - z_b >= d, with integer data, on the nodes
0, 1, ..., node 0 the ground held at zero, as x_1 is in canonical form.
These are optimal-tension problems (Rockafellar, *Network Flows and
Monotropic Optimization*, 1984).  The method is the classical one: keep a
working set W of constraints treated as equalities, minimize q on the
corresponding affine subspace, either step to the nearest blocking
constraint or, once stationary, inspect the multipliers.  Blocking rows are
always independent of the working set, so multipliers stay unique, and the
multipliers of the optimum are returned with it.

At a stationary point the row with the most negative multiplier leaves W,
ties going to the lowest row index (Dantzig's rule).  After
``DEGENERATE_STEPS`` steps of length zero in a row, the lowest-index
negative row leaves instead, until a step has positive length; with the
ratio test's lowest-index blocking row that is Bland's rule (Bland, "New
finite pivoting rules for the simplex method", 1977), which cannot cycle at
one point.  So the loop ends: q never rises and falls strictly on a step of
positive length, a stationary point minimizes q over its W's subspace, so
no W is stationary twice across such a step, and the fallback ends every
run of zero-length steps.

An independent set of difference rows is a forest on the nodes, and the
loop keeps W as one across iterations: per node its component label and its
W rows, per component its nodes in increasing order.

* Join: a row whose ends lie in two components enters, and the smaller
  component takes the larger one's label.  A blocking row always joins two.
  The starting W joins the tight rows in order, keeping a row exactly when
  greedy order finds it independent of the rows before it.
* Split: a dropped row leaves, and a walk from one of its ends over the
  rows left collects that side of its tree under a fresh label.
* The nullspace is spanned by the indicator vectors of the components
  without the ground, and that is exactly the basis read off the RREF of its
  rows: in a component of k nodes joined by k - 1 rows any k - 1 columns
  are independent, so the pivots are its k - 1 lowest nodes, the free
  column is its highest, and the RREF vector of that column is 1 on the
  component; the vectors come in the order of their free columns.  So the
  steps are those of the loop that takes its basis from the RREF.
* The multipliers, the flow dual to the tension, come from one rooted pass
  per tree: rooted at its smallest node, the ground when it holds it, each
  node in reverse walk order hands its residual to the row to its parent as
  that row's multiplier, and on to the parent.

The data are integers, and so is every step of the loop; its iterates are
exactly those of the same loop over the rationals:

* z is kept as an integer vector over one denominator, z = zn / zd, reduced
  by the gcd after each move, and the gradient of q as the integer vector
  zd times it, the sum over the squares of 2 r (e_a - e_b) with the
  residual r = zn_a - zn_b - c zd.
* The ratio test walks the rows once.  A slack is computed, as
  zn_a - zn_b - d zd, only for a row the step moves toward, the only rows
  that can block.  Step lengths are compared by integer cross-multiplication,
  in the same row order and with the same strict comparison as over the
  rationals, so the blocking rows are the same too.
* The reduced system, symmetric positive semidefinite as a sum of squares
  makes it, is built from the squares and solved by one
  ``linalg.integer_solve``, which takes its pivots from the diagonal.

A program with rational data is put on integers by its caller: scaling z,
and with it every c and d, by one positive factor changes no working set,
step or blocking row.

Exact arithmetic removes every tolerance question; the iteration cap is a
safety net and is never reached on the problem sizes this package solves.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import integer_solve

Edge = tuple[int, int]
Square = tuple[int, int, int]

MAX_ITER = 10_000
DEGENERATE_STEPS = 12


class QPError(RuntimeError):
    pass


def minimize_qp(
    squares: list[Square], edges: list[Edge], d: list[int], z0: list[int]
) -> tuple[Fraction, tuple[int, list[int]], list[int], list[int]]:
    """Solve min sum (z_a - z_b - c)^2 over the squares (a, b, c)
    s.t.  z_a - z_b >= d[r] for each edge r = (a, b).

    Node 0 is the ground, held at zero: the edge (a, 0) reads z_a >= d[r]
    and (0, b) reads -z_b >= d[r].  z0 must be feasible, zero at node 0 too.
    All data are ints.  Returns (optimal value, (zd, zn), active rows, u):
    the optimizer z = zn / zd with zd > 0 and zn[0] == 0, the rows of the
    final working set in increasing order, and their multipliers lam = u / zd
    over the same zd, lam >= 0 in the same order, with sum_r lam_r (e_a - e_b)
    the gradient of the sum off the ground.
    """
    zd, zn = 1, list(z0)
    slacks = [zn[a] - zn[b] - v for (a, b), v in zip(edges, d)]
    if zn[0] or any(s < 0 for s in slacks):
        raise QPError("infeasible starting point")
    work = Forest(edges, len(zn))
    for i, s in enumerate(slacks):
        if s == 0:
            work.join(i)
    degenerate = 0

    for _ in range(MAX_ITER):
        # The ground's entry of grad collects what no other node takes.
        grad = [0] * len(zn)
        res = [zn[a] - zn[b] - c * zd for a, b, c in squares]
        for (a, b, _), r in zip(squares, res):
            grad[a] += 2 * r
            grad[b] -= 2 * r
        sd, sn = _subspace_step(squares, grad, nullspace(work), zd)
        if not any(sn):
            u = work.multipliers(grad)
            neg = [(v, r) for r, v in u.items() if v < 0]
            if not neg:
                active = sorted(u)
                value = Fraction(sum(r * r for r in res), zd * zd)
                return value, (zd, zn), active, [u[r] for r in active]
            work.split(min(neg)[1] if degenerate < DEGENERATE_STEPS else min(r for _, r in neg))
            continue
        # Row i's limit slack_i / (-row_i.step) is (slack / -prod) times
        # sd/zd with slack = zn_a - zn_b - d_i zd, so the limits compare as
        # slack / -prod, starting from zd/sd (a full step).  Only a row with
        # prod < 0 can block; working-set rows have prod == 0.
        best_num, best_den = zd, sd
        blocker = None
        for i, (a, b) in enumerate(edges):
            prod = sn[a] - sn[b]
            if prod < 0:
                num = zn[a] - zn[b] - d[i] * zd
                if num * best_den < best_num * -prod:
                    best_num, best_den = num, -prod
                    blocker = i
        degenerate = 0 if best_num else degenerate + 1
        if best_num:
            # z + alpha step with alpha = best_num sd / (best_den zd).
            zn = [best_den * a + best_num * b for a, b in zip(zn, sn)]
            zd *= best_den
            div = gcd(zd, *zn)
            if div > 1:
                zd //= div
                zn = [v // div for v in zn]
        if blocker is not None:
            work.join(blocker)
    raise QPError("active-set iteration cap exceeded")


class Forest:
    """A working set of rows with ``ends`` on the nodes 0..nodes-1, 0 the ground.

    ``label`` holds each node's component, ``members`` each component's nodes
    in increasing order and ``at`` each node's rows in the forest.
    """

    def __init__(self, ends: list[Edge], nodes: int) -> None:
        self.ends = ends
        self.label = list(range(nodes))
        self.members = {t: [t] for t in range(nodes)}
        self.at: list[list[int]] = [[] for _ in range(nodes)]
        self.fresh = nodes

    def join(self, r: int) -> bool:
        """Add row r when its ends lie in two components; says whether it did."""
        a, b = self.ends[r]
        keep, gone = self.label[a], self.label[b]
        if keep == gone:
            return False
        if len(self.members[keep]) < len(self.members[gone]):
            keep, gone = gone, keep
        moved = self.members.pop(gone)
        for t in moved:
            self.label[t] = keep
        self.members[keep] = sorted(self.members[keep] + moved)
        self.at[a].append(r)
        self.at[b].append(r)
        return True

    def split(self, r: int) -> None:
        """Remove row r, which is in the forest."""
        a, b = self.ends[r]
        self.at[a].remove(r)
        self.at[b].remove(r)
        side, _ = self._walk(a)
        old, new = self.label[a], self.fresh
        self.fresh += 1
        for t in side:
            self.label[t] = new
        self.members[new] = sorted(side)
        self.members[old] = [t for t in self.members[old] if self.label[t] == old]

    def multipliers(self, grad: list[int]) -> dict[int, int]:
        """u by row with sum_r u_r (e_a - e_b) = grad off the ground over the
        forest's rows (a, b); each tree is rooted at its smallest node, and a
        residual left at a root other than the ground is an inconsistency."""
        residual = list(grad)
        u = {}
        for group in self.members.values():
            order, up = self._walk(group[0])
            for t in order[:0:-1]:
                r = up[t]
                res = residual[t]
                a, b = self.ends[r]
                u[r], other = (res, b) if a == t else (-res, a)
                residual[other] += res
            if residual[group[0]] and group[0]:
                raise QPError("stationary point with inconsistent multiplier system")
        return u

    def _walk(self, root: int) -> tuple[list[int], dict[int, int | None]]:
        """The nodes of root's tree, each after its parent, and each node's
        row to its parent, None for the root."""
        order = [root]
        up: dict[int, int | None] = {root: None}
        for t in order:
            for r in self.at[t]:
                if r != up[t]:
                    a, b = self.ends[r]
                    other = b if a == t else a
                    up[other] = r
                    order.append(other)
        return order, up


def _subspace_step(
    squares: list[Square], grad: list[int], groups: list[list[int]], zd: int
) -> tuple[int, list[int]]:
    """Minimize the sum of squares along z + span(B); returns the step as (sd, sn).

    The columns of B are the indicator vectors of the groups.  With grad
    zd times the gradient, the reduced system (B^T H B) u = -B^T grad, H the
    Hessian of the sum, is solved by u = zd y, y the rational solution.
    With den the common denominator of u, the step B y is sn / sd with
    sn = B (den u) and sd = den zd, both divided by their gcd.
    """
    group_of = [-1] * len(grad)
    for a, group in enumerate(groups):
        for t in group:
            group_of[t] = a
    red = [[0] * len(groups) + [-sum(grad[t] for t in group)] for group in groups]
    # A square on nodes a and b adds 2 (e_a - e_b)(e_a - e_b)^T to H, so
    # 2 (f_p - f_q)(f_p - f_q)^T to B^T H B, p and q the groups of a and b.
    for a, b, _ in squares:
        p, q = group_of[a], group_of[b]
        if p != q:
            if p >= 0:
                red[p][p] += 2
            if q >= 0:
                red[q][q] += 2
                if p >= 0:
                    red[p][q] -= 2
                    red[q][p] -= 2
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


def nullspace(work: Forest) -> list[list[int]]:
    """Basis of {z : z_0 = 0 and z_a = z_b for every row (a, b) of the forest}.

    The basis is the indicator vectors of the components that do not hold
    the ground, node 0, in the order of their largest node, each given as
    its nodes in increasing order.
    """
    groups = [group for group in work.members.values() if group[0]]
    return sorted(groups, key=lambda group: group[-1])

