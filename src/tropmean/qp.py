"""Exact primal active-set solver for the epigraph program of a sample.

For a sample p_1..p_m in n coordinates, the program minimizes
sum_j (u_j - l_j)^2 subject to u_j - x_i >= -p_{j,i} and
x_k - l_j >= p_{j,k} for all j, i and k, on the nodes x_1..x_n, u_1..u_m,
l_1..l_m, numbered 0, 1, ... in that order; node 0, x_1, is the ground,
held at zero as in canonical form.  Over a fixed x the least u_j - l_j is
the tropical distance, the spread of x - p_j, so the value is the least
sum of squared distances.  Pinning sample j to (i, k) holds its rows
(u_j, x_i) and (x_k, l_j) as equalities, which makes x_i - p_{j,i} the max
and x_k - p_{j,k} the min of x - p_j: the pinned program is the sum of the
squares (x_i - x_k - p_{j,i} + p_{j,k})^2 over the region where they are.

The program is an optimal-tension problem (Rockafellar, *Network Flows and
Monotropic Optimization*, 1984), solved by the classical method: keep a
working set W of rows treated as equalities, minimize the objective on the
corresponding affine subspace, either step to the nearest blocking row or,
once stationary, inspect the multipliers.  Blocking rows are always
independent of the working set, so multipliers stay unique, and the
multipliers of the optimum are returned with it.

At a stationary point the unpinned row with the most negative multiplier
leaves W, ties going to the lowest row index (Dantzig's rule).  The loop is
deterministic given z and W, so a W stationary twice at one point means the
loop is cycling there: the working sets stationary at the current point are
recorded, and once one repeats, the lowest-index negative row leaves
instead, until a step has positive length.  With the ratio test's
lowest-index blocking row that is Bland's rule (Bland, "New finite pivoting
rules for the simplex method", 1977), which cannot cycle at one point.  So
the loop ends: the objective never rises and falls strictly on a step of
positive length, and a stationary point minimizes it over its W's subspace,
so no W is stationary twice across such a step; at one point there are
finitely many working sets, so Dantzig's drops meet a repeat unless a step
of positive length comes first, and Bland's rule ends the run after one.

An independent set of difference rows is a forest on the nodes, and the
loop keeps W as one across iterations: per node its W rows and the name of
its component, the component's smallest node, so the ground's is 0.

Both walks over a tree mark the nodes they reach by their labels: a node
is entered while it still bears the label the walk replaces, so a walk
keeps no parent and no visited set.

* Join: a row whose ends lie in two components enters, and a walk gives
  the component with the larger name the smaller one.  A blocking row
  always joins two.  The starting W joins the pinned rows, a forest since
  each u_j and l_j is a leaf of one, then the tight rows in order, keeping
  a row exactly when greedy order finds it independent of the rows before
  it.
* Split: a dropped row leaves, and a walk from one of its ends over the
  rows left names that side of its tree by its smallest node.  The side
  that holds the tree's name keeps it, so the other end is walked only
  when the first side holds the name.
* The nullspace is spanned by the indicator vectors of the components
  not named 0, those without the ground, each given by its name: one
  backward pass over the labels meets a name first at its largest node.
  That is exactly the basis read off the RREF of its rows: in a component
  of k nodes joined by k - 1 rows any k - 1 columns are independent, so the
  pivots are its k - 1 lowest nodes, the free column is its highest, and
  the RREF vector of that column is 1 on the component; the vectors come in
  the order of their free columns.  So the steps are those of the loop that
  takes its basis from the RREF.
* The multipliers, the flow dual to the tension, come from one rooted pass
  over the forest, each tree rooted at its name, with one list of each
  node's row to its parent: each node in reverse walk order hands its
  residual to that row as its multiplier, and on to the parent.

The data are integers, and so is every step of the loop; its iterates are
exactly those of the same loop over the rationals:

* z is kept as an integer vector over one denominator, z = zn / zd, reduced
  by the gcd after each move.  It starts from one gap list x0 - p_j per
  sample: u_j and l_j are its max and min, and the slacks of sample j's
  rows are u_j - g_i and g_k - l_j, so the tight rows are read off the
  gaps.  An iteration reads the residuals r_j = zn_{u_j} - zn_{l_j} of the
  squares; zd times the gradient, 2 r_j at u_j and -2 r_j at l_j, is built
  only at a stationary point.  The optimal value is the integer sum of
  the r_j^2, read over zd^2.
* The ratio test walks the rows once, one sample's block at a time.  Only
  a row the step moves toward can block: (u_j, x_i) when x_i's step
  exceeds u_j's, (x_k, l_j) when x_k's falls below l_j's, so a side that no
  coordinate's step passes is skipped, and a slack is computed, as
  zn_a - zn_b - d zd, only for such a row.  Step lengths are compared by
  integer cross-multiplication, in the same row order and with the same
  strict comparison as over the rationals, so the blocking rows are the
  same too.  Every slack is >= 0, so the pass stops at the first row that
  blocks at slack zero, which no later row can replace; a step of length
  zero still costs its subspace step.
* The reduced system, symmetric positive semidefinite as a sum of squares
  makes it, is built at half scale from the squares and their residuals
  and solved by one ``integer_solve``, which takes its pivots from the
  diagonal and returns the step in lowest terms.

A sample with rational coordinates is put on integers by the caller:
scaling every node, and with it p, by one positive factor changes no
working set, step or blocking row.

Exact arithmetic removes every tolerance question.  A start off the
program, an inconsistent multiplier system and a step system outside
``integer_solve``'s contract are bugs, not properties of the sample, and
raise InternalError, as does the iteration cap ``MAX_ITER``, which bounds
the time of a loop that ends without it.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from operator import add, mul, sub

from .errors import InternalError

Edge = tuple[int, int]

MAX_ITER = 10_000


def right_hand_sides(nums: Sequence[Sequence[int]]) -> list[int]:
    """The right-hand sides d of the epigraph rows of the sample ``nums``,
    -p_j and then p_j for each sample j, as ``minimize_qp`` takes them."""
    d: list[int] = []
    for p in nums:
        d += [-c for c in p]
        d += p
    return d


def minimize_qp(
    n: int, x0: list[int], d: list[int], pins: Sequence[tuple[int, int]] = ()
) -> tuple[int, tuple[int, list[int]], list[list[int]], list[list[int]]]:
    """Solve the epigraph program whose 2nm right-hand sides are d.

    d holds sample j's rows in order, u_j - x_i >= d[2nj + i], then
    x_k - l_j >= d[2nj + n + k], so -p_j and then p_j.  The start is x0 on
    x_1..x_n, zero at x_1, with u_j and l_j at the max and the min of
    x0 - p_j; pins[j] = (i, k) holds sample j's rows (u_j, x_i) and
    (x_k, l_j) as equalities, and each must be tight at the start.  A start
    off zero at x_1, or a pinned row not tight there, raises
    InternalError.  All data are ints.

    Returns (value, (zd, xn), alpha, beta), integers over zd > 0: the
    optimal value value / zd^2, value the sum of the squares of
    zd (u_j - l_j), the optimizer x = xn / zd with xn[0] == 0, and per
    sample j the multipliers of its rows, alpha[j][i] / zd on (u_j, x_i)
    and beta[j][k] / zd on (x_k, l_j), zero off the final working set and
    >= 0 off the pins.
    """
    m = len(d) // (2 * n)
    starts = range(0, len(d), 2 * n)
    edges: list[Edge] = []
    for u in range(n, n + m):
        edges += [(u, i) for i in range(n)]
        edges += [(i, u + m) for i in range(n)]
    # Sample j's gaps x0 - p_j: u_j and l_j start at their max and min, and
    # its rows' slacks are u_j - g_i and g_k - l_j.
    gaps = [list(map(add, x0, d[r : r + n])) for r in starts]
    ups, lows = list(map(max, gaps)), list(map(min, gaps))
    zd, zn = 1, [*x0, *ups, *lows]
    if x0[0] or any(g[i] != u or g[k] != lo for g, u, lo, (i, k) in zip(gaps, ups, lows, pins)):
        raise InternalError("infeasible starting point")
    pinned = {row for r, (i, k) in zip(starts, pins) for row in (r + i, r + n + k)}
    work = Forest(edges, len(zn))
    for r in sorted(pinned):
        work.join(r)
    for r, g, u, lo in zip(starts, gaps, ups, lows):
        for i, v in enumerate(g):
            if v == u:
                work.join(r + i)
        for k, v in enumerate(g):
            if v == lo:
                work.join(r + n + k)
    # The working sets stationary at the current point z, and whether one
    # has repeated there.
    stationary, repeated = set(), False

    for _ in range(MAX_ITER):
        res = list(map(sub, zn[n : n + m], zn[n + m :]))
        sd, sn = _subspace_step(work, res, zd)
        if not any(sn):
            # zd times the gradient, zero on x, which no square reaches.
            twice = [2 * r for r in res]
            u = work.multipliers([0] * n + twice + [-v for v in twice])
            neg = [(v, r) for r, v in u.items() if v < 0 and r not in pinned]
            if not neg:
                mult = [u.get(r, 0) for r in range(len(d))]
                alpha = [mult[r : r + n] for r in starts]
                beta = [mult[r + n : r + 2 * n] for r in starts]
                return sum(r * r for r in res), (zd, zn[:n]), alpha, beta
            key = frozenset(r for rows in work.at for r in rows)
            repeated = repeated or key in stationary
            stationary.add(key)
            work.split(min(r for _, r in neg) if repeated else min(neg)[1])
            continue
        best_num, best_den, blocker = _ratio_test(n, d, zd, zn, sd, sn)
        if best_num:
            stationary, repeated = set(), False
            # z + alpha step with alpha = best_num sd / (best_den zd).
            zn = [best_den * a + best_num * b for a, b in zip(zn, sn)]
            zd *= best_den
            div = gcd(zd, *zn)
            if div > 1:
                zd //= div
                zn = [v // div for v in zn]
        if blocker is not None:
            work.join(blocker)
    raise InternalError("active-set iteration cap exceeded")


def _ratio_test(
    n: int, d: list[int], zd: int, zn: list[int], sd: int, sn: list[int]
) -> tuple[int, int, int | None]:
    """The step's length as (num, den), the move z + (num sd / (den zd)) step,
    and its blocking row, or None for a full step, num / den == zd / sd.

    Row i's limit slack_i / (-row_i.step) is (slack / -prod) times sd/zd
    with slack = zn_a - zn_b - d_i zd, so the limits compare as
    slack / -prod, starting from zd/sd (a full step).  Only a row with
    prod < 0 can block, (u_j, x_i) when x_i's step exceeds u_j's and
    (x_k, l_j) when x_k's falls below l_j's; working-set rows have
    prod == 0.  The rows are visited in order, one sample's block at a
    time, and a side no coordinate's step passes is skipped.  Every slack
    is >= 0 and a later row wins only by a strict ``<``, so the first row
    that blocks at slack zero is the blocker, and the pass stops there.
    """
    m = (len(zn) - n) // 2
    best_num, best_den = zd, sd
    blocker = None
    sx, zx = sn[:n], zn[:n]
    top, bottom = max(sx), min(sx)
    cols = range(n)
    r = 0
    for su, sl, zu, zl in zip(sn[n : n + m], sn[n + m :], zn[n : n + m], zn[n + m :]):
        if top > su:
            for i in cols:
                if sx[i] > su:
                    num = zu - zx[i] - d[r + i] * zd
                    if num * best_den < best_num * (sx[i] - su):
                        best_num, best_den, blocker = num, sx[i] - su, r + i
                        if not num:
                            return best_num, best_den, blocker
        r += n
        if bottom < sl:
            for k in cols:
                if sx[k] < sl:
                    num = zx[k] - zl - d[r + k] * zd
                    if num * best_den < best_num * (sl - sx[k]):
                        best_num, best_den, blocker = num, sl - sx[k], r + k
                        if not num:
                            return best_num, best_den, blocker
        r += n
    return best_num, best_den, blocker


class Forest:
    """A working set of rows with ``ends`` on the nodes 0..nodes-1, 0 the ground.

    ``at`` holds each node's rows in the forest and ``label`` its component's
    name, the component's smallest node, at which its tree is rooted.
    """

    def __init__(self, ends: list[Edge], nodes: int) -> None:
        self.ends = ends
        self.at: list[list[int]] = [[] for _ in range(nodes)]
        self.label = list(range(nodes))

    def join(self, r: int) -> bool:
        """Add row r when its ends lie in two components; says whether it did."""
        a, b = self.ends[r]
        x, y = self.label[a], self.label[b]
        if x == y:
            return False
        if x < y:
            self._mark(b, x)
        else:
            self._mark(a, y)
        self.at[a].append(r)
        self.at[b].append(r)
        return True

    def split(self, r: int) -> None:
        """Remove row r, which is in the forest."""
        a, b = self.ends[r]
        self.at[a].remove(r)
        self.at[b].remove(r)
        # The side that holds the tree's name, its smallest node, keeps it,
        # so b's side is walked only when a's side holds the name.
        name = self.label[a]
        if self._rename(a) == name:
            self._rename(b)

    def multipliers(self, grad: list[int]) -> dict[int, int]:
        """u by row with sum_r u_r (e_a - e_b) = grad off the ground over the
        forest's rows (a, b); each tree is rooted at its name, and a residual
        left at a root other than the ground is an inconsistency."""
        label, at, ends = self.label, self.at, self.ends
        residual = list(grad)
        # Every root, then each node after its parent; up[t] is t's row to
        # its parent, -1 at a root.
        order = [t for t, name in enumerate(label) if t == name]
        up = [-1] * len(label)
        for t in order:
            for r in at[t]:
                if r != up[t]:
                    a, b = ends[r]
                    other = b if a == t else a
                    up[other] = r
                    order.append(other)
        u = {}
        for t in reversed(order):
            r = up[t]
            res = residual[t]
            if r < 0:
                if res and t:
                    raise InternalError("stationary point with inconsistent multiplier system")
                continue
            a, b = ends[r]
            u[r], other = (res, b) if a == t else (-res, a)
            residual[other] += res
        return u

    def _rename(self, start: int) -> int:
        """Name start's tree by its smallest node; returns the name."""
        side = self._mark(start, -1)
        name = min(side)
        for t in side:
            self.label[t] = name
        return name

    def _mark(self, start: int, mark: int) -> list[int]:
        """Relabel start's tree to ``mark``, entering a node over a row while
        it still bears start's old label; returns the nodes relabelled."""
        label, at, ends = self.label, self.at, self.ends
        old = label[start]
        label[start] = mark
        nodes = [start]
        for t in nodes:
            for r in at[t]:
                a, b = ends[r]
                other = b if a == t else a
                if label[other] == old:
                    label[other] = mark
                    nodes.append(other)
        return nodes


def _subspace_step(work: Forest, res: list[int], zd: int) -> tuple[int, list[int]]:
    """Minimize the objective along z + span(B); returns the step as (sd, sn).

    The columns of B are the indicator vectors of the components that
    ``nullspace(work)`` names, each node in the one its label names.  The
    reduced system (B^T H B) u = -B^T grad, H the Hessian and grad zd times
    the gradient, is built at half scale from the squares' residuals res and
    solved by u = zd y, y the rational solution: ``integer_solve`` gives
    u = nums / den in lowest terms, so the step B y is sn / sd with sn = B
    nums, sd = den zd.  Sample j's square is (u_j, l_j), nodes n + j and
    n + m + j of the module's layout, with m = len(res).
    """
    index = {name: p for p, name in enumerate(nullspace(work))}
    where = list(map(index.get, work.label))
    red = [[0] * (len(index) + 1) for _ in index]
    n = len(where) - 2 * len(res)
    # Half of what square (u_j, l_j) adds, (f_p - f_q)(f_p - f_q)^T and -r
    # (f_p - f_q) with r its residual, p and q the groups of u_j and l_j, the
    # ground none.
    for p, q, r in zip(where[n:], where[n + len(res) :], res):
        if p != q:
            if p is not None:
                red[p][p] += 1
                red[p][-1] -= r
            if q is not None:
                red[q][q] += 1
                red[q][-1] += r
                if p is not None:
                    red[p][q] -= 1
                    red[q][p] -= 1
    den, nums = integer_solve(red)
    return den * zd, [0 if p is None else nums[p] for p in where]


def integer_solve(rows: list[list[int]]) -> tuple[int, list[int]]:
    """Solve the augmented integer system [A | b], n rows of n + 1, with A
    symmetric positive semidefinite (PSD), in place.

    Returns the solution with the free variables at zero as (den, nums),
    x[t] == nums[t] / den with den the least common denominator.  No rows
    means no variables.  The one system the package sets up, the reduced
    Hessian of the QP step in ``_subspace_step``, is of this kind and
    consistent.

    The elimination is Bareiss's (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", 1968) with the
    pivots taken from the diagonal, in order.  Below pivot p in column c,
    each entry a right of column c in a row with entry f in column c becomes
    (p a - f q) / prev, with q the pivot row's entry above a and prev the
    last nonzero pivot before p; a row with f == 0 is left as it is when
    p == prev.  By Sylvester's identity every entry is then a minor of the
    input, so the division is exact and no gcd is taken, and each pivot is
    a principal minor, positive while the pivot block is nonsingular.  A
    zero pivot leaves row and column c of the Schur complement zero, since
    that complement is PSD too: column c depends on the pivot columns before
    it, exactly as over the rationals, so variable c is free and set to
    zero, and a nonzero b in row c is an inconsistency.  A negative pivot,
    or a zero one with anything else in its row, b included, or in its
    column, is a system outside the contract, A not PSD or the system
    inconsistent, and raises InternalError.

    The last pivot D is the determinant of the block of pivot rows and
    columns, so by Cramer's rule D x is an integer vector, and the
    back-substitution that finds it, pivot c from row c, divides exactly too.
    """
    n = len(rows)
    prev = 1
    for c, top in enumerate(rows):
        p = top[c]
        if p > 0:
            q = top[c + 1:]
            for row in rows[c + 1:]:
                f = row[c]
                if f or p != prev:
                    row[c + 1:] = [(p * a - f * b) // prev for a, b in zip(row[c + 1:], q)]
            prev = p
        elif p < 0 or any(top[c + 1:]) or any(row[c] for row in rows[c + 1:]):
            raise InternalError("integer_solve takes a consistent positive semidefinite system")
    # D x, last pivot first; a free variable stays zero.
    nums = [0] * n
    for c in reversed(range(n)):
        row = rows[c]
        if row[c]:
            rest = sum(map(mul, row[c + 1:n], nums[c + 1:]))
            nums[c] = (prev * row[n] - rest) // row[c]
    g = gcd(prev, *nums)
    return prev // g, [v // g for v in nums]


def nullspace(work: Forest) -> list[int]:
    """Basis of {z : z_0 = 0 and z_a = z_b for every row (a, b) of the forest}.

    The basis is the indicator vectors of the components not named 0, those
    without the ground, in the order of their largest node, each given as
    its name, the label its nodes bear.
    """
    # Read backwards, a name first appears at its component's largest node.
    names = list(dict.fromkeys(reversed(work.label)))
    names.remove(0)
    return names[::-1]
