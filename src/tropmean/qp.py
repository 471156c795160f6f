"""Exact primal active-set solver for small convex quadratic programs.

Minimizes q(z) = 1/2 z^T H z + g^T z subject to C z >= d, where H is
positive semidefinite and the data are rationals.  The method is the
classical one: keep a working set W of constraints treated as equalities,
minimize q on the corresponding affine subspace, either step to the nearest
blocking constraint or, once stationary, inspect the multipliers.  Blocking
rows are always independent of the working set, so multipliers stay unique,
and the multipliers of the optimum are returned with it.

The whole loop runs on integers, and its iterates are exactly those of the
same loop over the rationals:

* H and g are scaled once by their common denominator sigma, and each
  constraint row and its rhs by theirs.  A positive factor on the objective
  changes neither its minimizer on any subspace nor any step, and one on a
  row changes neither its zero set nor the sign of its slack, so the
  working-set sequence is unchanged; the multipliers pick up the factors,
  which are divided out before they are returned.
* z is kept as an integer vector over one denominator, z = zn / zd, reduced
  by the gcd after each move, and the gradient H z + g as the integer
  vector sigma * zd * (H z + g).  Slacks are kept as integers over zd too
  and are updated from the row products the ratio test computes anyway.
* The nullspace basis of the working-set rows is read off their
  fraction-free RREF, each vector scaled to integers.  The RREF depends
  only on the row space, and scaling the basis vectors by positive factors
  keeps the pivot columns of the reduced system and its solution with the
  free variables at zero, so the subspace step is exactly the rational one.
* The reduced system and the multiplier system are each solved by one
  ``linalg.integer_rref``.  Step lengths are compared by integer
  cross-multiplication, in the same row order and with the same strict
  comparison as over the rationals, so the blocking rows are the same too.

Working sets of difference rows, c (e_a - e_b) or c e_a (one variable
against a ground held at zero), need no elimination.  Programs made of such rows
are optimal-tension problems (Rockafellar, *Network Flows and Monotropic
Optimization*, 1984), and an independent set of them is a forest on the
variables and the ground.  Its nullspace is spanned by the indicator
vectors of the components without the ground, and that is exactly the RREF
basis: in a component of k variables joined by k - 1 rows any k - 1 columns
are independent, so the pivots are its k - 1 lowest variables, the free
column is its highest, and the RREF vector of that column is 1 on the
component; the vectors come in the order of their free columns.  So the
forest route takes the same steps.  Its multipliers, the flow dual to the
tension, come from peeling leaves, and a tight row enters the starting
working set exactly when it joins two components.  Other rows take the
RREF routes.

Exact arithmetic removes every tolerance question; the iteration cap is a
safety net and is never reached on the problem sizes this package solves.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .linalg import integer_rref, over_common_denominator
from .linalg import nullspace as rref_nullspace

Vector = list[Fraction]
Matrix = list[Vector]
IntSparse = list[tuple[int, int]]


class QPError(RuntimeError):
    pass


def minimize_qp(
    h: Matrix,
    g: Vector,
    c_rows: list[Vector],
    d: Vector,
    z0: Vector,
    max_iter: int = 10000,
) -> tuple[Fraction, Vector, list[int], Vector]:
    """Solve min 1/2 z^T H z + g^T z  s.t.  C z >= d.

    z0 must be feasible.  H is a full symmetric positive semidefinite
    matrix.  Returns (optimal value, optimizer, active rows, multipliers):
    the rows of the final working set in increasing order and their
    multipliers lam >= 0 in the same order, with C_A^T lam = H z + g.
    """
    nvars = len(z0)
    sigma = lcm(*(v.denominator for row in h for v in row), *(v.denominator for v in g))
    hs = [_scaled_by(row, sigma) for row in h]
    gs = [v.numerator * (sigma // v.denominator) for v in g]
    cs: list[IntSparse] = []
    ds: list[int] = []
    scales: list[int] = []
    for row, rhs in zip(c_rows, d):
        scale, row_int, d_int = _scaled(row, rhs)
        scales.append(scale)
        cs.append(row_int)
        ds.append(d_int)
    columns = _columns(cs, nvars)
    zd, zn = over_common_denominator(list(z0))
    slacks = [_idot(row, zn) - rhs * zd for row, rhs in zip(cs, ds)]
    if any(s < 0 for s in slacks):
        raise QPError("infeasible starting point")
    work = [i for i, s in enumerate(slacks) if s == 0]
    # Keep the initial working set independent: greedily drop dependent rows.
    work = _independent_subset([cs[i] for i in work], work, nvars)

    for _ in range(max_iter):
        grad = [_idot(row, zn) + v * zd for row, v in zip(hs, gs)]
        rows_w = [cs[i] for i in work]
        sd, sn = _subspace_step(hs, grad, nullspace(rows_w, nvars), zd)
        if not any(sn):
            u = _multipliers(rows_w, grad)
            neg = [i for i, v in zip(work, u) if v < 0]
            if not neg:
                # zn.grad = zn^T Hs zn + zd gs.zn, all over sigma zd^2.
                value = Fraction(_dot(zn, grad) + zd * _dot(gs, zn), 2 * sigma * zd * zd)
                z = [Fraction(v, zd) for v in zn]
                # C_W^T lam = H z + g, and row i is scaled by scales[i].
                lam = [scales[i] * v / (sigma * zd) for i, v in zip(work, u)]
                order = sorted(range(len(work)), key=work.__getitem__)
                return value, z, [work[a] for a in order], [lam[a] for a in order]
            work.remove(min(neg))
            continue
        # Row i's limit slack_i / (-row_i.step) is (slacks[i] / -prods[i]) times
        # sd/zd, so the limits compare as slacks[i] / -prods[i], starting from
        # zd/sd (a full step).  Working-set rows have prods[i] == 0.
        prods = _products(columns, sn, len(cs))
        best_num, best_den = zd, sd
        blocker = None
        for i, s in enumerate(prods):
            if s < 0:
                num = slacks[i]
                if num * best_den < best_num * -s:
                    best_num, best_den = num, -s
                    blocker = i
        if best_num:
            # z + alpha step with alpha = best_num sd / (best_den zd).
            zn = [best_den * a + best_num * b for a, b in zip(zn, sn)]
            slacks = [best_den * a + best_num * b for a, b in zip(slacks, prods)]
            zd *= best_den
            div = gcd(zd, *zn)
            if div > 1:
                zd //= div
                zn = [v // div for v in zn]
                slacks = [v // div for v in slacks]
        if blocker is not None:
            work.append(blocker)
    raise QPError("active-set iteration cap exceeded")


def _scaled_by(row: Vector, scale: int) -> IntSparse:
    """The nonzero entries of the row times scale, a multiple of their denominators."""
    return [(t, v.numerator * (scale // v.denominator)) for t, v in enumerate(row) if v]


def _scaled(row: Vector, rhs: Fraction) -> tuple[int, IntSparse, int]:
    """The common denominator of the row and its rhs, and both times it."""
    sparse = [(t, v) for t, v in enumerate(row) if v]
    scale = lcm(rhs.denominator, *(v.denominator for _, v in sparse))
    row_int = [(t, v.numerator * (scale // v.denominator)) for t, v in sparse]
    return scale, row_int, rhs.numerator * (scale // rhs.denominator)


def _columns(rows: list[IntSparse], nvars: int) -> list[list[tuple[int, list[int]]]]:
    """Per variable, the rows holding it grouped by coefficient."""
    groups: list[dict[int, list[int]]] = [{} for _ in range(nvars)]
    for i, row in enumerate(rows):
        for t, v in row:
            groups[t].setdefault(v, []).append(i)
    return [list(col.items()) for col in groups]


def _products(columns: list[list[tuple[int, list[int]]]], x: list[int], nrows: int) -> list[int]:
    """Every row times x, accumulated over the nonzero entries of x."""
    out = [0] * nrows
    for col, xt in zip(columns, x):
        if xt:
            for v, rows in col:
                inc = v * xt
                for i in rows:
                    out[i] += inc
    return out


def _dense(rows: list[IntSparse], nvars: int) -> list[list[int]]:
    out = []
    for row in rows:
        dense = [0] * nvars
        for t, v in row:
            dense[t] = v
        out.append(dense)
    return out


def _idot(row: IntSparse, x: list[int]) -> int:
    acc = 0
    for t, v in row:
        acc += v * x[t]
    return acc


def _dot(x: list[int], y: list[int]) -> int:
    return sum(a * b for a, b in zip(x, y))


def _subspace_step(
    hs: list[IntSparse], grad: list[int], basis: list[list[int]], zd: int
) -> tuple[int, list[int]]:
    """Minimize the quadratic along z + span(basis); returns the step as (sd, sn).

    With grad = sigma zd (H z + g) and the scaled H, the reduced system
    (B^T H B) u = -B^T grad is solved by u = zd y, y the rational solution.
    With den the common denominator of u, the step B y is sn / sd with
    sn = B (den u) and sd = den zd, both divided by their gcd.
    """
    nvars = len(grad)
    k = len(basis)
    sn = [0] * nvars
    if not k:
        return 1, sn
    sb = [[(t, v) for t, v in enumerate(vec) if v] for vec in basis]
    # B^T H B from the nonzeros of H B, H being symmetric: column t of H is
    # row t of hs, and the entries of B are looked up by row.
    at: list[list[tuple[int, int]]] = [[] for _ in range(nvars)]
    for a, vec in enumerate(sb):
        for t, v in vec:
            at[t].append((a, v))
    red = [[0] * k + [-_idot(vec, grad)] for vec in sb]
    for b, vec in enumerate(sb):
        hb: dict[int, int] = {}
        for t, v in vec:
            for s, hv in hs[t]:
                hb[s] = hb.get(s, 0) + v * hv
        for s, hv in hb.items():
            for a, v in at[s]:
                red[a][b] += v * hv
    pivots = integer_rref(red)
    if pivots and pivots[-1] == k:
        # Cannot happen for a quadratic bounded below on the subspace.
        raise QPError("unbounded equality subproblem")
    # Row r of red is its RREF row times the pivot, so u_c = red[r][k] / red[r][c].
    terms = [(row[k], row[c], c) for row, c in zip(red, pivots) if row[k]]
    den = lcm(*(p // gcd(p, v) for v, p, _ in terms))
    for v, p, c in terms:
        coef = v * den // p
        for t, b in sb[c]:
            sn[t] += coef * b
    div = gcd(den, *sn)
    return den * zd // div, [v // div for v in sn]


def nullspace(rows: list[IntSparse], nvars: int) -> list[list[int]]:
    """Integer basis of {z : rows z = 0}, the rows in sparse form.

    On difference rows the basis is the indicator vectors of the components
    that do not hold the ground, in the order of their largest variable:
    exactly the basis ``linalg.nullspace`` reads off the RREF.  Other rows
    go to ``linalg.nullspace``.
    """
    if not _difference_rows(rows):
        return rref_nullspace(_dense(rows, nvars), nvars)
    root = _UnionFind(nvars)
    for row in rows:
        root.join(*_ends(row, nvars))
    members: dict[int, list[int]] = {}
    ground = root.find(nvars)
    for t in range(nvars):
        r = root.find(t)
        if r != ground:
            members.setdefault(r, []).append(t)
    basis = []
    for group in sorted(members.values(), key=lambda g: g[-1]):
        vec = [0] * nvars
        for t in group:
            vec[t] = 1
        basis.append(vec)
    return basis


def _multipliers(rows: list[IntSparse], grad: list[int]) -> list[Fraction]:
    """Solve C_W^T u = grad for the (unique) working-set solution u.

    On difference rows the working set is a forest, solved by peeling its
    leaves: a leaf variable t has one row left, whose multiplier is the
    residual of t over the row's entry at t; the row's other end, with the
    opposite entry, takes that residual on.  So the residuals stay integers,
    and a residual left at a root without a row is an inconsistency.
    """
    w = len(rows)
    if not w:
        return []
    if not _difference_rows(rows):
        return _rref_multipliers(rows, grad)
    nvars = len(grad)
    at: list[list[int]] = [[] for _ in range(nvars)]
    for r, row in enumerate(rows):
        for t, _ in row:
            at[t].append(r)
    degree = [len(rs) for rs in at]
    residual = list(grad)
    u: list[Fraction] = [Fraction(0)] * w
    done = [False] * w
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
        for s, v in rows[r]:
            if s == t:
                u[r] = Fraction(res, v)
            else:
                residual[s] += res
                degree[s] -= 1
                if degree[s] == 1:
                    leaves.append(s)
    if any(residual):
        raise QPError("stationary point with inconsistent multiplier system")
    return u


def _rref_multipliers(rows: list[IntSparse], grad: list[int]) -> list[Fraction]:
    w = len(rows)
    rows_w = _dense(rows, len(grad))
    at = [[row[t] for row in rows_w] + [gt] for t, gt in enumerate(grad)]
    pivots = integer_rref(at)
    if pivots and pivots[-1] == w:
        raise QPError("stationary point with inconsistent multiplier system")
    u = [Fraction(0)] * w
    for row, c in zip(at, pivots):
        u[c] = Fraction(row[w], row[c])
    return u


def _independent_subset(rows: list[IntSparse], labels: list[int], nvars: int) -> list[int]:
    """Labels of the rows that greedy order keeps independent.

    A difference row is kept exactly when it joins two components of the
    rows kept before it.  Otherwise greedy order keeps a row exactly when it
    is not in the span of the rows before it, which is when its column is a
    pivot column of the rows written as columns.
    """
    if not _difference_rows(rows):
        return _rref_independent_subset(rows, labels, nvars)
    root = _UnionFind(nvars)
    return [label for row, label in zip(rows, labels) if root.join(*_ends(row, nvars))]


def _rref_independent_subset(rows: list[IntSparse], labels: list[int], nvars: int) -> list[int]:
    dense = _dense(rows, nvars)
    pivots = integer_rref([[row[t] for row in dense] for t in range(nvars)])
    return [labels[c] for c in pivots]


def _difference_rows(rows: list[IntSparse]) -> bool:
    """Whether every row is c (e_a - e_b), or c e_a: one variable against the ground."""
    return all(
        len(row) == 1 or (len(row) == 2 and row[0][1] == -row[1][1]) for row in rows
    )


def _ends(row: IntSparse, nvars: int) -> tuple[int, int]:
    """The two nodes a difference row joins, the ground being node nvars."""
    return row[0][0], (row[1][0] if len(row) == 2 else nvars)


class _UnionFind:
    """Disjoint sets over the nodes 0..nvars, node nvars being the ground."""

    def __init__(self, nvars: int) -> None:
        self.parent = list(range(nvars + 1))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def join(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False when they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True
