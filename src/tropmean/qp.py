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

Exact arithmetic removes every tolerance question; the iteration cap is a
safety net and is never reached on the problem sizes this package solves.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .linalg import integer_rref, nullspace, over_common_denominator

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
    work = _independent_subset(_dense([cs[i] for i in work], nvars), work, nvars)

    for _ in range(max_iter):
        grad = [_idot(row, zn) + v * zd for row, v in zip(hs, gs)]
        rows_w = _dense([cs[i] for i in work], nvars)
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
    hb = [[_idot(row, vec) for row in hs] for vec in basis]
    red = [[_idot(sb[a], hb[b]) for b in range(k)] + [-_idot(sb[a], grad)] for a in range(k)]
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


def _multipliers(rows_w: list[list[int]], grad: list[int]) -> list[Fraction]:
    """Solve C_W^T u = grad for the (unique) working-set solution u."""
    w = len(rows_w)
    if not w:
        return []
    at = [[row[t] for row in rows_w] + [gt] for t, gt in enumerate(grad)]
    pivots = integer_rref(at)
    if pivots and pivots[-1] == w:
        raise QPError("stationary point with inconsistent multiplier system")
    u = [Fraction(0)] * w
    for row, c in zip(at, pivots):
        u[c] = Fraction(row[w], row[c])
    return u


def _independent_subset(
    rows: list[list[int]], labels: list[int], nvars: int
) -> list[int]:
    """Labels of the rows that greedy order keeps independent.

    Greedy order keeps a row exactly when it is not in the span of the rows
    before it, which is when its column is a pivot column of the rows
    written as columns.
    """
    pivots = integer_rref([[row[t] for row in rows] for t in range(nvars)])
    return [labels[c] for c in pivots]
