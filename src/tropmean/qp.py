"""Exact primal active-set solver for small convex quadratic programs.

Minimizes q(z) = 1/2 z^T H z + g^T z subject to C z >= d, where H is
positive semidefinite and everything is a Fraction.  The method is the
classical one: keep a working set W of constraints treated as equalities,
minimize q on the corresponding affine subspace, either step to the nearest
blocking constraint or, once stationary, inspect the multipliers.  Blocking
rows are always independent of the working set, so multipliers stay unique,
and the multipliers of the optimum are returned with it.

H is converted once to sparse (index, value) lists, so every product and
gradient skips zero entries; the epigraph programs of ``frechet`` have
three nonzeros per constraint row.  The ratio test runs on integers: each
constraint row and its rhs are scaled once by their common denominator,
which leaves the sign of every slack and every step length unchanged, and
on each step z and the step direction are put over common denominators.
Step lengths are then compared by integer cross-multiplication, in the
same row order and with the same strict comparison as over the rationals,
so the iterates, the blocking rows and the results are exactly those of
rational arithmetic.  The dense solves go through the fraction-free
``linalg.rref``.

Exact arithmetic removes every tolerance question; the iteration cap is a
safety net and is never reached on the problem sizes this package solves.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import dot, nullspace, over_common_denominator, rref, solve_affine

Vector = list[Fraction]
Matrix = list[Vector]
Sparse = list[tuple[int, Fraction]]
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
    hs = [_sparse(row) for row in h]
    cs: list[IntSparse] = []
    ds: list[int] = []
    for row, rhs in zip(c_rows, d):
        row_int, d_int = _scaled(row, rhs)
        cs.append(row_int)
        ds.append(d_int)
    z = list(z0)
    zd, zn = over_common_denominator(z)
    slacks = [_idot(row, zn) - rhs * zd for row, rhs in zip(cs, ds)]
    if any(s < 0 for s in slacks):
        raise QPError("infeasible starting point")
    work = [i for i, s in enumerate(slacks) if s == 0]
    # Keep the initial working set independent: greedily drop dependent rows.
    # Scaling a row changes neither its nullspace nor the pivot columns of
    # the rows written as columns, so both run on the integer rows.
    work = _independent_subset(_dense([cs[i] for i in work], nvars), work, nvars)

    for _ in range(max_iter):
        hz = [_sdot(row, z) for row in hs]
        grad = [a + b for a, b in zip(hz, g)]
        basis = nullspace(_dense([cs[i] for i in work], nvars), nvars)
        step = _subspace_step(hs, grad, basis)
        if not any(step):
            lam = _multipliers(c_rows, work, grad, nvars)
            neg = [i for i, v in zip(work, lam) if v < 0]
            if not neg:
                value = Fraction(1, 2) * dot(hz, z) + dot(g, z)
                order = sorted(range(len(work)), key=work.__getitem__)
                return value, z, [work[a] for a in order], [lam[a] for a in order]
            work.remove(min(neg))
            continue
        # z = zn/zd and step = sn/sd.  A row's limit slack/(-row.step) is
        # (num/den)·(sd/zd) with integer num = row.zn - rhs·zd and
        # den = -row.sn, so the limits compare as num/den; (zd, sd) is 1.
        zd, zn = over_common_denominator(z)
        sd, sn = over_common_denominator(step)
        best_num, best_den = zd, sd
        blocker = None
        in_work = set(work)
        for i, row in enumerate(cs):
            if i in in_work:
                continue
            s = _idot(row, sn)
            if s < 0:
                num = _idot(row, zn) - ds[i] * zd
                if num * best_den < best_num * -s:
                    best_num, best_den = num, -s
                    blocker = i
        alpha = Fraction(best_num * sd, best_den * zd)
        if alpha > 0:
            z = [zi + alpha * pi for zi, pi in zip(z, step)]
        if blocker is not None:
            work.append(blocker)
    raise QPError("active-set iteration cap exceeded")


def _sparse(row: Vector | tuple[Fraction, ...]) -> Sparse:
    return [(t, v) for t, v in enumerate(row) if v != 0]


def _scaled(row: Vector, rhs: Fraction) -> tuple[IntSparse, int]:
    """The sparse row and its rhs times their common denominator."""
    sparse = _sparse(row)
    _, nums = over_common_denominator([rhs] + [v for _, v in sparse])
    return [(t, v) for (t, _), v in zip(sparse, nums[1:])], nums[0]


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


def _sdot(row: Sparse, x: Vector | tuple[Fraction, ...]) -> Fraction:
    return sum((v * x[t] for t, v in row), Fraction(0))


def _subspace_step(hs: list[Sparse], grad: Vector, basis: list[tuple[Fraction, ...]]) -> Vector:
    """Minimize the quadratic along z + span(basis); returns the step."""
    step = [Fraction(0)] * len(grad)
    if not basis:
        return step
    k = len(basis)
    sb = [_sparse(v) for v in basis]
    hb = [[_sdot(row, v) for row in hs] for v in basis]
    red = [[_sdot(sb[a], hb[b]) for b in range(k)] for a in range(k)]
    rhs = [-_sdot(v, grad) for v in sb]
    sol = solve_affine(red, rhs)
    if sol is None:
        # Cannot happen for a quadratic bounded below on the subspace.
        raise QPError("unbounded equality subproblem")
    for ya, v in zip(sol.particular, sb):
        for t, val in v:
            step[t] += ya * val
    return step


def _multipliers(
    c_rows: list[Vector], work: list[int], grad: Vector, nvars: int
) -> list[Fraction]:
    """Solve C_W^T lam = grad for the (unique) working-set multipliers."""
    if not work:
        return []
    cols = [c_rows[i] for i in work]
    at = [[cols[j][t] for j in range(len(work))] for t in range(nvars)]
    sol = solve_affine(at, grad)
    if sol is None:
        raise QPError("stationary point with inconsistent multiplier system")
    return list(sol.particular)


def _independent_subset(
    rows: list[Vector], labels: list[int], nvars: int
) -> list[int]:
    """Labels of the rows that greedy order keeps independent.

    Greedy order keeps a row exactly when it is not in the span of the rows
    before it, which is when its column is a pivot column of the rows
    written as columns.
    """
    _, pivots = rref([[row[t] for row in rows] for t in range(nvars)])
    return [labels[c] for c in pivots]
