"""Small exact linear algebra helpers over the rationals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Matrix = list[list[Fraction]]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form. Returns (rref rows, pivot column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        # Only the pivot row's nonzero entries change the other rows.
        nonzero = [(t, v) for t, v in enumerate(m[r]) if v != 0]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                row = m[i]
                for t, v in nonzero:
                    row[t] -= f * v
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


@dataclass(frozen=True)
class AffineSolution:
    """Solution set {particular + span(basis)} of a consistent linear system."""

    particular: tuple[Fraction, ...]
    basis: tuple[tuple[Fraction, ...], ...]


def solve_affine(a: Matrix, b: list[Fraction]) -> AffineSolution | None:
    """Solve A x = b exactly.

    Returns the full solution set (particular solution with free variables
    set to zero, plus a nullspace basis), or None when inconsistent.
    """
    if len(a) != len(b):
        raise ValueError("row count mismatch")
    nvars = len(a[0]) if a else 0
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    red, pivots = rref(aug)
    if nvars in pivots:
        return None  # a pivot in the rhs column marks inconsistency
    part = [Fraction(0)] * nvars
    for r, c in enumerate(pivots):
        part[c] = red[r][nvars]
    free = [c for c in range(nvars) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * nvars
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(tuple(vec))
    return AffineSolution(tuple(part), tuple(basis))


def nullspace(rows: Matrix, nvars: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : rows @ x = 0}."""
    if not rows:
        return [
            tuple(Fraction(1) if j == i else Fraction(0) for j in range(nvars))
            for i in range(nvars)
        ]
    sol = solve_affine(rows, [Fraction(0)] * len(rows))
    assert sol is not None
    return list(sol.basis)


def mat_vec(a: Matrix, x: list[Fraction]) -> list[Fraction]:
    return [sum((r[j] * x[j] for j in range(len(x))), Fraction(0)) for r in a]


def dot(x: list[Fraction], y: list[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))
