"""Small exact linear algebra helpers over the rationals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form. Returns (rref rows, pivot column indices).

    Each row is scaled once to integers, ``integer_rref`` eliminates, and
    each pivot row is divided by its pivot only once, at the end; the RREF
    being unique, the Fractions are those of elimination over the rationals.
    """
    m = [over_common_denominator(r)[1] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = integer_rref(m)
    zero = Fraction(0)
    out = [[Fraction(v, row[c]) if v else zero for v in row] for row, c in zip(m, pivots)]
    out.extend([zero] * ncols for _ in range(len(m) - len(pivots)))
    return out, pivots


def integer_rref(m: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place; returns the pivots.

    A row is eliminated by integer cross-multiplication with the pivot row
    and, unless the pivot is 1, divided by the gcd of its entries.  Every
    row stays a nonzero multiple of the row rational elimination would
    hold, so the zero pattern and the pivot choices are exactly those of
    elimination over the rationals: on return, row r is its RREF row times
    its pivot m[r][pivots[r]], and the rows past the rank are zero.
    """
    if not m:
        return []
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        p = m[r][c]
        # Only the pivot row's nonzero entries enter the cross-multiplication.
        nonzero = [(t, v) for t, v in enumerate(m[r]) if v]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                if p == 1:
                    row = m[i][:]
                    for t, v in nonzero:
                        row[t] -= f * v
                else:
                    row = [p * v for v in m[i]]
                    for t, v in nonzero:
                        row[t] -= f * v
                    g = gcd(*row)
                    if g > 1:
                        row = [v // g for v in row]
                m[i] = row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def over_common_denominator(x: list[Fraction]) -> tuple[int, list[int]]:
    """(den, nums) with x[t] == nums[t] / den, den the lcm of the denominators."""
    den = lcm(*(v.denominator for v in x))
    return den, [v.numerator * (den // v.denominator) for v in x]


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

