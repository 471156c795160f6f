"""Exact linear algebra on integer rows: fraction-free elimination and the
solution of an augmented system read off it."""

from __future__ import annotations

from math import gcd, lcm


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


def integer_solve(rows: list[list[int]]) -> tuple[int, list[int]] | None:
    """Solve the augmented integer system [A | b] by ``integer_rref``, in place.

    Returns the solution with the free variables at zero as (den, nums),
    x[t] == nums[t] / den with den the least common denominator, or None
    when the system is inconsistent.  No rows means no variables.
    """
    nvars = len(rows[0]) - 1 if rows else 0
    pivots = integer_rref(rows)
    if pivots and pivots[-1] == nvars:
        return None  # a pivot in the rhs column marks inconsistency
    # Row r is its RREF row times its pivot, so x_c = rows[r][nvars] / rows[r][c].
    terms = [(c, row[nvars], row[c]) for row, c in zip(rows, pivots) if row[nvars]]
    den = lcm(*(p // gcd(p, v) for _, v, p in terms))
    nums = [0] * nvars
    for c, v, p in terms:
        nums[c] = v * den // p
    return den, nums

