"""Exact linear algebra on integer rows: one fraction-free solve of an
augmented system, Bareiss elimination followed by integer back-substitution.
"""

from __future__ import annotations

from math import gcd


def integer_solve(rows: list[list[int]]) -> tuple[int, list[int]] | None:
    """Solve the augmented integer system [A | b], in place.

    Returns the solution with the free variables at zero as (den, nums),
    x[t] == nums[t] / den with den the least common denominator, or None
    when the system is inconsistent.  No rows means no variables.

    The forward elimination is Bareiss's (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", 1968).  Pivots are
    searched in column order, so the pivot columns and the free variables
    are those of elimination over the rationals.  Below pivot p, a row with
    entry f under p has each later entry a replaced by (p a - f q) / prev,
    with q the pivot row's entry above a and prev the pivot before p.  By
    Sylvester's identity every entry is then a minor of the input, so the
    division is exact and no gcd is taken.

    A row with f == 0 would only be multiplied by p / prev.  It is left as
    it is, with the pivot that was current when it was last updated as its
    divisor; the products telescope, so the next update divides by that
    divisor instead, and a row chosen as pivot catches up first.  The
    pivot rows and pivots are exactly Bareiss's.

    The last pivot D is, up to sign, the determinant of the square block of
    pivot rows and pivot columns, so by Cramer's rule D x is an integer
    vector, and the back-substitution that finds it divides exactly too.
    """
    nvars = len(rows[0]) - 1 if rows else 0
    pivots: list[int] = []
    divisor = [1] * len(rows)
    prev = 1
    r = 0
    for c in range(nvars + 1):
        if r == len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        if c == nvars:
            return None  # a pivot in the rhs column marks inconsistency
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            divisor[r], divisor[i] = divisor[i], divisor[r]
        top = rows[r]
        if divisor[r] != prev:
            lag = divisor[r]
            top[c:] = [a * prev // lag for a in top[c:]]
        p = top[c]
        q = top[c + 1:]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            if f:
                d, divisor[i] = divisor[i], p
                row[c] = 0
                row[c + 1:] = [(p * a - f * b) // d for a, b in zip(row[c + 1:], q)]
        pivots.append(c)
        prev = p
        r += 1
    # D x on the pivot columns, last pivot first; nums is zero off them.
    nums = [0] * nvars
    for r in reversed(range(len(pivots))):
        row = rows[r]
        c = pivots[r]
        rest = sum(row[t] * nums[t] for t in pivots[r + 1:])
        nums[c] = (prev * row[nvars] - rest) // row[c]
    if prev < 0:
        prev, nums = -prev, [-v for v in nums]
    g = gcd(prev, *nums)
    return prev // g, [v // g for v in nums]
