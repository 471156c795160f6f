"""Exact linear algebra on integer rows: one fraction-free solve of a
symmetric positive semidefinite system, Bareiss elimination on the diagonal
followed by integer back-substitution.
"""

from __future__ import annotations

from math import gcd

from .errors import InternalError


def integer_solve(rows: list[list[int]]) -> tuple[int, list[int]] | None:
    """Solve the augmented integer system [A | b], n rows of n + 1, with A
    symmetric positive semidefinite (PSD), in place.

    Returns the solution with the free variables at zero as (den, nums),
    x[t] == nums[t] / den with den the least common denominator, or None
    when the system is inconsistent.  No rows means no variables.  Both
    systems the package sets up are of this kind: the reduced Hessian of
    the QP step and the normal equations of a sum of squares.

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
    zero, and a nonzero b in row c is the inconsistency.  A negative pivot,
    or a zero one with anything else in its row or column, means A is not
    PSD and raises InternalError.

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
        elif p < 0 or any(top[c + 1:n]) or any(row[c] for row in rows[c + 1:]):
            raise InternalError("integer_solve takes a positive semidefinite system")
        elif top[n]:
            return None
    # D x, last pivot first; a free variable stays zero.
    nums = [0] * n
    for c in reversed(range(n)):
        row = rows[c]
        if row[c]:
            rest = sum(a * v for a, v in zip(row[c + 1:n], nums[c + 1:]))
            nums[c] = (prev * row[n] - rest) // row[c]
    g = gcd(prev, *nums)
    return prev // g, [v // g for v in nums]
