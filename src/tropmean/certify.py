"""Positivity certificates for minimizers of summed squared tropical distances.

Each squared distance to a sample is the maximum of squares of affine forms
(x_i - x_k) - (p_i - p_k), one per ordered coordinate pair.  A point x* is a
global minimizer exactly when some convex combination of the pieces that are
active at x* has vanishing gradient there: the combined weighted quadratic
then touches the objective from below at x*, so its exact minimum certifies
the optimal value.  The weights come from the multipliers of the exact
quadratic program in ``frechet``; checking a certificate here is an
independent exact minimization of the combined form.

The check is built from difference pieces alone: ``add_square`` adds each
weighted square w (x_i - x_k - c)^2 to the normal equations A y = b in the
gauge x_1 = 0, and ``min_quadratic`` solves them by the QP step's integer
solve.  ``verify_certificate`` feeds them integers, the sample over its
common denominator and the weights over theirs; the exhaustive oracle builds
its region sums with the same two on Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import RationalLike, SampleSet, as_rational, trop_dist
from .errors import CertificateError, InternalError
from .linalg import integer_solve

# The normal equations hold ints or Fractions alike.
Exact = int | Fraction


@dataclass(frozen=True)
class QuadraticPiece:
    """One affine form x_i - x_k - c whose square lower-bounds a squared
    distance; c is the matching coordinate difference of sample j."""

    sample: int
    i: int
    k: int
    c: Fraction

    def form_value(self, x: Sequence[Fraction]) -> Fraction:
        return x[self.i] - x[self.k] - self.c


@dataclass(frozen=True)
class Certificate:
    """Per-sample convex weights on active pieces plus the certified value."""

    c_star: Fraction
    weights: tuple[tuple[tuple[QuadraticPiece, Fraction], ...], ...]

    def weight_map(self, j: int) -> dict[tuple[int, int], Fraction]:
        return {(p.i, p.k): w for p, w in self.weights[j]}


def piece_for(sample: SampleSet, j: int, i: int, k: int) -> QuadraticPiece:
    p = sample[j]
    return QuadraticPiece(j, i, k, p[i] - p[k])


def active_pieces(sample: SampleSet, x: Sequence[RationalLike]) -> list[list[QuadraticPiece]]:
    """Per sample, all ordered pairs whose affine form attains +-d_tr(x, p_j).

    Both orientations of an attaining pair are reported; they square to the
    same function.  When x equals a sample point every pair is active.
    """
    xs = [as_rational(v) for v in x]
    n = sample.n
    out: list[list[QuadraticPiece]] = []
    for j, p in enumerate(sample):
        d = trop_dist(xs, p)
        acts = []
        for i in range(n):
            for k in range(n):
                if i == k:
                    continue
                val = (xs[i] - xs[k]) - (p[i] - p[k])
                if val == d or val == -d:
                    acts.append(QuadraticPiece(j, i, k, p[i] - p[k]))
        out.append(acts)
    return out


def verify_certificate(sample: SampleSet, cert: Certificate) -> bool:
    """Independent check that the certificate proves objective >= c_star.

    Structural defects (weights not convex, piece constants that do not
    match the sample data) raise CertificateError.  Otherwise the combined
    quadratic is minimized exactly and compared against c_star.

    The check runs on integers: the sample over its common denominator den
    (``sample.scaled``) and the weights over theirs, W.  Piece constants are
    compared by cross-multiplying, and the weights of a sample must sum to
    W.  In X = den x the combined form is sum (w W)(X_i - X_k - c den)^2
    divided by W den^2, all of whose terms are integers, so the minimum of
    those integer normal equations is divided by W den^2 once at the end.
    """
    if len(cert.weights) != sample.m:
        raise CertificateError("certificate sample count mismatch")
    n = sample.n
    den, nums = sample.scaled
    wden = lcm(*(w.denominator for per in cert.weights for _, w in per))
    a = [[0] * (n - 1) for _ in range(n - 1)]
    b = [0] * (n - 1)
    c0 = 0
    for j, per in enumerate(cert.weights):
        if not per:
            raise CertificateError(f"sample {j} carries no pieces")
        p = nums[j]
        total = 0
        for piece, w in per:
            i, k = piece.i, piece.k
            if piece.sample != j:
                raise CertificateError("piece attached to the wrong sample")
            if not (0 <= i < n and 0 <= k < n) or i == k:
                raise CertificateError("piece indices out of range")
            c = p[i] - p[k]
            if piece.c.numerator * den != c * piece.c.denominator:
                raise CertificateError("piece constant does not match the sample")
            if w < 0:
                raise CertificateError("negative weight")
            wn = w.numerator * (wden // w.denominator)
            total += wn
            c0 += add_square(a, b, i, k, c, wn)
        if total != wden:
            raise CertificateError(f"weights of sample {j} sum to {Fraction(total, wden)}, not 1")
    value, _ = min_quadratic(a, b, c0)
    return value / (wden * den * den) >= cert.c_star


def add_square(
    a: list[list[Exact]], b: list[Exact], i: int, k: int, c: Exact, w: Exact
) -> Exact:
    """Add w (x_i - x_k - c)^2 to the normal equations A y = b, in place.

    That is w (e_i - e_k)(e_i - e_k)^T on A and w c (e_i - e_k) on b, so w
    and w c are added or subtracted directly: +w on A's two diagonal entries
    and -w on its two off-diagonal ones, +w c at i and -w c at k on b.
    y = (x_2, ..., x_n) is the gauge x_1 = 0, so a piece that touches x_1
    adds to one row only.  Returns the square's share w c^2 of the constant
    term; a negative w removes a square that was added before.
    """
    i, k = i - 1, k - 1
    wc = w * c
    if i >= 0:
        b[i] += wc
        a[i][i] += w
    if k >= 0:
        b[k] -= wc
        a[k][k] += w
        if i >= 0:
            a[i][k] -= w
            a[k][i] -= w
    return wc * c


def min_quadratic(
    a: list[list[Exact]], b: list[Exact], c0: Exact
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact global minimum of y.A.y - 2 b.y + c0, the sum of squares whose
    normal equations ``add_square`` built.

    A and b, ints or Fractions, are scaled to integers by one common
    denominator and solved by ``integer_solve``.  Returns the minimum value
    and one minimizer, the solution of A y = b with its free coordinates at
    zero, padded back to full n-length coordinates with x_1 = 0.
    """
    scale = lcm(*(v.denominator for row in a for v in row), *(v.denominator for v in b))
    rows = [[v.numerator * (scale // v.denominator) for v in (*r, rhs)] for r, rhs in zip(a, b)]
    bs = [row[-1] for row in rows]
    solved = integer_solve(rows)
    if solved is None:
        raise InternalError("normal equations of a sum of squares came out inconsistent")
    den, nums = solved
    value = c0 - Fraction(sum(v * y for v, y in zip(bs, nums)), scale * den)
    return value, (Fraction(0), *(Fraction(v, den) for v in nums))
