"""Positivity certificates for minimizers of summed squared tropical distances.

Each squared distance to a sample is the maximum of squares of affine forms
(x_i - x_k) - (p_i - p_k), one per ordered coordinate pair.  A point x* is a
global minimizer exactly when some convex combination of the pieces that are
active at x* has vanishing gradient there: the combined weighted quadratic
then touches the objective from below at x*, so its exact minimum certifies
the optimal value.  The weights come from the multipliers of the exact
quadratic program in ``frechet``; checking a certificate here is an
independent exact minimization of the combined form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import RationalLike, SampleSet, as_rational, trop_dist
from .errors import CertificateError, InternalError
from .linalg import AffineSolution, solve_affine


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
class AffineForm:
    """coeffs . x + const, with a full-length coefficient vector."""

    coeffs: tuple[Fraction, ...]
    const: Fraction

    def value_at(self, x: Sequence[Fraction]) -> Fraction:
        return sum((c * v for c, v in zip(self.coeffs, x)), self.const)


@dataclass(frozen=True)
class QuadraticForm:
    """A positive-weighted sum of squares of affine forms on the torus,
    handled in the gauge x_1 = 0."""

    n: int
    terms: tuple[tuple[AffineForm, Fraction], ...]

    def value_at(self, x: Sequence[Fraction]) -> Fraction:
        return sum((w * f.value_at(x) ** 2 for f, w in self.terms), Fraction(0))


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


def combined_form(sample: SampleSet, cert: Certificate) -> QuadraticForm:
    """The certificate's weighted sum of squared pieces as one quadratic form."""
    n = sample.n
    terms = []
    for per in cert.weights:
        for piece, w in per:
            coeffs = [Fraction(0)] * n
            coeffs[piece.i] += 1
            coeffs[piece.k] -= 1
            terms.append((AffineForm(tuple(coeffs), -piece.c), w))
    return QuadraticForm(n, tuple(terms))


def verify_certificate(sample: SampleSet, cert: Certificate) -> bool:
    """Independent check that the certificate proves objective >= c_star.

    Structural defects (weights not convex, piece constants that do not
    match the sample data) raise CertificateError.  Otherwise the combined
    quadratic is minimized exactly and compared against c_star.
    """
    if len(cert.weights) != sample.m:
        raise CertificateError("certificate sample count mismatch")
    n = sample.n
    for j, per in enumerate(cert.weights):
        if not per:
            raise CertificateError(f"sample {j} carries no pieces")
        total = Fraction(0)
        for piece, w in per:
            if piece.sample != j:
                raise CertificateError("piece attached to the wrong sample")
            if not (0 <= piece.i < n and 0 <= piece.k < n) or piece.i == piece.k:
                raise CertificateError("piece indices out of range")
            if piece.c != sample[j][piece.i] - sample[j][piece.k]:
                raise CertificateError("piece constant does not match the sample")
            if w < 0:
                raise CertificateError("negative weight")
            total += w
        if total != 1:
            raise CertificateError(f"weights of sample {j} sum to {total}, not 1")
    value, _ = min_quadratic(combined_form(sample, cert))
    return value >= cert.c_star


def min_quadratic(q: QuadraticForm) -> tuple[Fraction, AffineSolution]:
    """Exact global minimum of a weighted sum of squares in the gauge x_1 = 0.

    Returns the minimum value together with the full minimizer set (a
    particular solution of the normal equations and a basis of the flat
    directions), both padded back to full n-length coordinates.
    """
    nv = q.n - 1
    h = [[Fraction(0)] * nv for _ in range(nv)]
    g = [Fraction(0)] * nv
    c0 = Fraction(0)
    for form, w in q.terms:
        coef = form.coeffs[1:]
        for a in range(nv):
            if coef[a] == 0:
                continue
            wa = w * coef[a]
            for bidx in range(nv):
                if coef[bidx] != 0:
                    h[a][bidx] += wa * coef[bidx]
            g[a] += wa * form.const
        c0 += w * form.const ** 2
    sol = solve_affine(h, [-v for v in g])
    if sol is None:
        raise InternalError("normal equations of a sum of squares came out inconsistent")
    value = c0 + sum((g[a] * sol.particular[a] for a in range(nv)), Fraction(0))
    pad = lambda v: (Fraction(0),) + tuple(v)
    full = AffineSolution(pad(sol.particular), tuple(pad(b) for b in sol.basis))
    return value, full
