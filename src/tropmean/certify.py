"""Positivity certificates for minimizers of summed squared tropical distances.

Each squared distance to a sample is the maximum of squares of affine forms
(x_i - x_k) - (p_i - p_k), one per ordered coordinate pair.  A point x* is a
global minimizer exactly when some convex combination of the pieces that are
active at x* has vanishing gradient there: the combined weighted quadratic
q lies below the objective everywhere and touches it at x*, so
objective(x) >= q(x) >= q(x*) = objective(x*) for every x.  The weights come
from the multipliers of the exact quadratic program in ``frechet``, and a
certificate names the point x* it certifies.  ``verify_certificate`` checks
it at that point alone, with no elimination: every weighted piece is active
at x*, the weighted gradient vanishes there, and objective(x*) >= c_star,
all on integers over the common denominator of the sample and the point.
A certificate holds each sample's weights as integers over one
denominator, as the multipliers give them, so the check puts them over the
lcm of those denominators with no Fraction built.  Nothing of the route
that found the weights is trusted, and the module imports only ``core``
and ``errors``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .core import Frozen, SampleSet, TorusPoint
from .errors import CertificateError


# One sample's weights: a denominator and (i, k, numerator) per piece.
Weights = tuple[int, tuple[tuple[int, int, int], ...]]


class Certificate(Frozen):
    """Per-sample convex weights on the pieces active at ``point``, and a
    bound c_star with objective >= c_star everywhere, which
    ``verify_certificate`` proves from weights stationary at ``point`` and
    objective(point) >= c_star.  ``weights[j]`` is (den, ((i, k, num), ...)):
    weight num / den on sample j's piece for the 0-based pair (i, k), whose
    constant is read off the sample.  Each group of integers is divided by
    its gcd, so equality and hashing compare values; a group not integers
    over a positive denominator is kept as given for the check to refuse."""

    _fields = ("c_star", "weights", "point")

    def __init__(
        self,
        c_star: Fraction,
        weights: Sequence[Weights],
        point: TorusPoint,
    ) -> None:
        self.__dict__.update(c_star=c_star, weights=tuple(map(_lowest, weights)), point=point)


def _integral(den: object, pieces: Sequence[tuple[int, int, object]]) -> bool:
    """Whether a weight group is integers over a positive integer."""
    return type(den) is int and den > 0 and all(type(w) is int for _, _, w in pieces)


def _lowest(group: Weights) -> Weights:
    """The group over its least denominator, or as given when not integral."""
    den, pieces = group
    if _integral(den, pieces):
        g = gcd(den, *(w for _, _, w in pieces))
        if g > 1:
            return den // g, tuple([(i, k, w // g) for i, k, w in pieces])
    return den, tuple(pieces)


def verify_certificate(sample: SampleSet, cert: Certificate) -> bool:
    """Independent check that the certificate proves objective >= c_star.

    Structural defects (a point of the wrong dimension, weights that are not
    integers over a positive denominator or not convex, coordinate pairs out
    of range) raise CertificateError.  Otherwise the
    certificate holds when, at its point x, every piece of positive weight
    is active (|x_i - x_k - c|, c = p_i - p_k, equals the distance to its
    sample), the weighted gradient sum w (x_i - x_k - c) (e_i - e_k)
    vanishes and objective(x) >= c_star.  Then the weighted form
    q lies below the objective, x minimizes q and q(x) = objective(x), so
    objective >= c_star everywhere.

    The check runs on integers: the sample and the point over their common
    denominator e, so each form is an integer over e, and every weight over
    one denominator W, the lcm of the samples' denominators; each sample's
    numerators must sum to its denominator.  An active form is +-s_j, the
    spread of x - p_j over e, so each piece of sample j adds +-s_j w W
    (e_i - e_k) to one integer gradient, the weighted gradient times e W.
    """
    if len(cert.weights) != sample.m:
        raise CertificateError("certificate sample count mismatch")
    n = sample.n
    x = cert.point
    if x.dim != n:
        raise CertificateError(f"certificate point has {x.dim} coordinates, not {n}")
    wd = 1
    for j, (den_j, per) in enumerate(cert.weights):
        if not _integral(den_j, per):
            raise CertificateError(
                f"weights of sample {j} are not integers over a positive integer"
            )
        wd = lcm(wd, den_j)
    den, nums = sample.den, sample.nums
    e = lcm(den, x.den)
    f = e // den
    xs = [v * (e // x.den) for v in x.nums]
    active = True
    value = 0
    grad = [0] * n
    for j, (den_j, per) in enumerate(cert.weights):
        if not per:
            raise CertificateError(f"sample {j} carries no pieces")
        p = nums[j]
        gaps = [a - c * f for a, c in zip(xs, p)]
        spread = max(gaps) - min(gaps)
        value += spread * spread
        scale = wd // den_j
        total = 0
        for i, k, w in per:
            if not (0 <= i < n and 0 <= k < n) or i == k:
                raise CertificateError("piece indices out of range")
            if w < 0:
                raise CertificateError("negative weight")
            total += w
            wn = w * scale
            form = gaps[i] - gaps[k]
            if wn and form != spread:
                if form != -spread:
                    active = False
                wn = -wn
            grad[i] += spread * wn
            grad[k] -= spread * wn
        if total != den_j:
            raise CertificateError(f"weights of sample {j} sum to {Fraction(total, den_j)}, not 1")
    c_star = cert.c_star
    return active and not any(grad) and value * c_star.denominator >= c_star.numerator * e * e
