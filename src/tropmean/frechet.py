"""Fréchet means under the tropical metric.

The objective c(x) = sum_j d_tr(x, p_j)^2 is piecewise quadratic and convex
on the torus.  ``exact_frechet`` computes its minimum exactly: one
epigraph quadratic program, started at the coordinatewise average, whose
optimum is the exact mean and whose KKT multipliers are its positivity
certificate; the certificate names the mean as its point and is checked
there, by stationarity, before the mean is reported as exact.  The solve
fails one way: a broken invariant inside it and either failed check raise
InternalError, and one handler returns the uncertified average in its
place.  ``FrechetResult.certified`` is the one refusal of such a result,
for every caller that needs a certified mean.

A point is evaluated in one place, ``_result_at``: on the integers of the
sample and the point over their common denominator, it gives the
distances, as integer spreads over that denominator, and the mean set, the
intersection of the tropical balls around the samples at those distances.
A ``FrechetResult`` holds the distances so, and its certificate holds each
sample's weights as integers over one denominator; ``distances`` and
``min_sum`` are Fraction views of the spreads, and the writer in
``serialize`` formats the integers without building them.
``fm_polytrope`` reads the mean set, and ``find_certificate`` the
``min_sum``, handing out the certificate's weights at any point whose
objective equals the certified minimum.  ``objective`` computes the sum
over Fractions through ``trop_dist``, apart from that evaluation, so it
can check it.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import sub

from .certify import Certificate, verify_certificate
from .core import Frozen, RationalLike, SampleSet, TorusPoint, as_rational, lowest, trop_dist
from .errors import InternalError, NotOptimal
from .polytrope import PolytropeMatrix
from .qp import minimize_qp, right_hand_sides


class FrechetResult(Frozen):
    """Outcome of a mean computation.

    Distance j, from ``mean`` to sample j, is held as ``spreads[j] / den``:
    integers over a positive denominator, in lowest terms by
    ``core.lowest``, so equality and hashing compare values; a denominator
    below one raises ValueError.  ``distances`` and ``min_sum``, the sum of
    their squares, give them back as Fractions.  ``certificate`` is a
    positivity certificate for ``mean``, attached only once found and
    independently verified, and ``exact`` says whether one is; ``reason``
    says why not, when no certificate is attached.
    """

    _fields = ("mean", "den", "spreads", "fm_polytrope", "certificate", "reason")

    def __init__(
        self,
        mean: TorusPoint,
        den: int,
        spreads: tuple[int, ...],
        fm_polytrope: PolytropeMatrix,
        certificate: Certificate | None = None,
        reason: str | None = None,
    ) -> None:
        den, (spreads,) = lowest(den, [spreads])
        self.__dict__.update(
            mean=mean,
            den=den,
            spreads=tuple(spreads),
            fm_polytrope=fm_polytrope,
            certificate=certificate,
            reason=reason,
        )

    @cached_property
    def distances(self) -> tuple[Fraction, ...]:
        """The distances as Fractions."""
        return tuple([Fraction(v, self.den) for v in self.spreads])

    @cached_property
    def min_sum(self) -> Fraction:
        """The sum of the squared distances, as a Fraction."""
        return Fraction(_squares(self.spreads), self.den * self.den)

    @property
    def exact(self) -> bool:
        return self.certificate is not None

    def certified(self) -> FrechetResult:
        """This result when it is exact; otherwise raises NotOptimal with its
        ``reason``, the one refusal of every caller that needs a certified
        mean."""
        if not self.exact:
            raise NotOptimal(f"could not certify a mean for this sample: {self.reason}")
        return self


def _squares(values: Sequence[int]) -> int:
    return sum(v * v for v in values)


def objective(sample: SampleSet, x: Sequence[RationalLike]) -> Fraction:
    """Sum of squared tropical distances from x to the sample points."""
    xs = [as_rational(v) for v in x]
    return sum((trop_dist(xs, p) ** 2 for p in sample), Fraction(0))


def fm_polytrope(sample: SampleSet, mean: TorusPoint) -> PolytropeMatrix:
    """H-description of the set of all Fréchet means, the mean set of the
    result at ``mean`` (``_result_at``).  Raises ValueError when ``mean``
    and the sample differ in dimension."""
    return _result_at(sample, mean).fm_polytrope


def _average(sample: SampleSet) -> TorusPoint:
    """The coordinatewise average of the sample, canonical because every
    sample point is."""
    den, nums = sample.den, sample.nums
    return TorusPoint(den * len(nums), tuple(sum(col) for col in zip(*nums)))


def _lift(sample: SampleSet, x: TorusPoint) -> tuple[int, list[int], Sequence[Sequence[int]]]:
    """(e, xs, nums): x and the sample over the common denominator e of the
    two.  Raises ValueError when x and the sample differ in dimension."""
    if x.dim != sample.n:
        raise ValueError("dimension mismatch")
    den, nums = sample.den, sample.nums
    e = lcm(den, x.den)
    xs = [v * (e // x.den) for v in x.nums]
    f = e // den
    return e, xs, nums if f == 1 else [[c * f for c in p] for p in nums]


def exact_frechet(sample: SampleSet) -> FrechetResult:
    """Exact Fréchet mean with a verified optimality certificate.

    Solves the epigraph quadratic program once, started at the
    coordinatewise average of the sample, and reads the certificate off
    the multipliers of its optimum; the certificate names the mean as its
    point.  The result carries the certificate, and so is exact, only when
    its value equals the objective at the mean and ``verify_certificate``
    accepts it there: every weighted piece active at the mean and the
    weighted gradient zero, with no system solved.  Either failed check
    raises InternalError, as the solve does on a broken invariant or on
    reaching its iteration cap, and the one handler of it returns the start
    point with no certificate, not exact, and the error's message as its
    ``reason``.

    The start and the mean are points built from the sample's integers, and
    the program, its value, ``_result_at`` and the certificate's weights are
    integers too: ``c_star`` is the only Fraction built, and it is checked
    against the squared spreads over ``den`` by cross-multiplying.
    """
    start = _average(sample)
    try:
        mean, cert = _epigraph_qp(sample, start)
        result = _result_at(sample, mean, cert)
        c, den = cert.c_star, result.den
        if c.numerator * den * den != _squares(result.spreads) * c.denominator:
            raise InternalError("the program's value is not the objective at its optimizer")
        if not verify_certificate(sample, cert):
            raise InternalError("the certificate does not verify at the mean")
    except InternalError as exc:
        return _result_at(sample, start, reason=str(exc))
    return result


def _result_at(
    sample: SampleSet, mean: TorusPoint, cert: Certificate | None = None, reason: str | None = None
) -> FrechetResult:
    """The result at ``mean``, exact when a ``cert`` is given: the one
    evaluation of a point, on the integers of ``_lift``.  Distance d_j is
    the spread max - min of mean - p_j, and every mean sits at the same
    distances, so the mean set is the intersection of the balls B(p_j, d_j):
    c_ik = max_j(-d_j + p_{j,i} - p_{j,k}), with a zero diagonal.  Raises
    ValueError when ``mean`` and the sample differ in dimension."""
    e, xs, nums = _lift(sample, mean)
    spreads = []
    for p in nums:
        gaps = list(map(sub, xs, p))
        spreads.append(max(gaps) - min(gaps))
    cols = list(zip(*nums))
    # tops[i][j] = p_{j,i} - d_j, so entry (i, k) is the max of tops[i] - cols[k].
    tops = [list(map(sub, col, spreads)) for col in cols]
    rows = [[max(map(sub, top, col)) for col in cols] for top in tops]
    for i, row in enumerate(rows):
        row[i] = 0
    return FrechetResult(mean, e, tuple(spreads), PolytropeMatrix(e, rows), cert, reason)


def find_certificate(sample: SampleSet, x_star: TorusPoint) -> Certificate:
    """The exact mean's verified certificate, named at x_star and checked there.

    The weights of one mean serve at every mean: with c_star = q(mean),
    q(y) <= objective(y) = c_star = min q at any mean y, so y minimizes q
    and every weighted piece is active at y.  So x_star is a Fréchet mean
    exactly when its ``min_sum`` (``_result_at``) equals the certified
    minimum, and the exact mean's weights named at x_star then pass
    ``verify_certificate`` there.  Raises ValueError when x_star and the
    sample differ in dimension, and NotOptimal when x_star's objective is
    higher or when no mean of the sample could be certified.
    """
    value = _result_at(sample, x_star).min_sum
    result = exact_frechet(sample).certified()
    if value != result.min_sum:
        raise NotOptimal(f"objective {value} exceeds the certified minimum {result.min_sum}")
    c = result.certificate
    cert = Certificate(c.c_star, c.weights, x_star)
    if not verify_certificate(sample, cert):
        raise InternalError("the mean's certificate does not hold at a point of equal objective")
    return cert


def _epigraph_qp(sample: SampleSet, start: TorusPoint) -> tuple[TorusPoint, Certificate]:
    """Global minimizer and its certificate from the epigraph program
    (``qp``), started at ``start`` and solved in the variables e z, e the
    common denominator of the sample and the start (``_lift``).

    Stationarity in u_j and l_j gives sum_i alpha_ji = sum_k beta_jk = 2 t_j,
    t_j = u_j - l_j, and in x gives sum_j (sum_i alpha_ji e_i - sum_k beta_jk
    e_k) = 0.  So the product weights w_jik = alpha_ji beta_jk / (2 t_j)^2,
    on pieces active at t_j, are a positivity certificate (see ``certify``):
    their combined gradient sum_j 2 t_j sum_ik w_jik (e_i - e_k) vanishes.
    When t_j > 0 no coordinate carries both an alpha and a beta, since both
    its rows tight would make t_j zero, so the pieces (i, k) are distinct
    pairs, each reported as its i < k representative; a sample with t_j = 0
    has no multiplier, is the mean itself, and weight 1 on piece (0, 1)
    serves.  The multipliers come over one positive factor, which a weight
    alpha beta / (sum alpha sum beta) does not see, so sample j's weights
    are written as the integers alpha_ji beta_jk over sum alpha sum beta
    (``Certificate`` divides them by their gcd).  The program's value comes
    as an integer over zd^2, zd the optimizer's denominator, and times e^2,
    so c_star, the one Fraction built, is that integer over (zd e)^2.
    """
    e, x0, nums = _lift(sample, start)
    value, (zd, xn), alphas, betas = minimize_qp(sample.n, x0, right_hand_sides(nums))

    weights = []
    for alpha, beta in zip(alphas, betas):
        total = sum(alpha) * sum(beta)
        pieces = [
            (min(i, k), max(i, k), a * b)
            for i, a in enumerate(alpha) if a
            for k, b in enumerate(beta) if b
        ]
        weights.append((total, tuple(sorted(pieces))) if total else (1, ((0, 1, 1),)))
    mean = TorusPoint(zd * e, tuple(xn))
    return mean, Certificate(Fraction(value, (zd * e) ** 2), tuple(weights), mean)
