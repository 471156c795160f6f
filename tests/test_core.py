"""Torus points, samples, immutable values and the tropical metric."""

import copy
import pickle
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmean import (
    NEG_INF,
    Certificate,
    PolytropeMatrix,
    SampleSet,
    TorusPoint,
    as_rational,
    canonicalize,
    exact_frechet,
    kleene_star,
    trop_dist,
)
from tropmean.core import read_literal
from tropmean.frechet import FrechetResult
from support import rand_point, rand_vector, reference_canonicalize


def test_canonicalize_subtracts_the_first_coordinate():
    assert canonicalize([1, 1, 2]).coords == (0, 0, 1)
    assert canonicalize([0, 0, 0]).coords == (0, 0, 0)


def test_canonicalize_identifies_shifted_vectors():
    a = canonicalize([4, 0, 9])
    b = canonicalize([5, 1, 10])
    assert a == b
    assert a.coords == (0, -4, 5)


def test_canonicalize_is_idempotent():
    rng = Random("core:idempotent")
    for _ in range(50):
        p = rand_point(rng, rng.randint(2, 6))
        assert canonicalize(p.coords) == p


def test_canonicalize_rejects_short_vectors():
    with pytest.raises(ValueError):
        canonicalize([Fraction(1)])


_coordinates = st.one_of(
    st.integers(-40, 40),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 5, 7, 12))),
    st.sampled_from(("1/2", "-0.25", "7")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_coordinates, min_size=2, max_size=6), st.integers(1, 12))
def test_a_point_is_held_as_integers_over_its_denominator(values, k):
    """``canonicalize`` gives the Fraction route's canonical coordinates
    back through ``coords``, over den the lcm of their denominators; the
    same integers over a multiple of den make an equal point with an equal
    hash; and the constructor refuses a short vector, a nonzero first entry
    and a denominator below 1 with ValueError (raised, not asserted, as
    ``test_layout`` holds every module to, so ``python -O`` keeps it)."""
    p = canonicalize(values)
    expected = reference_canonicalize(values)
    assert p.coords == expected and all(type(v) is Fraction for v in p.coords)
    assert p.den == lcm(*(v.denominator for v in expected))
    assert p.nums == tuple(int(v * p.den) for v in expected)
    assert p.dim == len(p) == len(values)
    assert (list(p), p[-1]) == (list(expected), expected[-1])
    scaled = TorusPoint(k * p.den, [k * v for v in p.nums])
    assert scaled == p and hash(scaled) == hash(p)
    assert (scaled.den, scaled.nums) == (p.den, p.nums)
    for den, nums in ((p.den, p.nums[:1]), (p.den, (k, *p.nums[1:])), (1 - k, p.nums)):
        with pytest.raises(ValueError):
            TorusPoint(den, nums)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    assert as_rational(3) == Fraction(3)
    assert as_rational(Fraction(2, 7)) == Fraction(2, 7)


@pytest.mark.parametrize(
    "literal",
    ["7" * 1001, "1e1001", "1/" + "3" * 1001, "2.5E-1001", "x", "1/0"],
    ids=["1001-digits", "exponent", "1001-digit-denominator", "negative-exponent", "text", "zero-denominator"],
)
def test_library_strings_are_held_to_the_literal_caps(literal):
    """A string handed to the library is read under the command line's caps:
    an oversized or malformed one raises ValueError before any large
    integer is built."""
    with pytest.raises(ValueError):
        as_rational(literal)
    with pytest.raises(ValueError):
        canonicalize(["0", literal])
    with pytest.raises(ValueError):
        SampleSet.from_rows([["0", literal], ["1", "2"]])


@pytest.mark.parametrize(
    "literal", ["1_000", "1e1_0", "1 / 2", "1/ 2", "\u0661\u0662", "\uff11.5"],
    ids=[
        "underscore", "underscore-exponent", "spaced-slash", "space-after-slash", "arabic-indic", "fullwidth",
    ],
)
def test_library_strings_take_one_ascii_syntax(literal):
    """Underscores, spaces around "/" and non-ASCII digits are refused on
    every Python, though some versions' ``Fraction`` reads them."""
    with pytest.raises(ValueError, match="not a rational"):
        as_rational(literal)


def test_library_strings_at_the_literal_caps_are_read():
    assert as_rational("7" * 1000) == int("7" * 1000)
    assert as_rational(" -1e1000 ") == -(Fraction(10) ** 1000)
    assert as_rational("1/" + "3" * 998) == Fraction(1, int("3" * 998))
    assert canonicalize(["1/2", "0.25"]).coords == (0, Fraction(-1, 4))


def test_the_digit_cap_counts_digits_not_characters():
    """A literal of exactly 1,000 digits is read though its text is longer
    than the cap, with a sign in front or with a "/" among its digits; one
    of 1,001 digits with a sign is refused with the cap's line."""
    assert read_literal("-" + "7" * 1000) == -int("7" * 1000)
    assert read_literal("3" * 500 + "/" + "7" * 500) == Fraction(int("3" * 500), int("7" * 500))
    with pytest.raises(ValueError, match=r"^number '-777.*' has more than 1000 digits$"):
        read_literal("-" + "7" * 1001)


def test_distance_golden_values():
    assert trop_dist((4, 0, 9), (0, -1, 5)) == 3
    assert trop_dist((0, 0, 0), (0, 1, 2)) == 2
    p = canonicalize([7, -2, 3])
    assert trop_dist(p, p) == 0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        trop_dist((0, 1), (0, 1, 2))


def test_metric_axioms_on_random_triples():
    rng = Random("core:metric")
    for _ in range(200):
        n = rng.randint(2, 6)
        x, y, z = (rand_vector(rng, n) for _ in range(3))
        dxy = trop_dist(x, y)
        assert dxy >= 0
        assert dxy == trop_dist(y, x)
        assert trop_dist(x, z) <= dxy + trop_dist(y, z)
        assert (dxy == 0) == (canonicalize(x) == canonicalize(y))


def test_distance_ignores_representatives():
    rng = Random("core:shift")
    for _ in range(60):
        n = rng.randint(2, 5)
        x, y = rand_vector(rng, n), rand_vector(rng, n)
        c = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        shifted = [v + c for v in x]
        assert trop_dist(shifted, y) == trop_dist(x, y)


def test_sample_set_canonicalizes_rows():
    s = SampleSet.from_rows([(1, 1, 2), (0, 0, 0)])
    assert s[0].coords == (0, 0, 1)
    assert s.m == 2 and s.n == 3
    assert len(s) == 2
    assert [p.coords for p in s] == [(0, 0, 1), (0, 0, 0)]


def test_sample_set_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SampleSet.from_rows([])
    with pytest.raises(ValueError):
        SampleSet.from_rows([(0, 1), (0, 1, 2)])


def test_sample_set_is_held_as_its_reduced_integers():
    """The constructor shifts each row to first entry 0 and divides den and
    the integers by their gcd, and rejects each bad shape with its line,
    a denominator below one before any division."""
    s = SampleSet(2, [[2, 4, 6], [0, 2, 2]])
    assert (s.den, s.nums) == (1, ((0, 1, 2), (0, 1, 1)))
    assert s == SampleSet.from_rows([[Fraction(1), Fraction(2), Fraction(3)], [0, 1, 1]])
    for den, nums, text in [
        (1, [[0]], "need at least two coordinates"),
        (1, [], "sample set must be nonempty"),
        (1, [[0, 1], [0, 1, 2]], "all sample points must share one dimension"),
        (-3, [[0, 3]], "the denominator must be positive"),
        (0, [[0, 0]], "the denominator must be positive"),
    ]:
        with pytest.raises(ValueError) as info:
            SampleSet(den, nums)
        assert str(info.value) == text


def test_sample_set_from_a_list_is_immutable_and_hashable():
    rows = [(0, 1), (0, 2)]
    points = [canonicalize(row) for row in rows]
    s = SampleSet.from_rows(points)
    points.append(canonicalize([0, 1, 2]))
    assert s.points == tuple(points[:2]) and s.m == 2
    assert s == SampleSet.from_rows(rows)
    assert hash(s) == hash(SampleSet.from_rows(rows))


def _equal_values():
    """Pairs of equal values, one of each value class, each side built on
    its own: a point from two representatives, a sample from Fractions and
    from integers, two matrices given over different denominators, a
    closure that keeps itself as its closure and the same rows built fresh,
    and two solves of one sample."""
    rows = [[0, 1, 2], [3, 1, 0], [1, 1, 1]]
    sample = SampleSet.from_rows(rows)
    one, two = exact_frechet(sample), exact_frechet(SampleSet.from_rows(rows))
    star = kleene_star(
        PolytropeMatrix.from_rows([[0, -1, NEG_INF], [NEG_INF, 0, -2], [-5, NEG_INF, 0]])
    )
    return [
        (canonicalize([1, 3, 2]), TorusPoint(2, (0, 4, 2))),
        (sample, SampleSet(1, rows)),
        (
            PolytropeMatrix(2, [[0, 2], [None, 0]]),
            PolytropeMatrix.from_rows([[0, 1], [NEG_INF, 0]]),
        ),
        (star, PolytropeMatrix(star.den, star.rows)),
        (one.certificate, two.certificate),
        (one, two),
    ]


@pytest.mark.parametrize("index", range(6))
def test_values_compare_and_hash_by_value_and_refuse_changes(index):
    """Each value class compares and hashes by value, refuses assignment
    and deletion of any attribute, and survives pickle and deepcopy as an
    equal value."""
    x, y = _equal_values()[index]
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != object()
    for name in [*vars(x), "extra"]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in vars(x):
        with pytest.raises(AttributeError):
            delattr(x, name)
    for z in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert z == x and hash(z) == hash(x)


@pytest.mark.parametrize("k", [2, 3, 12])
def test_results_and_certificates_over_scaled_denominators_are_equal(k):
    """A result's spreads and each weight group of a certificate are held
    over their least denominator: the same values over k times it make an
    equal value with an equal hash and the same fields."""
    result = exact_frechet(SampleSet.from_rows([(-3, 0, 0), (0, -6, 0), (0, 0, -12)]))
    cert = result.certificate
    assert any(den > 1 for den, _ in cert.weights)
    spreads = tuple(k * v for v in result.spreads)
    scaled = FrechetResult(result.mean, k * result.den, spreads, result.fm_polytrope, cert)
    assert scaled == result and hash(scaled) == hash(result)
    assert (scaled.den, scaled.spreads) == (result.den, result.spreads)
    assert (scaled.distances, scaled.min_sum) == (result.distances, result.min_sum)
    weights = [(k * den, [(i, j, k * w) for i, j, w in per]) for den, per in cert.weights]
    again = Certificate(cert.c_star, weights, cert.point)
    assert again == cert and hash(again) == hash(cert)
    assert again.weights == cert.weights


def test_value_reprs():
    assert repr(TorusPoint(2, (0, 4, 1))) == "TorusPoint(0, 2, 1/2)"
    assert repr(kleene_star(PolytropeMatrix(2, [[0, 2], [None, 0]]))) == (
        "PolytropeMatrix(den=1, rows=((0, 1), (None, 0)))"
    )
