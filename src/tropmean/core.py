"""Exact points of the tropical projective torus and the tropical metric.

Every quantity this package returns is exact; nothing is ever rounded.  A
point of the torus R^n / R(1,...,1) is stored through its unique
representative whose first coordinate is zero, held as ``(den, nums)``:
integers over a positive denominator, divided by their gcd, so equality,
hashing and serialization are all well defined.  ``coords`` gives the
coordinates back as Fractions.  A sample is held the same way, as
``(den, nums)``: its points' integers over one common denominator, which
the solvers and the certificate check compute on.  ``over_lcm`` is the one
routine that puts rationals over their least common denominator: the
library constructors here and in ``polytrope`` and the document readers
in ``serialize`` all go through it.  ``integer_ratio`` is the one reader
of rational values: an int, a Fraction or a string becomes an integer pair
there, for the library constructors and the document readers alike, a
string through ``read_literal`` under the literal caps unless it is a
plain "p" or "p/q".
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

RationalLike = Fraction | int | str


def as_rational(value: RationalLike) -> Fraction:
    """An int, a Fraction, or a "p", "p/q" or decimal string as an exact
    Fraction, read by ``integer_ratio``."""
    return value if isinstance(value, Fraction) else Fraction(*integer_ratio(value))


# Caps on every number literal read: its digits in all, and its decimal exponent.
MAX_LITERAL_DIGITS = 1000
MAX_LITERAL_EXPONENT = 1000

# A plain ASCII "p" or "p/q" literal with a nonzero q.
_PLAIN_RATIONAL = re.compile(r"([-+]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def integer_ratio(value: object) -> tuple[int, int]:
    """An int, a Fraction or a string, exactly, as (numerator, denominator)
    with a positive denominator: a plain ASCII "p" or "p/q" string within
    the digit cap is read directly, any other string by ``read_literal``.
    A malformed string raises ValueError and a value of another type
    TypeError, each with the line to print.  The one reader of rational
    values."""
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        plain = len(value) <= MAX_LITERAL_DIGITS and _PLAIN_RATIONAL.fullmatch(value)
        if plain:
            return int(plain[1]), int(plain[2] or 1)
        return read_literal(value).as_integer_ratio()
    if isinstance(value, bool):
        raise TypeError("booleans are not coordinates")
    if isinstance(value, (int, Fraction)):
        return value.as_integer_ratio()
    if isinstance(value, float):
        # A float is already rounded: refuse it rather than guess which
        # decimal was meant.
        raise TypeError(f"refusing inexact float {value!r}; write it as a string")
    raise TypeError(f"cannot read coordinate {abbreviate(value)}")


# Every character a literal may hold; ``Fraction`` checks the grammar.
_LITERAL_CHARS = frozenset("0123456789+-/.eE")


def read_literal(text: str) -> Fraction:
    """The rational a "p", "p/q" or decimal literal names, exactly.  A
    malformed literal, or one over the caps, which are checked on the text
    before any integer is built, raises ValueError with the line to print.
    Only ASCII digits, signs, "/", "." and exponents are read: ``Fraction``
    alone takes other decimal digits, and underscores and spaces around "/"
    on some Python versions only."""
    body = text.strip()
    if not _LITERAL_CHARS.issuperset(body):
        raise ValueError(f"not a rational: {abbreviate(text)}")
    # A literal no longer than the cap cannot hold more digits than the cap.
    if len(body) > MAX_LITERAL_DIGITS and sum(c.isdigit() for c in body) > MAX_LITERAL_DIGITS:
        raise ValueError(f"number {abbreviate(body)} has more than {MAX_LITERAL_DIGITS} digits")
    if "e" in body or "E" in body:
        _, _, exponent = body.lower().partition("e")
        try:
            too_large = abs(int(exponent)) > MAX_LITERAL_EXPONENT
        except ValueError:
            raise ValueError(f"not a rational: {abbreviate(text)}") from None
        if too_large:
            raise ValueError(f"exponent of {abbreviate(body)} exceeds {MAX_LITERAL_EXPONENT}")
    try:
        return Fraction(body)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {abbreviate(text)}") from None


def abbreviate(value: object) -> str:
    """An input value for an error line: its repr, where a string or a repr
    longer than 24 characters keeps only its first and last ten."""
    if isinstance(value, str):
        return repr(value if len(value) <= 24 else f"{value[:10]}...{value[-10:]}")
    text = repr(value)
    return text if len(text) <= 24 else f"{text[:10]}...{text[-10:]}"


class Frozen:
    """Base of the package's immutable values.

    A subclass's ``__init__`` checks and normalises its fields and stores
    them through ``self.__dict__``; after that, assigning or deleting an
    attribute raises AttributeError.  ``_fields`` names the fields in
    constructor order for the repr.  Equality and hashing compare
    ``_key()``, the fields, between instances of one class only.  Derived
    state, a ``cached_property``'s value or a matrix's kept closure, is
    stored in ``__dict__`` too, and is not a field.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class TorusPoint(Frozen):
    """A point of the tropical projective torus in canonical form.

    Held as ``(den, nums)``: coordinate i is nums[i] / den, with nums[0]
    zero and den positive, both divided by their gcd, so equality and
    hashing compare values.  ``coords`` gives the Fractions back; use
    :func:`canonicalize` to build a point from an arbitrary representative.
    """

    _fields = ("den", "nums")

    def __init__(self, den: int, nums: tuple[int, ...]) -> None:
        if len(nums) < 2:
            raise ValueError("torus points need at least two coordinates")
        if den < 1:
            raise ValueError("the denominator must be positive")
        if nums[0] != 0:
            raise ValueError(
                "canonical representative must have first coordinate 0; "
                "use canonicalize()"
            )
        g = gcd(den, *nums)
        fields = self.__dict__
        fields["den"] = den // g
        fields["nums"] = tuple(nums) if g == 1 else tuple([v // g for v in nums])

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions."""
        return tuple([Fraction(v, self.den) for v in self.nums])

    @property
    def dim(self) -> int:
        return len(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __repr__(self) -> str:
        return "TorusPoint(" + ", ".join(str(c) for c in self.coords) + ")"


def over_lcm(rows: Sequence[Sequence[tuple[int, int] | None]]) -> tuple[int, list[list]]:
    """(den, nums): rows of (numerator, denominator) pairs or None, each
    numerator scaled onto den, the lcm of the denominators, and None kept.
    The one place where rationals are put over one denominator."""
    den = lcm(*(p[1] for row in rows for p in row if p is not None))
    return den, [[None if p is None else p[0] * (den // p[1]) for p in row] for row in rows]


def canonicalize(coords: Sequence[RationalLike]) -> TorusPoint:
    """Return the canonical representative of a raw coordinate vector.

    Subtracts the first coordinate from all entries, which is the unique
    shift by a multiple of (1,...,1) that lands on first-coordinate zero,
    after ``integer_ratio`` reads them and ``over_lcm`` puts them over
    their least common denominator.
    """
    vals = [integer_ratio(c) for c in coords]
    if len(vals) < 2:
        raise ValueError("need at least two coordinates")
    den, (nums,) = over_lcm([vals])
    return TorusPoint(den, tuple(v - nums[0] for v in nums))


def trop_dist(x: Sequence[RationalLike], y: Sequence[RationalLike]) -> Fraction:
    """Tropical distance max_i(x_i - y_i) - min_i(x_i - y_i).

    The value does not depend on which representatives of the torus points
    are passed in, since shifting either argument by a constant vector
    shifts every difference by the same amount.
    """
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    diffs = [as_rational(a) - as_rational(b) for a, b in zip(x, y)]
    return max(diffs) - min(diffs)


class SampleSet(Frozen):
    """A nonempty finite configuration of torus points of equal dimension.

    Held as ``(den, nums)``: point j has coordinates nums[j][a] / den.  The
    constructor takes raw rows over den > 0, shifts each to first entry 0
    and divides den and the integers by their gcd, so equality and hashing
    compare values.  ``from_rows`` reads rationals through ``integer_ratio``
    and ``over_lcm``.
    ``points`` gives the ``TorusPoint``s back.
    """

    _fields = ("den", "nums")

    def __init__(self, den: int, nums: Sequence[Sequence[int]]) -> None:
        if not nums:
            raise ValueError("sample set must be nonempty")
        if any(len(row) < 2 for row in nums):
            raise ValueError("need at least two coordinates")
        n = len(nums[0])
        if any(len(row) != n for row in nums):
            raise ValueError("all sample points must share one dimension")
        if den < 1:
            raise ValueError("the denominator must be positive")
        nums = [[v - row[0] for v in row] for row in nums]
        g = gcd(den, *(v for row in nums for v in row))
        nums = tuple(tuple(v // g for v in row) for row in nums)
        self.__dict__.update(den=den // g, nums=nums)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[RationalLike]]) -> "SampleSet":
        """The sample of rows of Fractions, ints and strings, all read by
        ``integer_ratio`` before any row is checked, over the lcm
        ``over_lcm`` takes."""
        return cls(*over_lcm([[integer_ratio(v) for v in row] for row in rows]))

    @cached_property
    def points(self) -> tuple[TorusPoint, ...]:
        """The sample points, each built from its row."""
        return tuple(TorusPoint(self.den, row) for row in self.nums)

    @property
    def n(self) -> int:
        """Ambient coordinate count."""
        return len(self.nums[0])

    @property
    def m(self) -> int:
        """Number of samples."""
        return len(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self) -> Iterator[TorusPoint]:
        return iter(self.points)

    def __getitem__(self, j: int) -> TorusPoint:
        return self.points[j]
