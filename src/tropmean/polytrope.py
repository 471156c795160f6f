"""Polytropes: tropical polytopes that are also ordinary polytopes.

A polytrope in the torus is described by an n x n matrix C through the
h-description Q(C) = {x : x_i - x_j >= c_ij}.  Entries live in the max-plus
semiring, with -inf (float('-inf') here, None in JSON) meaning "no
constraint".  The central computation is the max-plus Kleene star
C* = I + C + C^2 + ..., obtained by a Floyd-Warshall sweep; its columns
are the tropical vertices of Q(C), and a strictly positive diagonal in the
closure certifies emptiness.  Whether a matrix is closed is worked out, not
declared: ``kleene_star`` keeps the closure it computes on the matrix and on
the closure, so the vertex functions, which start from it, share one sweep;
``tropical_vertices`` keeps the closure's columns beside it in the same way.

A ``PolytropeMatrix`` is held as ``(den, rows)``: c_ij == rows[i][j] / den,
with None for -inf.  ``from_rows`` puts Fraction and int entries over
their lcm through ``core.over_lcm``, the one routine that puts the
package's samples, points and matrices over one denominator.  The
constructor divides den and the integers by their gcd, so den is the
entries' least common denominator whatever denominator the matrix was
built over, and equality and hashing compare values.  ``entries`` gives
the Fractions and -inf back.

The closure, the tropical vertices and the pseudovertices run on those
integers.  Floyd-Warshall, the column shifts and the breakpoint comparisons
only add, subtract, compare and take maxima, which commute with multiplying
every value by one positive integer.  So each int is the rational the
computation stands for times den, and the closure and the vertices, in their
order, are exact and identical to a computation over Fractions.
``tropical_vertices`` is the one reader of the closure's columns, and both
vertex functions return its integers: canonical columns, first entry zero,
over the closure's denominator ``kleene_star(c).den``, so no point and no
Fraction is built from the matrix to its vertices.  A caller that wants
points builds them as ``TorusPoint(kleene_star(c).den, col)``.

Every breakpoint of a tropical segment between two columns of the closure
is a classical vertex of Q(C), so ``pseudovertices`` lists them all with no
vertex test; the proof, in its docstring, needs the closure, which its
segments start from.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

from .core import Frozen, RationalLike, as_rational, over_lcm
from .errors import EmptyPolytrope, Unbounded

NEG_INF = float("-inf")

TropicalScalar = Fraction | float  # the only float ever allowed is -inf


def _entry_ratio(v: TropicalScalar) -> tuple[int, int] | None:
    """A matrix entry as (numerator, denominator), None for -inf."""
    if v == NEG_INF:
        return None
    if isinstance(v, (Fraction, int)) and not isinstance(v, bool):
        return v.as_integer_ratio()
    raise ValueError(f"matrix entries must be rationals or -inf, got {v!r}")


class PolytropeMatrix(Frozen):
    """Square constraint matrix for Q(C) = {x : x_i - x_j >= c_ij}, held as
    c_ij == rows[i][j] / den over the least common denominator den; the rows
    are copied to tuples, and divided only when den and they share a factor."""

    _fields = ("den", "rows")

    def __init__(self, den: int, rows: Sequence[Sequence[int | None]]) -> None:
        n = len(rows)
        if n < 2:
            raise ValueError("polytropes need dimension at least 2")
        if any(len(r) != n for r in rows):
            raise ValueError("entries must form an n x n matrix")
        if den < 1:
            raise ValueError("the denominator must be positive")
        g = gcd(den, *[v for row in rows for v in row if v is not None])
        if g > 1:
            rows = [[v if v is None else v // g for v in row] for row in rows]
        rows = tuple(map(tuple, rows))
        self.__dict__.update(den=den // g, rows=rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[TropicalScalar]]) -> "PolytropeMatrix":
        """The matrix of Fraction, int and -inf entries, over the lcm of the
        finite entries' denominators that ``core.over_lcm`` takes."""
        return cls(*over_lcm([[_entry_ratio(v) for v in row] for row in rows]))

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def entries(self) -> tuple[tuple[TropicalScalar, ...], ...]:
        """The entries as Fractions, and -inf for None."""
        den = self.den
        return tuple(
            tuple([NEG_INF if v is None else Fraction(v, den) for v in row]) for row in self.rows
        )


def kleene_star(c: PolytropeMatrix) -> PolytropeMatrix:
    """Max-plus closure I + C + C^2 + ... via Floyd-Warshall in O(n^3).

    The sweep runs on a copy of the integer rows, over the same
    denominator.  Raises EmptyPolytrope when the closure has a strictly
    positive diagonal entry, which witnesses an infeasible cycle of
    constraints.  The closure is kept in the private ``__dict__`` of ``c``
    and of the closure itself, so a later call on either returns it with
    no new sweep.
    """
    if "_closure" in c.__dict__:
        return c.__dict__["_closure"]
    n = c.n
    a = [list(row) for row in c.rows]
    for i in range(n):
        if a[i][i] is None or a[i][i] < 0:
            a[i][i] = 0
    for k in range(n):
        row_k = a[k]
        for row_i in a:
            aik = row_i[k]
            if aik is None:
                continue
            for j, v in enumerate(row_k):
                if v is not None:
                    v += aik
                    if row_i[j] is None or v > row_i[j]:
                        row_i[j] = v
    for i in range(n):
        if a[i][i] > 0:
            raise EmptyPolytrope(f"closure diagonal entry ({i},{i}) is positive")
    star = PolytropeMatrix(c.den, a)
    c.__dict__["_closure"] = star.__dict__["_closure"] = star
    return star


def membership(c: PolytropeMatrix, x: Sequence[RationalLike]) -> bool:
    """Exact test of x_i - x_j >= c_ij for all i != j (any representative)."""
    if len(x) != c.n:
        raise ValueError("dimension mismatch")
    v = [as_rational(t) for t in x]
    for i in range(c.n):
        for j in range(c.n):
            if i == j:
                continue
            e = c.entries[i][j]
            if e != NEG_INF and v[i] - v[j] < e:
                return False
    return True


def tropical_vertices(c: PolytropeMatrix) -> list[tuple[int, ...]]:
    """The closure's distinct canonical columns in column order, as
    integers over its denominator ``kleene_star(c).den``.

    These generate Q(C) as a tropical polytope.  A -inf entry anywhere in
    the closure means the polytrope is unbounded and has no such finite
    generator set; that case raises Unbounded.  The columns are kept in the
    closure's private ``__dict__`` beside it, so a later call on ``c`` or
    on the closure returns a fresh list of them with no new pass.
    """
    star = kleene_star(c)
    if "_columns" not in star.__dict__:
        verts: dict[tuple[int, ...], None] = {}
        for col in zip(*star.rows):
            if None in col:
                raise Unbounded("closure column contains -inf; polytrope is unbounded")
            verts[tuple(v - col[0] for v in col)] = None
        star.__dict__["_columns"] = tuple(verts)
    return list(star.__dict__["_columns"])


def _breakpoints(x: Sequence[int], y: Sequence[int]) -> list[tuple[int, ...]]:
    """The interior breakpoints of the segment from y to x, two canonical
    columns over one denominator, in increasing threshold lam: the point
    max(lam + x, y) - max(lam, 0), canonical as x_0 == y_0 == 0, at each
    y_i - x_i but the smallest and the largest, which give its ends y and x.
    """
    xy = list(zip(x, y))
    out = []
    for lam in sorted({yi - xi for xi, yi in xy})[1:-1]:
        top = lam if lam > 0 else 0  # max(lam, 0); both maxima skip a slower call to max
        out.append(tuple([(xi + lam if xi + lam > yi else yi) - top for xi, yi in xy]))
    return out


def pseudovertices(c: PolytropeMatrix) -> list[tuple[int, ...]]:
    """Classical vertices of Q(C): the tropical vertices and the breakpoints
    of the tropical segment between each pair of them, walked once per pair
    from the later vertex to the earlier one, in first occurrence order, as
    canonical integer columns over ``kleene_star(c).den`` like
    ``tropical_vertices``, whose columns lead the list, and each breakpoint
    put straight into one ordered dict.

    Each of these points is a vertex.  A point p of Q(C) is one exactly
    when the pairs (i, j) with p_i - p_j equal to the closure entry c*_ij
    connect all n coordinates, so that the normals e_i - e_j of its tight
    constraints span the torus.  A tropical vertex, column a of C*, is
    tight against its own index a for every i, since c*_aa = 0.  For the
    segment between columns a and b, u_i = c*_ia and w_i = c*_ib (the
    canonical columns shift every threshold by one constant), closure gives
    c*_ib - c*_ia >= c*_ab = w_a - u_a and c*_ib - c*_ia <= -c*_ba =
    w_b - u_b, so a attains the smallest threshold and b the largest.  At
    the breakpoint p = (lam + u) max w with lam = w_k - u_k, the set
    S = {i : w_i - u_i <= lam} contains a and k.  Each i in S is tight
    against a (p_i - p_a = c*_ia); when b is not in S, each j outside S and
    k as well are tight against b (p_j - p_b = c*_jb); when b is in S, S is
    every coordinate.  Either way the tight pairs connect all coordinates.
    The argument needs C* closed, which is why the segments join its columns.

    For n >= 4 some vertices of Q(C) lie on no such segment, so the result
    is a subset of the vertex set, not always all of it.
    """
    verts = tropical_vertices(c)
    points = dict.fromkeys(verts)
    for u, w in combinations(verts, 2):
        for p in _breakpoints(u, w):
            points[p] = None
    return list(points)

