"""Polytropes: tropical polytopes that are also ordinary polytopes.

A polytrope in the torus is described by an n x n matrix C through the
h-description Q(C) = {x : x_i - x_j >= c_ij}.  Entries live in the max-plus
semiring, with -inf (float('-inf') here, None in JSON) meaning "no
constraint".  The central computation is the max-plus Kleene star
C* = I + C + C^2 + ..., obtained by a Floyd-Warshall sweep; its columns
are the tropical vertices of Q(C), and a strictly positive diagonal in the
closure certifies emptiness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .core import RationalLike, TorusPoint, as_rational, canonicalize
from .errors import EmptyPolytrope, Unbounded

NEG_INF = float("-inf")

TropicalScalar = Fraction | float  # the only float ever allowed is -inf


def _check_scalar(v: TropicalScalar) -> TropicalScalar:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, float) and v == NEG_INF:
        return NEG_INF
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise ValueError(f"matrix entries must be rationals or -inf, got {v!r}")


@dataclass(frozen=True)
class PolytropeMatrix:
    """Square constraint matrix for Q(C) = {x : x_i - x_j >= c_ij}.

    ``starred`` marks matrices known to equal their own Kleene star; it is
    derived metadata and does not take part in equality.
    """

    n: int
    entries: tuple[tuple[TropicalScalar, ...], ...]
    starred: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("polytropes need dimension at least 2")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entries must form an n x n matrix")
        object.__setattr__(
            self,
            "entries",
            tuple(tuple(_check_scalar(v) for v in row) for row in self.entries),
        )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[TropicalScalar]], starred: bool = False) -> "PolytropeMatrix":
        ent = tuple(tuple(row) for row in rows)
        return cls(len(ent), ent, starred)

    def column(self, j: int) -> tuple[TropicalScalar, ...]:
        return tuple(self.entries[i][j] for i in range(self.n))


def ball_to_polytrope(center: Sequence[RationalLike], radius: RationalLike) -> PolytropeMatrix:
    """H-description of the closed tropical ball B(center, radius).

    Off-diagonal entries are -r + y_i - y_j, the diagonal is zero.  For
    r >= 0 this matrix is already its own closure.
    """
    r = as_rational(radius)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    y = [as_rational(c) for c in center]
    n = len(y)
    rows = [
        [Fraction(0) if i == j else -r + y[i] - y[j] for j in range(n)]
        for i in range(n)
    ]
    return PolytropeMatrix.from_rows(rows, starred=True)


def kleene_star(c: PolytropeMatrix) -> PolytropeMatrix:
    """Max-plus closure I + C + C^2 + ... via Floyd-Warshall in O(n^3).

    Raises EmptyPolytrope when the closure has a strictly positive diagonal
    entry, which witnesses an infeasible cycle of constraints.
    """
    if c.starred:
        return c
    n = c.n
    a = [[c.entries[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        if a[i][i] < 0:
            a[i][i] = Fraction(0)
    for k in range(n):
        row_k = a[k]
        for i in range(n):
            aik = a[i][k]
            if aik == NEG_INF:
                continue
            row_i = a[i]
            for j in range(n):
                if row_k[j] == NEG_INF:
                    continue
                v = aik + row_k[j]
                if v > row_i[j]:
                    row_i[j] = v
    for i in range(n):
        if a[i][i] > 0:
            raise EmptyPolytrope(f"closure diagonal entry ({i},{i}) is positive")
    return PolytropeMatrix.from_rows(a, starred=True)


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


def tropical_vertices(c: PolytropeMatrix) -> list[TorusPoint]:
    """Canonicalized columns of the closure, deduplicated in column order.

    These generate Q(C) as a tropical polytope.  A -inf entry anywhere in
    the closure means the polytrope is unbounded and has no such finite
    generator set; that case raises Unbounded.
    """
    star = kleene_star(c)
    out: list[TorusPoint] = []
    seen: set[TorusPoint] = set()
    for j in range(star.n):
        col = star.column(j)
        if any(v == NEG_INF for v in col):
            raise Unbounded("closure column contains -inf; polytrope is unbounded")
        p = canonicalize(col)
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def segment_breakpoints(x: TorusPoint, y: TorusPoint) -> tuple[TorusPoint, ...]:
    """Breakpoints of the tropical segment from y to x.

    Points on the segment are (lam + x) max y with lam running over the
    reals; the combinatorics change exactly at the distinct values of
    y_i - x_i.  Evaluating there yields the breakpoint chain, which starts
    at y (smallest threshold) and ends at x (largest), so consecutive
    entries bound one classical line segment.  A tropical segment in n
    coordinates never needs more than n breakpoints, and the chain from x
    to y is the same points in reverse.
    """
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    thresholds = sorted({yi - xi for xi, yi in zip(x, y)})
    return tuple(
        canonicalize([max(lam + xi, yi) for xi, yi in zip(x, y)]) for lam in thresholds
    )


def pseudovertices(c: PolytropeMatrix) -> list[TorusPoint]:
    """Classical vertices of Q(C) found among the tropical segment breakpoints.

    The candidates are the tropical vertices and the breakpoints of the
    tropical segment between each pair of them, walked once per pair from
    the later vertex to the earlier one, in first occurrence order.  A
    candidate is kept when it is a vertex of Q(C): every candidate lies in
    Q(C), which is tropically convex, and a point of Q(C) is a vertex
    exactly when the pairs (i, j) with x_i - x_j equal to the closure entry
    c*_ij connect all n coordinates, so that the normals e_i - e_j of its
    tight constraints span the torus.

    For n >= 4 the candidates can miss vertices of Q(C), so the result is
    a subset of the vertex set, not always all of it.
    """
    star = kleene_star(c)
    verts = tropical_vertices(star)
    candidates = dict.fromkeys(verts)
    for a, b in combinations(verts, 2):
        candidates.update(dict.fromkeys(segment_breakpoints(a, b)))
    return [p for p in candidates if _tight_pairs_connect(star, p)]


def _tight_pairs_connect(star: PolytropeMatrix, p: TorusPoint) -> bool:
    """True when the pairs (i, j) with p_i - p_j == c*_ij connect 0..n-1."""
    n = p.dim
    reached = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in reached and (
                p[i] - p[j] == star.entries[i][j] or p[j] - p[i] == star.entries[j][i]
            ):
                reached.add(j)
                stack.append(j)
    return len(reached) == n


def intersect(mats: Sequence[PolytropeMatrix]) -> PolytropeMatrix:
    """Entrywise max of the constraint matrices: h-description of the
    intersection.  The result is generally not closed; star it before
    reading off vertices."""
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].n
    if any(m.n != n for m in mats):
        raise ValueError("dimension mismatch")
    if len(mats) == 1:
        return mats[0]
    rows = [
        [max(m.entries[i][j] for m in mats) for j in range(n)]
        for i in range(n)
    ]
    return PolytropeMatrix.from_rows(rows)
