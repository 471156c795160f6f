"""Polytrope matrices: closure, membership, vertices, segment breakpoints,
and the tropical balls and intersections of the tests' reference."""

from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropmean import (
    EmptyPolytrope,
    NEG_INF,
    PolytropeMatrix,
    SampleSet,
    TorusPoint,
    Unbounded,
    canonicalize,
    exact_frechet,
    kleene_star,
    membership,
    pseudovertices,
    trop_dist,
    tropical_vertices,
)
from tropmean.polytrope import _breakpoints
from support import (
    _reference_tight_pairs_connect,
    ball_to_polytrope,
    feasible_point,
    intersect,
    nonpositive_matrix,
    rand_point,
    rand_vector,
    reference_pseudovertices,
    reference_segment_breakpoints,
    reference_tropical_vertices,
    vertex_points,
)

F = Fraction

# 3x3 matrix with a known closure, three tropical vertices and five
# classical vertices; used as the golden fixture throughout this file.
KNOWN = PolytropeMatrix.from_rows(
    [
        [F(-1), F(1), F(-5)],
        [F(-4), F(0), NEG_INF],
        [F(0), F(3), NEG_INF],
    ]
)
KNOWN_STAR = (
    (F(0), F(1), F(-5)),
    (F(-4), F(0), F(-9)),
    (F(0), F(3), F(0)),
)


def _trop_matmul(a, b, n):
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            best = NEG_INF
            for k in range(n):
                if a[i][k] == NEG_INF or b[k][j] == NEG_INF:
                    continue
                v = a[i][k] + b[k][j]
                if best == NEG_INF or v > best:
                    best = v
            row.append(best)
        out.append(row)
    return out


def test_matrix_validation():
    with pytest.raises(ValueError):
        PolytropeMatrix.from_rows([[F(0)]])
    with pytest.raises(ValueError):
        PolytropeMatrix.from_rows([[F(0), F(1)], [F(0)]])
    with pytest.raises(TypeError) as caught:
        PolytropeMatrix.from_rows([[F(0), 0.5], [F(0), F(0)]])
    assert str(caught.value) == "refusing inexact float 0.5; write it as a string"


@pytest.mark.parametrize(
    "value",
    [
        0,
        -3,
        F(-1, 2),
        "-1/2",
        "0.25",
        "1e-3",
        True,
        0.5,
        float("nan"),
        "1/0",
        "1" * 1001,
        [1],
    ],
    ids=[
        "0",
        "-3",
        "Fraction(-1, 2)",
        "'-1/2'",
        "'0.25'",
        "'1e-3'",
        "True",
        "0.5",
        "nan",
        "'1/0'",
        "1001-digit",
        "[1]",
    ],
)
def test_a_matrix_reads_an_entry_as_a_sample_reads_a_coordinate(value):
    """``PolytropeMatrix.from_rows`` and ``SampleSet.from_rows`` both read a
    finite value by ``integer_ratio``: both take it as one rational, or both
    refuse it with one exception type and one text."""
    rows = [[0, value], [0, 0]]
    outcomes = []
    for build, fields in ((PolytropeMatrix.from_rows, "rows"), (SampleSet.from_rows, "nums")):
        try:
            built = build(rows)
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((built.den, getattr(built, fields)))
    assert outcomes[0] == outcomes[1]


_scalars = st.one_of(
    st.integers(-30, 30),
    st.builds(F, st.integers(-30, 30), st.sampled_from((1, 2, 3, 5, 7))),
    st.just(NEG_INF),
)


@st.composite
def _square_rows(draw):
    n = draw(st.integers(2, 5))
    return [draw(st.lists(_scalars, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(_square_rows(), st.integers(1, 12))
def test_from_rows_holds_the_entries_over_their_least_common_denominator(rows, k):
    """``entries`` gives the rows back as Fractions and -inf, ``den`` is the
    least common denominator of the finite entries and ``rows`` holds them
    times den; the same values over a multiple of den make an equal matrix
    with an equal hash."""
    c = PolytropeMatrix.from_rows(rows)
    assert c.entries == tuple(map(tuple, rows))
    assert all(v is NEG_INF or type(v) is F for row in c.entries for v in row)
    assert c.den == lcm(*(F(v).denominator for row in rows for v in row if v != NEG_INF))
    assert c.rows == tuple(
        tuple(None if v == NEG_INF else int(v * c.den) for v in row) for row in rows
    )
    scaled = PolytropeMatrix(k * c.den, [[v if v is None else k * v for v in row] for row in c.rows])
    assert scaled == c and hash(scaled) == hash(c)
    assert (scaled.den, scaled.rows) == (c.den, c.rows)
    # rows already over the least common denominator are kept, not divided,
    # and the matrix does not follow later changes to the caller's lists
    lists = [list(row) for row in c.rows]
    kept = PolytropeMatrix(c.den, lists)
    lists[0][0] = 1 if lists[0][0] is None else lists[0][0] + 1
    lists.append(lists.pop(0))
    assert (kept.den, kept.rows) == (c.den, c.rows)


def test_kleene_star_golden():
    star = kleene_star(KNOWN)
    assert star.entries == KNOWN_STAR
    assert kleene_star(star) is star


def test_kleene_star_fixes_identity():
    ident = PolytropeMatrix.from_rows(
        [[F(0) if i == j else NEG_INF for j in range(3)] for i in range(3)]
    )
    assert kleene_star(ident).entries == ident.entries


def test_kleene_star_is_idempotent_and_product_stable():
    rng = Random("polytrope:star")
    for _ in range(50):
        n = rng.randint(2, 5)
        c = nonpositive_matrix(rng, n)
        star = kleene_star(c)
        again = kleene_star(PolytropeMatrix.from_rows(star.entries))
        assert again.entries == star.entries
        prod = _trop_matmul(star.entries, star.entries, n)
        assert tuple(tuple(r) for r in prod) == star.entries


def test_kleene_star_matches_tropical_power_sum():
    rng = Random("polytrope:powers")
    for _ in range(30):
        n = rng.randint(2, 4)
        c = nonpositive_matrix(rng, n)
        acc = [
            [F(0) if i == j else NEG_INF for j in range(n)] for i in range(n)
        ]
        power = [row[:] for row in acc]
        for _ in range(n - 1):
            power = _trop_matmul(power, [list(r) for r in c.entries], n)
            acc = [
                [max(acc[i][j], power[i][j]) for j in range(n)] for i in range(n)
            ]
        assert kleene_star(c).entries == tuple(tuple(r) for r in acc)


def test_positive_cycle_is_reported_empty():
    bad = PolytropeMatrix.from_rows([[F(0), F(2)], [F(-1), F(0)]])
    with pytest.raises(EmptyPolytrope):
        kleene_star(bad)
    # Over den 2 the cycle 0 -> 1 -> 0 gains 1/2, a closure diagonal
    # numerator of exactly 1.
    with pytest.raises(EmptyPolytrope) as caught:
        kleene_star(PolytropeMatrix(2, [[0, 1], [0, 0]]))
    assert str(caught.value) == "closure diagonal entry (0,0) is positive"


@pytest.mark.parametrize("fn", [kleene_star, tropical_vertices, pseudovertices])
def test_an_empty_polytrope_cannot_be_declared_closed(fn):
    """Closedness is worked out by ``kleene_star``, never passed in: the
    constructor takes no flag that would skip the sweep, and every function
    that reads the closure of the rows of a positive cycle reports it empty."""
    with pytest.raises(TypeError):
        PolytropeMatrix(1, [[0, 2], [-1, 0]], starred=True)
    with pytest.raises(EmptyPolytrope):
        fn(PolytropeMatrix(1, [[0, 2], [-1, 0]]))


def _fraction_star(rows):
    """Plain Floyd-Warshall over Fractions: None when some closure diagonal
    entry is positive, else the closure rows."""
    n = len(rows)
    a = [list(r) for r in rows]
    for i in range(n):
        a[i][i] = max(a[i][i], F(0))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if a[i][k] != NEG_INF and a[k][j] != NEG_INF:
                    a[i][j] = max(a[i][j], a[i][k] + a[k][j])
    if any(a[i][i] > 0 for i in range(n)):
        return None
    return tuple(tuple(r) for r in a)


_DENOMS = (1, 2, 3, 5, 7)
_neg_inf = st.just(NEG_INF)
_off_diagonal = st.one_of(
    _neg_inf, st.builds(Fraction, st.integers(-20, 2), st.sampled_from(_DENOMS))
)
_diagonal = st.one_of(
    _neg_inf,
    st.just(F(0)),
    st.builds(Fraction, st.integers(-6, -1), st.sampled_from(_DENOMS)),
)


@st.composite
def _constraint_rows(draw):
    n = draw(st.integers(2, 7))
    return [[draw(_diagonal if i == j else _off_diagonal) for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(_constraint_rows())
@example([[F(0), F(2)], [F(-1), F(0)]])  # the cycle 0 -> 1 -> 0 gains 1: empty
@example([[F(1, 3), F(-1)], [F(-1), NEG_INF]])  # a positive diagonal: empty
@example([[NEG_INF, NEG_INF], [NEG_INF, NEG_INF]])
@example([[F(-1, 2), F(-1, 3), F(-1, 5)], [F(-1, 7), NEG_INF, F(-2)], [F(-3), F(-1), F(-5, 7)]])
def test_kleene_star_matches_a_fraction_floyd_warshall(rows):
    expected = _fraction_star(rows)
    c = PolytropeMatrix.from_rows(rows)
    if expected is None:
        with pytest.raises(EmptyPolytrope):
            kleene_star(c)
        return
    star = kleene_star(c)
    assert kleene_star(star) is star
    assert star.entries == expected
    for row in star.entries:
        for v in row:
            assert type(v) is Fraction or (type(v) is float and v == NEG_INF)


def test_membership_golden_checks():
    assert membership(KNOWN, (0, -4, 3))
    assert not membership(KNOWN, (0, 0, 0))


def test_a_matrix_with_a_positive_diagonal_entry_has_no_member():
    """x_i - x_i >= c_ii fails for every x when c_ii > 0, so membership tests
    the diagonal too: an empty matrix has no member."""
    empty = PolytropeMatrix(1, [[1, -5], [-5, 0]])
    with pytest.raises(EmptyPolytrope):
        kleene_star(empty)
    assert not membership(empty, (0, 0))
    rng = Random("polytrope:positive-diagonal")
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = [list(row) for row in nonpositive_matrix(rng, n).entries]
        i = rng.randrange(n)
        rows[i][i] = F(rng.randint(1, 6), rng.choice((1, 2)))
        c = PolytropeMatrix.from_rows(rows)
        with pytest.raises(EmptyPolytrope):
            kleene_star(c)
        assert not membership(c, rand_vector(rng, n))


def test_membership_refuses_a_point_of_another_dimension():
    with pytest.raises(ValueError) as caught:
        membership(KNOWN, (0, 0))
    assert str(caught.value) == "dimension mismatch"


@pytest.mark.parametrize(
    "den, rows, line",
    [
        (0, [[0, -1], [-1, 0]], "the denominator must be positive"),
        (1, [[0]], "polytropes need dimension at least 2"),
        (1, [[0, -1], [-1]], "entries must form an n x n matrix"),
    ],
    ids=["zero-denominator", "one-coordinate", "ragged"],
)
def test_the_matrix_constructor_refuses_a_malformed_matrix(den, rows, line):
    with pytest.raises(ValueError) as caught:
        PolytropeMatrix(den, rows)
    assert str(caught.value) == line


def test_membership_accepts_any_representative():
    rng = Random("polytrope:rep")
    for _ in range(40):
        n = rng.randint(2, 5)
        c = nonpositive_matrix(rng, n)
        x = rand_vector(rng, n)
        c0 = F(rng.randint(-5, 5))
        assert membership(c, x) == membership(c, [v + c0 for v in x])


def test_membership_survives_the_closure():
    rng = Random("polytrope:closure")
    for _ in range(40):
        n = rng.randint(2, 5)
        c = nonpositive_matrix(rng, n)
        star = kleene_star(c)
        x = rand_vector(rng, n, span=8)
        assert membership(c, x) == membership(star, x)


def test_tropical_vertices_golden():
    verts = vertex_points(tropical_vertices, KNOWN)
    expected = [canonicalize(col) for col in zip(*KNOWN_STAR)]
    seen = []
    for p in expected:
        if p not in seen:
            seen.append(p)
    assert verts == seen
    assert len(verts) == 3
    for v in verts:
        assert membership(KNOWN, v.coords)


def test_the_closure_keeps_its_columns():
    """A second ``tropical_vertices`` call, on the matrix or on its closure,
    and ``pseudovertices`` after it read the columns the first call kept
    beside the closure, not its rows, and each call returns a fresh list."""
    c = nonpositive_matrix(Random("polytrope:kept-columns"), 5)
    first = tropical_vertices(c)
    star = kleene_star(c)
    star.__dict__["rows"] = None  # a second pass over the rows would fail
    again = tropical_vertices(c)
    assert again == first and again is not first
    again.append(None)
    assert tropical_vertices(star) == first
    assert pseudovertices(c)[: len(first)] == first


def test_tropical_vertices_reject_unbounded():
    ident = PolytropeMatrix.from_rows(
        [[F(0) if i == j else NEG_INF for j in range(3)] for i in range(3)]
    )
    with pytest.raises(Unbounded):
        tropical_vertices(ident)


def test_ball_matrix_golden_entries():
    ball = ball_to_polytrope((0, 0, 0), 2)
    for i in range(3):
        for j in range(3):
            assert ball.entries[i][j] == (F(0) if i == j else F(-2))
    ball = ball_to_polytrope((0, 1, 2), 1)
    assert ball.entries[0][1] == F(-2)
    assert ball.entries[0][2] == F(-3)
    assert ball.entries[1][0] == F(0)
    assert ball.entries[1][2] == F(-2)
    assert ball.entries[2][0] == F(1)
    assert ball.entries[2][1] == F(0)


def test_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        ball_to_polytrope((0, 0), -1)


def test_ball_membership_matches_distance():
    rng = Random("polytrope:ball")
    for _ in range(200):
        n = rng.randint(2, 5)
        center = rand_point(rng, n)
        r = F(rng.randint(0, 8), rng.choice((1, 2, 3)))
        x = rand_vector(rng, n, span=8)
        ball = ball_to_polytrope(center, r)
        assert membership(ball, x) == (trop_dist(x, center) <= r)


def _chain(x, y):
    """The breakpoint chain of the tropical segment from y to x, as
    ``pseudovertices`` builds it: y, the interior breakpoints ``_breakpoints``
    finds on the two points over their common denominator, and x; just x
    when x == y."""
    if x == y:
        return [x]
    den = lcm(x.den, y.den)
    u, w = ([v * (den // p.den) for v in p.nums] for p in (x, y))
    return [y, *(TorusPoint(den, p) for p in _breakpoints(u, w)), x]


def test_segment_chain_golden():
    x = canonicalize([0, 0, 0])
    y = canonicalize([0, 1, 2])
    assert _breakpoints(x.nums, y.nums) == [(0, 0, 1)]
    assert _chain(x, y) == [
        canonicalize([0, 1, 2]),
        canonicalize([0, 0, 1]),
        canonicalize([0, 0, 0]),
    ]


def test_segment_degenerate_and_two_coordinate_cases():
    p = canonicalize([3, 1, 4])
    assert _breakpoints(p.nums, p.nums) == []
    a = canonicalize([0, 0])
    b = canonicalize([0, 3])
    assert _breakpoints(a.nums, b.nums) == []
    assert _chain(a, b) == [b, a]


def test_segment_points_lie_on_the_tropical_segment():
    rng = Random("polytrope:segment")
    for _ in range(80):
        n = rng.randint(2, 6)
        x = rand_point(rng, n)
        y = rand_point(rng, n)
        chain = _chain(x, y)
        assert len(chain) <= n
        assert chain[0] == y and chain[-1] == x
        lams = sorted({yi - xi for xi, yi in zip(x, y)})
        reachable = {canonicalize([max(lam + xi, yi) for xi, yi in zip(x, y)]) for lam in lams}
        assert set(chain) <= reachable
        # breakpoints sit on a geodesic, so distances add up along the chain
        total = sum(
            (trop_dist(u, w) for u, w in zip(chain, chain[1:])), F(0)
        )
        assert total == trop_dist(x, y)
        for u, w in zip(chain, chain[1:]):
            deltas = {wi - ui for ui, wi in zip(u, w)}
            assert len(deltas) <= 2


def _segment_candidates(c):
    """The tropical vertices, then the breakpoints of the segment between
    every ordered pair of them, in first occurrence order: each segment is
    walked from both ends."""
    verts = vertex_points(tropical_vertices, c)
    candidates = list(verts)
    for a in verts:
        for b in verts:
            if a == b:
                continue
            for p in _chain(a, b):
                if p not in candidates:
                    candidates.append(p)
    return candidates


def test_pseudovertices_golden_count():
    pts = vertex_points(pseudovertices, KNOWN)
    assert len(pts) == 5
    tverts = vertex_points(tropical_vertices, KNOWN)
    assert all(v in pts for v in tverts)
    for p in pts:
        assert membership(KNOWN, p.coords)
    assert set(pts) <= set(_segment_candidates(KNOWN))


def test_pseudovertices_of_a_point_ball():
    y = canonicalize([0, 2, 5])
    assert vertex_points(pseudovertices, ball_to_polytrope(y, 0)) == [y]


def test_pseudovertices_are_segment_candidates_in_the_polytrope():
    rng = Random("polytrope:extreme")
    for _ in range(25):
        n = rng.randint(2, 4)
        c = nonpositive_matrix(rng, n, span=6)
        points = vertex_points(pseudovertices, c)
        raw = _segment_candidates(c)
        assert set(points) <= set(raw)
        assert all(membership(c, p.coords) for p in raw)


def _lp_extreme_filter(c):
    """Candidates that are no convex combination of the other candidates,
    decided by one exact simplex feasibility LP per candidate."""
    candidates = _segment_candidates(c)
    kept = []
    for p in candidates:
        others = [q for q in candidates if q != p]
        a = [[q.coords[i] for q in others] for i in range(1, p.dim)]
        a.append([F(1)] * len(others))
        b = [p.coords[i] for i in range(1, p.dim)] + [F(1)]
        if not others or feasible_point(a, b) is None:
            kept.append(p)
    return kept


def test_pseudovertices_match_the_lp_extreme_point_filter():
    rng = Random("polytrope:lp-filter")
    for n in range(2, 6):
        for span in (1, 2, 6):
            for _ in range(8):
                c = nonpositive_matrix(rng, n, span)
                assert vertex_points(pseudovertices, c) == _lp_extreme_filter(c)


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (EmptyPolytrope, Unbounded) as exc:
        return type(exc), str(exc)


def _mixed_matrix(rng, n):
    """Denominators 1 to 7, about one entry in ten -inf, odd diagonals."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            r = rng.random()
            if r < 0.1:
                row.append(NEG_INF)
            elif i == j:
                row.append(F(0) if r < 0.8 else F(-rng.randint(1, 4), rng.choice(_DENOMS)))
            else:
                row.append(F(rng.randint(-3 * n, 1), rng.choice(_DENOMS)))
        rows.append(row)
    return PolytropeMatrix.from_rows(rows)


def test_vertex_pass_matches_the_fraction_reference_on_seeded_matrices():
    rng = Random("polytrope:vertex-pass")
    bounded = 0
    for _ in range(360):
        c = _mixed_matrix(rng, rng.randint(2, 7))
        tverts = _outcome(vertex_points, tropical_vertices, c)
        assert tverts == _outcome(reference_tropical_vertices, c)
        assert _outcome(vertex_points, pseudovertices, c) == _outcome(reference_pseudovertices, c)
        bounded += isinstance(tverts, list)
    assert bounded >= 200


def test_vertex_pass_matches_the_fraction_reference_on_the_benchmark_matrices():
    """The nine ``polytrope-matrix`` benchmark inputs, from their generator:
    zero diagonal, off-diagonals in [-10n, 0] over 1, 2 or 5."""
    for n in (5, 6, 7):
        for rep in range(3):
            rng = Random(f"matrix:0:{n}:{rep}")
            c = PolytropeMatrix.from_rows(
                [
                    [
                        F(0) if i == j else F(rng.randint(-10 * n, 0), rng.choice((1, 2, 5)))
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
            )
            assert vertex_points(tropical_vertices, c) == reference_tropical_vertices(c)
            assert vertex_points(pseudovertices, c) == reference_pseudovertices(c)


def test_every_segment_breakpoint_of_the_closure_is_a_vertex():
    """``pseudovertices`` keeps every breakpoint with no vertex test: on
    2,000 closures of matrices with n 2 to 7 and small spans 0 to 4, so
    with many ties, equal columns and lower-dimensional Q(C), each point it
    returns has tight pairs that connect all coordinates, and the list is
    the reference's, which still filters by that test."""
    rng = Random("polytrope:tight-pairs")
    for t in range(2000):
        star = kleene_star(nonpositive_matrix(rng, 2 + t % 6, t // 6 % 5))
        pts = vertex_points(pseudovertices, star)
        assert all(_reference_tight_pairs_connect(star, p) for p in pts)
        assert pts == reference_pseudovertices(star)


def test_segment_breakpoints_match_the_fraction_reference():
    """On random pairs, on pairs whose thresholds repeat, on pairs with the
    threshold 0 strictly between the smallest and the largest, and on equal
    points, which have no interior breakpoint."""
    rng = Random("polytrope:segment-reference")
    for t in range(300):
        n = rng.randint(2, 7)
        x = canonicalize([F(rng.randint(-12, 12), rng.choice(_DENOMS)) for _ in range(n)])
        if t % 3 == 0:
            y = x
        elif t % 3 == 1:
            # few distinct differences, so thresholds repeat
            shifts = [F(rng.randint(-6, 6), rng.choice(_DENOMS)) for _ in range(2)]
            y = canonicalize([v + rng.choice(shifts) for v in x])
        else:
            y = canonicalize([F(rng.randint(-12, 12), rng.choice(_DENOMS)) for _ in range(n)])
        assert tuple(_chain(x, y)) == reference_segment_breakpoints(x, y)
        assert tuple(_chain(y, x)) == reference_segment_breakpoints(y, x)
    for _ in range(200):
        n = rng.randint(3, 7)
        x = canonicalize([F(rng.randint(-12, 12), rng.choice(_DENOMS)) for _ in range(n)])
        assert _breakpoints(x.nums, x.nums) == []
        # y shifts each coordinate of x by low < 0, 0 or high > 0, coordinate 1
        # by low and 2 by high, so thresholds repeat and 0 lies strictly inside
        low, high = (F(s * rng.randint(1, 6), rng.choice(_DENOMS)) for s in (-1, 1))
        shifts = [F(0), low, high, *(rng.choice((low, F(0), high)) for _ in range(n - 3))]
        y = canonicalize([v + s for v, s in zip(x, shifts)])
        assert 0 in sorted({yi - xi for xi, yi in zip(x, y)})[1:-1]
        assert tuple(_chain(x, y)) == reference_segment_breakpoints(x, y)
        assert tuple(_chain(y, x)) == reference_segment_breakpoints(y, x)


def test_pseudovertices_reject_a_closure_with_a_neg_inf_column():
    c = PolytropeMatrix.from_rows(
        [[F(0), F(-1), NEG_INF], [F(0), F(0), NEG_INF], [F(-2), F(-1), F(0)]]
    )
    star = kleene_star(c)
    assert [row[2] for row in star.entries] == [NEG_INF, NEG_INF, F(0)]
    with pytest.raises(Unbounded):
        pseudovertices(star)


@pytest.mark.xfail(
    strict=True,
    reason="segment breakpoints between tropical vertices miss some classical vertices for n >= 4",
)
def test_pseudovertices_include_a_vertex_off_the_pairwise_segments():
    c = PolytropeMatrix.from_rows(
        [[0, -2, -1, 0], [0, 0, 0, 0], [-1, -4, 0, -1], [-1, -2, -1, 0]]
    )
    # tight pairs 3-0, 3-1 and 3-2 connect all four coordinates: a vertex
    vertex = canonicalize([0, 1, 0, -1])
    assert membership(c, vertex.coords)
    assert vertex in vertex_points(pseudovertices, c)


def test_intersect_singleton_and_golden_segment():
    assert intersect([KNOWN]) is KNOWN
    b1 = ball_to_polytrope((0, 0, 0), 1)
    b2 = ball_to_polytrope((0, 1, 2), 1)
    both = intersect([b1, b2])
    seg = vertex_points(pseudovertices, both)
    assert set(seg) == {canonicalize([0, 0, 1]), canonicalize([0, 1, 1])}
    # the two-point mean polytrope is that same segment
    result = exact_frechet(SampleSet.from_rows([(0, 0, 0), (0, 1, 2)]))
    assert set(vertex_points(pseudovertices, result.fm_polytrope)) == set(seg)


def test_intersect_of_far_balls_is_empty():
    b1 = ball_to_polytrope((0, 0, 0), 1)
    b2 = ball_to_polytrope((0, 0, 10), 1)
    with pytest.raises(EmptyPolytrope):
        kleene_star(intersect([b1, b2]))


def test_intersect_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        intersect([ball_to_polytrope((0, 0), 1), ball_to_polytrope((0, 0, 0), 1)])
    with pytest.raises(ValueError):
        intersect([])


def test_intersect_membership_is_conjunction():
    rng = Random("polytrope:intersect")
    for _ in range(40):
        n = rng.randint(2, 4)
        mats = [nonpositive_matrix(rng, n) for _ in range(rng.randint(2, 4))]
        both = intersect(mats)
        x = rand_vector(rng, n, span=6)
        assert membership(both, x) == all(membership(m, x) for m in mats)
