"""Rational linear algebra, LP feasibility and the active-set QP solver."""

from fractions import Fraction
from math import lcm
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tropmean.frechet as frechet_mod
import tropmean.qp as qp_mod
from tropmean import SampleSet, canonicalize
from tropmean.errors import InternalError
from tropmean.linalg import integer_solve
from tropmean.qp import QPError, minimize_qp
from support import (
    dense_objective,
    densify,
    dot,
    feasible_point,
    fraction_program,
    fraction_result,
    integer_program,
    mat_vec,
    reference_qp,
    rank,
    rref_over_fractions,
    solve_over_fractions,
)

F = Fraction


def _rand_matrix(rng, rows, cols, span=6):
    return [
        [F(rng.randint(-span, span), rng.choice((1, 2, 3))) for _ in range(cols)]
        for _ in range(rows)
    ]


_entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def _matrices(draw):
    """Rational matrices, wide or tall, with zero rows, duplicate rows and
    rows that combine earlier ones, so rank deficiency is common."""
    cols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "copy", "combination")))
        if kind == "zero" or (kind != "fresh" and not rows):
            rows.append([F(0)] * cols if kind == "zero" else draw(_row(cols)))
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(_entries), draw(_entries)
            rows.append([x * u + y * v for u, v in zip(a, b)])
        else:
            rows.append(draw(_row(cols)))
    return rows


def _row(cols):
    return st.lists(_entries, min_size=cols, max_size=cols)


def _integer_rows(a, b):
    """[A | b] times the lcm of all its denominators, so a symmetric A stays
    symmetric: the form the kernel takes."""
    den = lcm(*(v.denominator for row in a for v in row), *(v.denominator for v in b))
    return [[v.numerator * (den // v.denominator) for v in (*row, rhs)] for row, rhs in zip(a, b)]


def _gram(a):
    """A^T A for the rows of A, symmetric positive semidefinite, as singular
    as A is."""
    nvars = len(a[0]) if a else 0
    return [[sum(row[i] * row[j] for row in a) for j in range(nvars)] for i in range(nvars)]


@st.composite
def _normal_systems(draw):
    """(A^T A, r) for a drawn A, with r = A^T b for a drawn b, in the range,
    or r drawn freely, often outside it."""
    a = draw(_matrices())
    gram = _gram(a)
    if draw(st.booleans()):
        b = draw(st.lists(_entries, min_size=len(a), max_size=len(a)))
        return gram, mat_vec([list(col) for col in zip(*a)], b)
    return gram, draw(st.lists(_entries, min_size=len(gram), max_size=len(gram)))


@settings(max_examples=300, deadline=None)
@given(_normal_systems())
@example(([], []))
@example(([[F(1), F(2)], [F(2), F(4)]], [F(1), F(3)]))
@example(([[F(0), F(0)], [F(0), F(5, 4)]], [F(0), F(-1, 3)]))
@example(([[F(1, 4), F(0), F(1, 2)], [F(0), F(0), F(0)], [F(1, 2), F(0), F(1)]], [F(1), F(0), F(2)]))
def test_integer_solve_matches_fraction_gauss_jordan(system):
    """A^T A x = r, rank-deficient or inconsistent as it often is, is solved
    as rational Gauss-Jordan solves it: None when the rhs column holds a
    pivot, else the particular solution with every free variable at zero,
    over the least common denominator."""
    a, b = system
    expected = solve_over_fractions(a, b)
    solved = integer_solve(_integer_rows(a, b))
    if expected is None:
        assert solved is None
        return
    den, nums = solved
    x = [F(v, den) for v in nums]
    assert x == expected[0]
    assert den == lcm(*(v.denominator for v in x))
    assert mat_vec(a, x) == b


@settings(max_examples=300, deadline=None)
@given(_matrices(), st.data())
def test_integer_solve_finds_a_planted_solution(rows, data):
    """A^T A x = A^T A x0 for a planted x0 is solved exactly, free variables
    at zero; adding a nullspace vector of A^T A to the rhs moves it off the
    range, which is that nullspace's orthogonal complement, and makes it None."""
    a = _gram(rows)
    nvars = len(a)
    x0 = [data.draw(_entries) for _ in range(nvars)]
    b = mat_vec(a, x0)
    _, pivots = rref_over_fractions(a)
    den, nums = integer_solve(_integer_rows(a, b))
    x = [F(v, den) for v in nums]
    assert mat_vec(a, x) == b
    assert all(x[c] == 0 for c in range(nvars) if c not in pivots)
    if len(pivots) < nvars:
        _, null = solve_over_fractions(a, [F(0)] * nvars)
        b_off = [u + v for u, v in zip(b, null[0])]
        assert integer_solve(_integer_rows(a, b_off)) is None


@pytest.mark.parametrize(
    "rows",
    [
        [[-1, 0]],
        [[0, 1, 0], [1, 0, 0]],
        [[1, 2, 0], [2, 1, 0]],
        [[0, 1, 1], [0, 1, 1]],
        [[0, 0, 0], [1, 1, 1]],
        [[-1, -2, -3, 0], [-2, -4, -6, 0], [-3, -6, -10, 1]],
        [[2, 1, 1, 0], [1, 0, 1, 0], [1, 1, 2, 0]],
    ],
    ids=[
        "negative",
        "zero-pivot-indefinite",
        "indefinite",
        "zero-pivot-row",
        "zero-pivot-column",
        "negative-gram",
        "late-negative",
    ],
)
def test_integer_solve_refuses_a_system_that_is_not_psd(rows):
    """A negative pivot, or a zero one with a nonzero entry in its row or
    column, is outside the contract and raises instead of being solved."""
    with pytest.raises(InternalError):
        integer_solve(rows)


def test_dot_and_mat_vec():
    assert dot([F(1), F(2)], [F(3), F(4)]) == F(11)
    assert mat_vec([[F(1), F(0)], [F(5), F(2)]], [F(2), F(3)]) == [F(2), F(16)]


def test_feasible_point_finds_a_nonnegative_solution():
    # x1 + x2 = 1, x1 - x2 = 0 has the unique solution (1/2, 1/2)
    a = [[F(1), F(1)], [F(1), F(-1)]]
    x = feasible_point(a, [F(1), F(0)])
    assert x == [F(1, 2), F(1, 2)]


def test_feasible_point_detects_infeasibility():
    # x1 = -1 cannot hold with x1 >= 0
    assert feasible_point([[F(1)]], [F(-1)]) is None
    # x1 + x2 = -2 with x >= 0
    assert feasible_point([[F(1), F(1)]], [F(-2)]) is None


def test_feasible_point_on_random_feasible_systems():
    rng = Random("simplex:feasible")
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, 6)
        a = _rand_matrix(rng, rows, cols)
        x0 = [F(rng.randint(0, 5), rng.choice((1, 2))) for _ in range(cols)]
        b = mat_vec(a, x0)
        x = feasible_point(a, b)
        assert x is not None
        assert all(v >= 0 for v in x)
        assert mat_vec(a, x) == b


def _solve(squares, edges, d, z0):
    """``minimize_qp`` on a rational program, through ``integer_program``,
    its result read back as the rational program's."""
    program, e = integer_program(squares, edges, d, z0)
    return fraction_result(minimize_qp(*program), e)


def test_qp_takes_integers_and_returns_them_over_one_denominator():
    # The program of test_qp_activates_a_blocking_constraint: the optimizer
    # (3/2, 3/2) comes back as (3, 3) over 2, the ground's 0 with it, and the
    # multiplier 1 as 2 over the same 2.
    result = minimize_qp([(1, 0, 1), (2, 0, 2)], [(1, 2)], [0], [0, 2, 0])
    assert result == (F(1, 2), (2, [0, 3, 3]), [0], [2])


def test_qp_rejects_a_start_off_zero_at_the_ground():
    # The start (1, 3, 1) is (0, 2, 0) shifted by 1, feasible for the row
    # z1 - z2 >= 0 but not held at zero on node 0.
    with pytest.raises(QPError):
        minimize_qp([(1, 0, 1), (2, 0, 2)], [(1, 2)], [0], [1, 3, 1])


def _qp_value(squares, z):
    return sum(((z[a] - z[b] - c) ** 2 for a, b, c in squares), F(0))


def _gradient(squares, z):
    """The gradient of the sum at z, over the nodes off the ground."""
    h, g, _ = dense_objective(squares, len(z))
    return [hz + ga for hz, ga in zip(mat_vec(h, z[1:]), g)]


def test_qp_unconstrained_minimum():
    squares = [(1, 0, F(1)), (2, 0, F(2))]
    value, z, active, _ = _solve(squares, [], [], [F(0), F(0), F(0)])
    assert z == [F(0), F(1), F(2)]
    assert value == F(0)
    assert active == []


def test_qp_activates_a_blocking_constraint():
    # minimize (z1-1)^2 + (z2-2)^2 over z1 - z2 >= 0 from (2, 0): the step
    # towards (1, 2) is blocked at (4/3, 4/3), and the optimum is (3/2, 3/2).
    squares = [(1, 0, F(1)), (2, 0, F(2))]
    value, z, active, lam = _solve(squares, [(1, 2)], [F(0)], [F(0), F(2), F(0)])
    assert z == [F(0), F(3, 2), F(3, 2)]
    assert active == [0]
    # the gradient (1, -1) = lam (e_1 - e_2)
    assert _gradient(squares, z) == [F(1), F(-1)]
    assert lam == [F(1)]
    # the value carries the squares' constants
    assert value == _qp_value(squares, z)
    assert value == F(1, 2)


def test_qp_leaves_an_inactive_constraint_alone():
    value, z, active, _ = _solve([(1, 0, F(3))], [(1, 0)], [F(0)], [F(0), F(5)])
    assert z == [F(0), F(3)]
    assert value == F(0)
    assert active == []


def test_qp_rejects_infeasible_start():
    with pytest.raises(QPError):
        _solve([(1, 0, F(0))], [(1, 0)], [F(1)], [F(0), F(0)])


def test_qp_semidefinite_hessian_with_equality_like_rows():
    # no square on z2, a flat direction; ground edges both ways round pin
    # z2 between 1 and 1
    edges = [(2, 0), (0, 2)]
    d = [F(1), F(-1)]
    value, z, active, _ = _solve([(1, 0, F(0))], edges, d, [F(0), F(4), F(1)])
    assert z[1] == F(0)
    assert z[2] == F(1)
    assert value == F(0)


def test_qp_random_boxes_agree_with_coordinate_clamping():
    """Separable QPs over boxes have a closed-form answer to compare with:
    weight diag[a] on (z_a - target[a])^2 is that many copies of the square."""
    rng = Random("qp:boxes")
    for _ in range(40):
        nv = rng.randint(1, 4)
        diag = [rng.randint(1, 5) for _ in range(nv)]
        target = [F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(nv)]
        lo = [F(rng.randint(-4, 0)) for _ in range(nv)]
        hi = [F(rng.randint(1, 5)) for _ in range(nv)]
        squares = []
        edges = []
        d = []
        for a in range(nv):
            squares += [(a + 1, 0, target[a])] * diag[a]
            edges.extend([(a + 1, 0), (0, a + 1)])
            d.extend([lo[a], -hi[a]])
        z0 = [F(0), *(min(max(F(0), lo[a]), hi[a]) for a in range(nv))]
        value, z, active, lam = _solve(squares, edges, d, z0)
        clamped = [F(0), *(min(max(target[a], lo[a]), hi[a]) for a in range(nv))]
        assert z == clamped
        assert value == _qp_value(squares, clamped)
        # KKT: nonnegative multipliers with C_A^T lam the gradient
        assert len(lam) == len(active)
        assert all(v >= 0 for v in lam)
        rows = densify(edges, nv + 1)
        combined = [sum((v * rows[i][t] for i, v in zip(active, lam)), F(0)) for t in range(nv)]
        assert combined == _gradient(squares, z)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_qp_first_row_blocks_on_a_tie(order):
    # z1 <= 1 and z1 - z2 <= 1 both block the first step, from the origin
    # towards (2, 0), at the same length; the lower index enters the working
    # set, and the optimum is (1, 0) either way.
    squares = [(1, 0, F(2)), (2, 0, F(0))]
    pair = [((0, 1), F(-1)), ((2, 1), F(-1))]
    edges = [pair[a][0] for a in order]
    d = [pair[a][1] for a in order]
    z0 = [F(0), F(0), F(0)]
    value, z, active, lam = _solve(squares, edges, d, z0)
    assert z == [F(0), F(1), F(0)]
    assert value == F(1)
    assert 0 in active
    # C_A^T lam = the gradient (-2, 0) puts the whole multiplier on z1 <= 1.
    assert dict(zip(active, lam)).get(order.index(0)) == 2
    assert sum(lam) == 2
    assert (value, z, active, lam) == _reference((squares, edges, d, z0))[0]


def _program(squares, edges, d, z0):
    as_fractions = lambda xs: [F(v) for v in xs]
    return [(a, b, F(c)) for a, b, c in squares], edges, as_fractions(d), as_fractions(z0)


# Hand-made rational programs, each built to exercise one feature of the
# loop; ``_solve`` puts them on integers for ``minimize_qp``.
QP_CASES = {
    # min (u - l)^2 over (x, u, l) with u >= x, u >= 3/2, l <= x and l <= 0:
    # no square touches x, a zero block of H, as in frechet's epigraph program.
    "zero-block": _program(
        [(2, 3, 0)],
        [(2, 1), (2, 0), (1, 3), (0, 3)],
        [0, F(3, 2), 0, 0],
        [0, 3, 5, -1],
    ),
    # Right-hand sides with denominators 2 to 6.
    "fractional-rhs": _program(
        [(1, 0, 1), (2, 0, 2), (3, 0, 0)],
        [(0, 1), (3, 2), (1, 3), (2, 0), (0, 2)],
        [F(-1, 2), F(-5, 6), F(-7, 4), F(-3, 5), F(-4, 3)],
        [0, 0, 0, 0],
    ),
    # One edge twice says z1 <= 1, and both copies block the first step.
    "repeated-tie": _program(
        [(1, 0, 2), (2, 0, 0)], [(0, 1), (0, 1)], [-1, -1], [0, 0, 0]
    ),
    # z1 <= 1 is tight at the start, but its multiplier there is negative.
    "negative-multiplier": _program(
        [(1, 0, 0), (2, 0, 0)], [(0, 1)], [-1], [0, 1, 0]
    ),
}


def test_qp_cases_exercise_their_feature():
    squares, _, _, _ = QP_CASES["zero-block"]
    assert all(1 not in (a, b) for a, b, _ in squares)
    _, _, d, _ = QP_CASES["fractional-rhs"]
    assert {v.denominator for v in d} == {2, 3, 4, 5, 6}
    assert _reference(QP_CASES["repeated-tie"])[1]["ties"] >= 1
    assert _reference(QP_CASES["negative-multiplier"])[1]["drops"] >= 1


def _reference(program):
    """``reference_qp`` on a program, its z given back the ground's 0."""
    (value, z, active, lam), stats = reference_qp(*fraction_program(*program))
    return (value, [F(0), *z], active, lam), stats


_small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _qp_programs(draw):
    """Sums of one to four squares (z_a - z_b - c)^2, each on two variables
    or a variable and the ground, node 0, either way round, and never on
    the leading ``zero`` variables (a zero block of H); ends may repeat.
    Edges join two variables or a variable and the ground, either way
    round, and are tight at z0 or not; or they repeat an earlier edge and
    its rhs, and tie with it in the ratio test."""
    nvars = draw(st.integers(1, 4))
    zero = draw(st.integers(0, nvars - 1))
    square_node = st.sampled_from([0, *range(zero + 1, nvars + 1)])
    squares = [
        (*draw(st.tuples(square_node, square_node).filter(lambda e: e[0] != e[1])), draw(_small))
        for _ in range(draw(st.integers(1, 4)))
    ]
    z0 = [F(0), *(draw(_small) for _ in range(nvars))]
    at = z0.__getitem__
    node = st.integers(0, nvars)
    edges, d = [], []
    for _ in range(draw(st.integers(0, 6))):
        if edges and draw(st.booleans()):
            k = draw(st.integers(0, len(edges) - 1))
            edges.append(edges[k])
            d.append(d[k])
        else:
            a, b = draw(st.tuples(node, node).filter(lambda e: e[0] != e[1]))
            slack = draw(st.sampled_from((F(0), F(0), F(1, 2), F(5, 6), F(3))))
            edges.append((a, b))
            d.append(at(a) - at(b) - slack)
    return squares, edges, d, z0


@settings(max_examples=250, deadline=None)
@given(_qp_programs())
@example(QP_CASES["zero-block"])
@example(QP_CASES["fractional-rhs"])
@example(QP_CASES["repeated-tie"])
@example(QP_CASES["negative-multiplier"])
def test_qp_matches_the_fraction_active_set_loop(program):
    """The integer kernel returns what the rational loop returns, after the
    same number of iterations (one nullspace per iteration)."""
    _assert_matches_reference(program)


def _assert_matches_reference(program):
    calls = []
    basis = qp_mod.nullspace

    def counted(*args):
        calls.append(1)
        return basis(*args)

    try:
        expected, stats = _reference(program)
    except QPError:
        with pytest.raises(QPError):
            _solve(*program)
        return
    with mock.patch.object(qp_mod, "nullspace", counted):
        result = _solve(*program)
    assert result == expected
    assert len(calls) == stats["iterations"]


class _Recorded(Exception):
    pass


def _epigraph_program(sample, start):
    """The integer program ``_epigraph_qp`` hands ``minimize_qp``."""
    programs = []

    def record(*args):
        programs.append(args)
        raise _Recorded

    with mock.patch.object(frechet_mod, "minimize_qp", record):
        with pytest.raises(_Recorded):
            frechet_mod._epigraph_qp(sample, start)
    return programs[0]


@st.composite
def _split_programs(draw):
    """The split epigraph program of a random sample, n <= 5 and m <= 6,
    started at a random point; coordinates repeat often, so ties abound."""
    n = draw(st.integers(2, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    rows = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, 6)))]
    start = canonicalize([draw(entry) for _ in range(n)])
    return n, _epigraph_program(SampleSet.from_rows(rows), start)


@settings(max_examples=100, deadline=None)
@given(_split_programs())
def test_split_programs_match_the_fraction_active_set_loop(case):
    """On the mean's own programs the kernel returns what the rational loop
    returns, after as many iterations."""
    n, program = case
    _, edges, d, z0 = program
    # The start lifts u_j and l_j to the max and min: each has a tight row.
    rows = densify(edges, len(z0))
    slacks = [dot(row, z0[1:]) - rhs for row, rhs in zip(rows, d)]
    assert all(min(slacks[r : r + n]) == 0 for r in range(0, len(rows), n))
    _assert_matches_reference(program)


@st.composite
def _tie_heavy_programs(draw):
    """The epigraph program of a sample with integer coordinates in -1..1,
    n 3-5 and m 2-6, started at its average: ties among the rows and
    multipliers, and steps of length zero, are common."""
    n = draw(st.integers(3, 5))
    m = draw(st.integers(2, 6))
    rows = [[F(draw(st.integers(-1, 1))) for _ in range(n)] for _ in range(m)]
    sample = SampleSet.from_rows(rows)
    return _epigraph_program(sample, frechet_mod._average(sample))


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_programs())
def test_tie_heavy_programs_match_the_fraction_active_set_loop(program):
    """On tie-heavy mean programs, where the drop rule decides the path, the
    kernel returns what the rational loop returns, after as many
    iterations."""
    _assert_matches_reference(program)


# Eight coordinates in -1..1 for eleven samples: started at the average, the
# epigraph program meets DEGENERATE_STEPS steps of length zero in a row
# before a drop, and the drop then takes the lowest index.
DEGENERATE_SAMPLE = [
    [-1, -1, 0, 1, -1, 0, -1, 1],
    [1, 0, -1, -1, 1, 1, 1, -1],
    [1, -1, -1, -1, -1, -1, 1, 1],
    [0, 0, 0, 0, 0, 1, 1, 0],
    [1, -1, 0, 1, 1, -1, 0, 1],
    [-1, 0, -1, -1, -1, 1, 0, 1],
    [-1, 1, 1, 0, 1, 1, -1, -1],
    [-1, 1, 1, 0, 1, -1, 1, 0],
    [1, 0, 0, -1, 1, 0, 1, 0],
    [0, -1, 1, 0, 0, 0, -1, -1],
    [0, -1, 1, 1, 0, 0, 1, -1],
]


def test_degenerate_runs_fall_back_to_the_lowest_index_drop():
    sample = SampleSet.from_rows([[F(v) for v in row] for row in DEGENERATE_SAMPLE])
    program = _epigraph_program(sample, frechet_mod._average(sample))
    _, stats = _reference(program)
    assert stats["fallbacks"] >= 1
    # Without the fallback the loop takes another path.
    _, dantzig = reference_qp(*fraction_program(*program), degenerate_steps=10**9)
    assert dantzig["iterations"] != stats["iterations"]
    _assert_matches_reference(program)


@st.composite
def _edge_sets(draw, forest=True):
    """Edges on the nodes 0..nvars, node 0 being the ground, each either
    way round.

    As a forest, each variable, in a random order, stays isolated or joins
    the ground or one variable drawn before it; otherwise extra edges may
    close cycles or repeat an edge.  The edges come shuffled.
    """
    nvars = draw(st.integers(1, 7))
    order = draw(st.permutations(range(1, nvars + 1)))
    ends = []
    for pos, t in enumerate(order):
        other = draw(st.sampled_from([None, 0, *order[:pos]]))
        if other is not None:
            ends.append((t, other))
    if not forest:
        node = st.integers(0, nvars)
        for _ in range(draw(st.integers(0, 4))):
            a, b = draw(node), draw(node)
            if a != b:
                ends.append((a, b))
    ends = [e if draw(st.booleans()) else e[::-1] for e in ends]
    return draw(st.permutations(ends)), nvars


def _dense_ends(ends, nvars):
    return densify(ends, nvars + 1) or [[F(0)] * nvars]


def _indicators(groups, nvars):
    return [[int(t in group) for t in range(1, nvars + 1)] for group in groups]


def _forest(ends, nvars):
    """The forest of ``ends`` joined in order, and the rows it kept."""
    work = qp_mod.Forest(ends, nvars + 1)
    return work, [r for r in range(len(ends)) if work.join(r)]


def _flow(ends, u, nvars):
    """C^T u over every node, the rows' flow, the ground's entry included."""
    grad = [0] * (nvars + 1)
    for r, v in u.items():
        a, b = ends[r]
        grad[a] += v
        grad[b] -= v
    return grad


@settings(max_examples=300, deadline=None)
@given(_edge_sets())
@example(([], 3))
@example(([(1, 3), (0, 2)], 4))
def test_forest_nullspace_is_the_rref_basis(case):
    ends, nvars = case
    rows = _dense_ends(ends, nvars)
    _, expected = solve_over_fractions(rows, [F(0)] * len(rows))
    groups = qp_mod.nullspace(_forest(ends, nvars)[0])
    assert _indicators(groups, nvars) == expected


@settings(max_examples=300, deadline=None)
@given(_edge_sets(forest=False))
def test_union_find_keeps_the_rows_rref_keeps(case):
    ends, nvars = case
    _, kept = _forest(ends, nvars)
    rows = densify(ends, nvars + 1)
    greedy = []
    for r in range(len(rows)):
        if rank([rows[i] for i in greedy + [r]]) == len(greedy) + 1:
            greedy.append(r)
    assert kept == greedy


@settings(max_examples=300, deadline=None)
@given(_edge_sets(), st.data())
def test_leaf_peeling_solves_the_multiplier_system(case, data):
    ends, nvars = case
    work, _ = _forest(ends, nvars)
    u = {r: data.draw(st.integers(-9, 9)) for r in range(len(ends))}
    grad = _flow(ends, u, nvars)
    assert work.multipliers(grad) == u
    # The ground takes no equation, so its entry changes nothing.
    grad[0] += 1
    assert work.multipliers(grad) == u
    # A residual no row can absorb is an inconsistency.
    free = [t for t in range(1, nvars + 1) if all(t not in e for e in ends)]
    if free:
        grad[free[0]] += 1
        with pytest.raises(QPError):
            work.multipliers(grad)


@settings(max_examples=300, deadline=None)
@given(_edge_sets(forest=False), st.data())
def test_joins_and_splits_keep_the_rebuilt_basis(case, data):
    """After every join and split, the maintained forest has the nullspace
    basis rebuilt from its rows, same groups in the same order, and its
    rooted pass solves the multiplier system of its rows."""
    ends, nvars = case
    work = qp_mod.Forest(ends, nvars + 1)
    inside = []
    for _ in range(data.draw(st.integers(0, 12))):
        if inside and data.draw(st.booleans()):
            r = data.draw(st.sampled_from(inside))
            work.split(r)
            inside.remove(r)
        elif ends:
            r = data.draw(st.integers(0, len(ends) - 1))
            rows = densify([ends[i] for i in inside + [r]], nvars + 1)
            independent = rank(rows) == len(inside) + 1
            assert work.join(r) == independent
            if independent:
                inside.append(r)
        rows = _dense_ends([ends[i] for i in inside], nvars)
        _, expected = solve_over_fractions(rows, [F(0)] * len(rows))
        groups = qp_mod.nullspace(work)
        assert _indicators(groups, nvars) == expected
        assert all(group == sorted(group) for group in groups)
        u = {r: data.draw(st.integers(-9, 9)) for r in inside}
        assert work.multipliers(_flow(ends, u, nvars)) == u
