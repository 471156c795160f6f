"""Rational linear algebra, LP feasibility and the active-set QP solver."""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tropmean.frechet as frechet_mod
import tropmean.qp as qp_mod
from tropmean import SampleSet, canonicalize, verify_certificate
from tropmean.cli import _random_sample
from tropmean.errors import InternalError
from tropmean.qp import integer_solve, minimize_qp
import support
from support import (
    dense_objective,
    densify,
    dot,
    feasible_point,
    fraction_program,
    fraction_result,
    integer_program,
    mat_vec,
    rand_fraction,
    rank,
    reference_average,
    reference_qp,
    reference_region_program,
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
    as rational Gauss-Jordan solves it: InternalError when the rhs column
    holds a pivot, else the particular solution with every free variable at
    zero, over the least common denominator, so in lowest terms, which the
    QP's step relies on."""
    a, b = system
    expected = solve_over_fractions(a, b)
    if expected is None:
        with pytest.raises(InternalError):
            integer_solve(_integer_rows(a, b))
        return
    den, nums = integer_solve(_integer_rows(a, b))
    x = [F(v, den) for v in nums]
    assert x == expected[0]
    assert den == lcm(*(v.denominator for v in x))
    assert gcd(den, *nums) == 1
    assert mat_vec(a, x) == b


@settings(max_examples=300, deadline=None)
@given(_matrices(), st.data())
def test_integer_solve_finds_a_planted_solution(rows, data):
    """A^T A x = A^T A x0 for a planted x0 is solved exactly, free variables
    at zero; adding a nullspace vector of A^T A to the rhs moves it off the
    range, which is that nullspace's orthogonal complement, and makes it
    raise InternalError."""
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
        with pytest.raises(InternalError):
            integer_solve(_integer_rows(a, b_off))


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


def _solve(sample, start):
    """``minimize_qp`` on the epigraph program of ``sample`` at ``start``,
    through ``integer_program``, its result read back as the rational
    program's (value, x, alpha, beta)."""
    program, e = integer_program(sample, start)
    return fraction_result(minimize_qp(*program), e)


def _program(rows, start=None):
    """The integer epigraph program of the sample ``rows`` at ``start``, or
    at its average when None."""
    sample = SampleSet.from_rows([[F(v) for v in row] for row in rows])
    at = reference_average(sample) if start is None else canonicalize([F(v) for v in start])
    return integer_program(sample, at)[0]


def _reference(program):
    """``reference_qp`` on an integer program (n, x0, d) of ``minimize_qp``:
    the result in the kernel's shape (value, x, alpha, beta), and the stats."""
    n, _, d = program
    (value, z, active, lam), stats = reference_qp(*fraction_program(*program))
    flat = [F(0)] * len(d)
    for r, v in zip(active, lam):
        flat[r] = v
    starts = range(0, len(d), 2 * n)
    alpha = [flat[r : r + n] for r in starts]
    beta = [flat[r + n : r + 2 * n] for r in starts]
    return (value, [F(0), *z[: n - 1]], alpha, beta), stats


def _assert_matches_reference(program):
    """The kernel returns what the rational loop returns, after as many
    iterations (one nullspace per iteration), with the same rows blocking
    in the same order; returns the loop's stats."""
    expected, stats = _reference(program)
    calls, blocked = [], []
    basis, join = qp_mod.nullspace, qp_mod.Forest.join

    def counted(*args):
        calls.append(1)
        return basis(*args)

    def joined(work, r):
        # Once the loop has started, every join is a blocking row's.
        if calls:
            blocked.append(r)
        return join(work, r)

    with mock.patch.object(qp_mod, "nullspace", counted):
        with mock.patch.object(qp_mod.Forest, "join", joined):
            result = fraction_result(minimize_qp(*program), 1)
    assert result == expected
    assert len(calls) == stats["iterations"]
    assert blocked == stats["blocked"]
    return stats


def test_qp_takes_integers_and_returns_them_over_one_denominator():
    # The points (0, 0) and (0, 1) from (0, 0): the mean (0, 1/2) comes back
    # as (0, 1) over 2, its value 1/2 as 2 over 2^2, and each sample's
    # multipliers, 2 t_j = 1 on one row of each side, as 2 over the same 2.
    result = minimize_qp(2, [0, 0], [0, 0, 0, 0, 0, -1, 0, 1])
    assert result == (2, (2, [0, 1]), [[0, 2], [2, 0]], [[2, 0], [0, 2]])
    value, (zd, xn), alpha, beta = result
    assert all(type(v) is int for v in (value, zd, *xn, *chain(*alpha, *beta)))


def test_qp_rejects_a_start_off_zero_at_the_ground():
    # The start (1, 1) is (0, 0) shifted by 1, not held at zero on x_1.
    with pytest.raises(InternalError):
        minimize_qp(2, [1, 1], [0, 0, 0, 0, 0, -1, 0, 1])


def test_qp_unconstrained_minimum():
    # The point (0, 1) from (0, 0): the first step lands on the point, where
    # the row u_1 - x_2 >= -1 reaches its bound without blocking, and the
    # value is zero with no multiplier.
    program = _program([[0, 1]], [0, 0])
    stats = _assert_matches_reference(program)
    assert stats["blocked"] == []
    assert fraction_result(minimize_qp(*program), 1) == (0, [0, 1], [[0, 0]], [[0, 0]])


def test_qp_activates_a_blocking_constraint():
    # From the average, the first step is blocked by row 2, u_1 - x_3 >= 2,
    # which joins the working set and keeps a positive multiplier.
    program = _program([[0, -2, -2], [0, 4, 4], [0, 1, 0]])
    stats = _assert_matches_reference(program)
    assert stats["blocked"] == [2]
    _, _, alpha, _ = minimize_qp(*program)
    assert alpha[0][2] > 0


def test_qp_leaves_an_inactive_constraint_alone():
    # Started at the mean (0, 1) of (0, 0) and (0, 2), the loop is
    # stationary at once, and the slack rows, such as u_1 - x_1 >= 0, carry
    # no multiplier.
    program = _program([[0, 0], [0, 2]], [0, 1])
    stats = _assert_matches_reference(program)
    assert stats["iterations"] == 1
    assert minimize_qp(*program) == (2, (1, [0, 1]), [[0, 2], [2, 0]], [[2, 0], [0, 2]])


def test_qp_rejects_infeasible_start():
    # At (0, 1), x - (0, 0) is (0, 1): pinning sample 1 to (x_2, x_1) holds,
    # pinning it to (x_1, x_2) asks the slack row u_1 - x_1 >= 0 to be tight.
    program = _program([[0, 0], [0, 2]], [0, 1])
    assert minimize_qp(*program, [(1, 0), (0, 1)])[0] == 2
    with pytest.raises(InternalError):
        minimize_qp(*program, [(0, 1), (0, 1)])


def test_qp_iteration_cap_raises_and_the_mean_falls_back_to_the_average(monkeypatch):
    # The three-point sample needs more than one iteration from its average
    # (0, -1, -3), so a cap of one raises, and exact_frechet hands back the
    # average with no certificate.
    rows = [[-3, 0, 0], [0, -6, 0], [0, 0, -12]]
    program = _program(rows)
    monkeypatch.setattr(qp_mod, "MAX_ITER", 1)
    with pytest.raises(InternalError, match="iteration cap"):
        minimize_qp(*program)
    result = frechet_mod.exact_frechet(SampleSet.from_rows(rows))
    assert result.mean == canonicalize([0, -1, -3])
    assert not result.exact
    assert result.reason == "active-set iteration cap exceeded"


def test_qp_semidefinite_hessian_with_equality_like_rows():
    # No square reaches x, so H has a zero block.  Pinned to the pairs
    # (x_1, x_2) and (x_1, x_3), the program is x_2^2 + x_3^2 over their
    # region, x_3 <= -1 <= x_2 - x_3 - 1 <= 0: its minimum 1 lies above the
    # free 1/2, and the pinned row u_1 - x_1 >= 0 ends with a negative
    # multiplier, which a row held as an inequality would have dropped.
    rows, pins = [[0, 0, -1], [0, 0, 0]], [(0, 1), (0, 2)]
    program = _program(rows, [0, -1, -2])
    assert fraction_result(minimize_qp(*program), 1)[0] == F(1, 2)
    result = minimize_qp(*program, pins)
    assert result == (1, (1, [0, 0, -1]), [[-2, 0, 2], [2, 0, 0]], [[0, 0, 0], [0, 0, 2]])
    squares, edges, d = reference_region_program(rows, pins)
    (value, z, _, _), _ = reference_qp(*dense_objective(squares, 3), densify(edges, 3), d, [-1, -2])
    assert (value, z) == (1, [0, -1])


def test_qp_two_coordinate_samples_agree_with_the_average():
    """With n = 2 the distance from x to a canonical p_j is |x_2 - p_j2|, so
    the mean is the average of the p_j2.  The multipliers are nonnegative
    and stationary: sum alpha_j = sum beta_j = 2 t_j, t_j = |x_2 - p_j2|,
    and sum_j (alpha_j - beta_j) is zero off the ground."""
    rng = Random("qp:two")
    for _ in range(40):
        cs = [rand_fraction(rng, 6) for _ in range(rng.randint(1, 6))]
        sample = SampleSet.from_rows([[F(0), c] for c in cs])
        value, x, alpha, beta = _solve(sample, canonicalize([0, rand_fraction(rng, 6)]))
        mean = sum(cs) / len(cs)
        assert x == [0, mean]
        assert value == sum((mean - c) ** 2 for c in cs)
        for a, b, c in zip(alpha, beta, cs):
            assert min(a + b) >= 0
            assert sum(a) == sum(b) == 2 * abs(mean - c)
        assert sum(a[1] - b[1] for a, b in zip(alpha, beta)) == 0


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
def test_qp_first_row_blocks_on_a_tie(order):
    # In either order of the three points, started at their average, two
    # rows block a step at the same length; the lower index enters the
    # working set, row 11 (x_3 - l_2 >= 0) in one order and row 0
    # (u_1 - x_1 >= 0) in the other.
    points = [[0, 0, 1], [0, -2, 0], [0, 1, 0]]
    stats = _assert_matches_reference(_program([points[a] for a in order]))
    assert stats["ties"] >= 1
    assert stats["blocked"] == ([11] if order[0] == 0 else [0])


# Samples (rows, start), each built to exercise one feature of the loop;
# the start is the average when None.
QP_CASES = {
    # Coordinates over 2 to 6, and so right-hand sides over them too.
    "fractional-rhs": ([[0, F(1, 2), F(-5, 6)], [0, F(7, 4), F(3, 5)], [0, F(-4, 3), 0]], None),
    # One point twice, from (0, -1): the rows of its copies tie in the ratio test.
    "repeated-tie": ([[0, 0], [0, 0], [0, 1]], [0, -1]),
    # From (0, 0, 0) a row tight at the start has a negative multiplier.
    "negative-multiplier": ([[0, 0, 0], [0, -1, 0]], [0, 0, 0]),
}


def test_qp_cases_exercise_their_feature():
    rows, _ = QP_CASES["fractional-rhs"]
    assert {F(v).denominator for row in rows for v in row} == {1, 2, 3, 4, 5, 6}
    assert _reference(_program(*QP_CASES["repeated-tie"]))[1]["ties"] >= 1
    assert _reference(_program(*QP_CASES["negative-multiplier"]))[1]["drops"] >= 1


_small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _samples(draw):
    """Samples (rows, start) of one to five points in two to four
    coordinates, points repeating often, started at the average (None) or
    at a random point."""
    n = draw(st.integers(2, 4))
    point = st.lists(_small, min_size=n, max_size=n)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        rows.append(draw(st.sampled_from(rows)) if rows and draw(st.booleans()) else draw(point))
    return rows, draw(st.one_of(st.none(), point))


@settings(max_examples=250, deadline=None)
@given(_samples())
@example(QP_CASES["fractional-rhs"])
@example(QP_CASES["repeated-tie"])
@example(QP_CASES["negative-multiplier"])
def test_qp_matches_the_fraction_active_set_loop(case):
    """The integer kernel returns what the rational loop returns, after the
    same number of iterations (one nullspace per iteration)."""
    _assert_matches_reference(_program(*case))


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
    return _epigraph_program(SampleSet.from_rows(rows), start)


@settings(max_examples=100, deadline=None)
@given(_split_programs())
def test_split_programs_match_the_fraction_active_set_loop(program):
    """On the mean's own programs the kernel returns what the rational loop
    returns, after as many iterations."""
    n, _, _ = program
    # The start lifts u_j and l_j to the max and min: each has a tight row.
    *_, rows, d, z0 = fraction_program(*program)
    slacks = [dot(row, z0) - rhs for row, rhs in zip(rows, d)]
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
# epigraph program makes a run of 16 zero-length steps at one point, and no
# working set is stationary twice there.
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


@pytest.mark.parametrize("collide", [lambda rows: 0, min], ids=["one-key", "lowest-row"])
@pytest.mark.parametrize(
    "sample",
    [
        SampleSet.from_rows(DEGENERATE_SAMPLE),
        # mean-small pool instances, ``bench``'s samples at seed 0, where
        # a point is stationary under two working sets.
        _random_sample(0, 3, 9, 8),
        _random_sample(0, 5, 10, 20),
        _random_sample(0, 6, 12, 5),
    ],
    ids=["degenerate", "pool-3-9-8", "pool-5-10-20", "pool-6-12-5"],
)
def test_colliding_working_set_keys_take_bland_drops_to_the_same_optimum(
    sample, collide, monkeypatch
):
    """Working sets given keys that collide, one key for all or one per
    lowest row, so a working set stationary at a point can count as a
    repeat of another and Bland's rule takes over there, up to the next
    step of positive length.  A key collision is safe: it only switches to
    Bland's rule early, which cannot cycle.  The kernel agrees with the
    rational loop with and without the collision, and the forced run takes
    a different path, with Bland drops, to the same optimum, whose
    certificate verifies."""
    program = _epigraph_program(sample, frechet_mod._average(sample))
    free = _assert_matches_reference(program)
    assert free["fallbacks"] == 0
    expected = minimize_qp(*program)
    for module in (qp_mod, support):
        monkeypatch.setattr(module, "frozenset", collide, raising=False)
    forced = _assert_matches_reference(program)
    assert forced["fallbacks"] >= 1
    assert forced["iterations"] != free["iterations"]
    assert minimize_qp(*program)[0] == expected[0]
    result = frechet_mod.exact_frechet(sample)
    assert result.exact
    assert verify_certificate(sample, result.certificate)


def _stall_rows():
    """90 points in 30 coordinates, entries -1..1: the second (30, 90)
    sample of a seeded draw of two samples per shape."""
    rng = Random(11)
    drawn = [
        [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]
        for n, m, span in ((20, 60, 1), (30, 60, 2), (30, 90, 1))
        for _ in range(2)
    ]
    return drawn[-1]


def test_a_tie_heavy_sample_is_certified():
    """90 tied points in 30 coordinates, on which Bland's rule, taken after a
    fixed run of zero-length steps, stalled at one point until the
    iteration cap: certified at min_sum 360 after 834 iterations, counted
    as ``nullspace`` calls."""
    with mock.patch.object(qp_mod, "nullspace", wraps=qp_mod.nullspace) as basis:
        result = frechet_mod.exact_frechet(SampleSet.from_rows(_stall_rows()))
    assert result.exact, result.reason
    assert result.min_sum == 360
    assert basis.call_count == 834


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


def _indicators(names, work, nvars):
    """The indicator vectors, off the ground, of the components named."""
    return [[int(work.label[t] == name) for t in range(1, nvars + 1)] for name in names]


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
    work = _forest(ends, nvars)[0]
    assert _indicators(qp_mod.nullspace(work), work, nvars) == expected


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
        with pytest.raises(InternalError):
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
        names = qp_mod.nullspace(work)
        assert _indicators(names, work, nvars) == expected
        # Each component is named by its smallest node.
        assert all(work.label.index(name) == name for name in names)
        u = {r: data.draw(st.integers(-9, 9)) for r in inside}
        assert work.multipliers(_flow(ends, u, nvars)) == u


def test_the_step_minimizes_the_squares_on_the_working_sets_subspace():
    """``_subspace_step`` from a seeded working set of epigraph rows at a
    point zn / zd is B y: B the rational nullspace basis of the working rows
    with the ground held, y the minimizer of the sum of the squares over
    z + span(B) that Gauss-Jordan gives, free variables at zero."""
    rng = Random("qp:step")
    for _ in range(300):
        n, m = rng.randint(2, 4), rng.randint(1, 4)
        nvars = n + 2 * m - 1
        squares = [(u, u + m) for u in range(n, n + m)]
        ends = [(u, i) for u in range(n, n + m) for i in range(n)]
        ends += [(i, u + m) for u in range(n, n + m) for i in range(n)]
        work = qp_mod.Forest(ends, nvars + 1)
        inside = [r for r in rng.sample(range(len(ends)), rng.randint(0, len(ends))) if work.join(r)]
        zd = rng.randint(1, 6)
        zn = [0] + [rng.randint(-9, 9) for _ in range(nvars)]
        sd, sn = qp_mod._subspace_step(work, squares, [zn[a] - zn[b] for a, b in squares], zd)
        rows = _dense_ends([ends[r] for r in inside], nvars)
        _, basis = solve_over_fractions(rows, [F(0)] * len(rows))
        sq = densify(squares, nvars + 1)
        z = [F(v, zd) for v in zn[1:]]
        across = [[dot(row, v) for row in sq] for v in basis]
        red = [[2 * dot(a, b) for b in across] for a in across]
        rhs = [-2 * dot([dot(row, z) for row in sq], a) for a in across]
        step = [F(0)] * nvars
        for y, v in zip(solve_over_fractions(red, rhs)[0], basis):
            step = [s + y * t for s, t in zip(step, v)]
        assert sd > 0 and sn[0] == 0
        assert [F(v, sd) for v in sn[1:]] == step


def _smallest_in_tree(rows, nodes):
    """Each node's smallest tree-mate over ``rows``: a union of roots that
    keeps the smaller one as root keeps each tree's smallest node its root."""
    up = list(range(nodes))

    def root(t):
        while up[t] != t:
            t = up[t]
        return t

    for a, b in rows:
        a, b = root(a), root(b)
        up[max(a, b)] = min(a, b)
    return [root(t) for t in range(nodes)]


@settings(max_examples=300, deadline=None)
@given(_edge_sets(forest=False), st.data())
def test_every_component_is_named_by_its_smallest_node(case, data):
    """After every join and split, each node's label is the smallest node of
    its tree, so the ground's is 0, and the forest holds nothing besides the
    rows' ends, each node's rows and the labels."""
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
            if work.join(r):
                inside.append(r)
        assert work.label == _smallest_in_tree([ends[r] for r in inside], nvars + 1)
        assert work.label[0] == 0
        assert sorted(vars(work)) == ["at", "ends", "label"]
