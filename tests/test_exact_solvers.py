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
from tropmean.linalg import dot, mat_vec, nullspace, rref, solve_affine
from tropmean.qp import QPError, minimize_qp
from support import feasible_point, reference_qp

F = Fraction


def _rand_matrix(rng, rows, cols, span=6):
    return [
        [F(rng.randint(-span, span), rng.choice((1, 2, 3))) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_rref_identifies_pivots():
    a = [[F(2), F(4)], [F(1), F(2)]]
    reduced, pivots = rref(a)
    assert pivots == [0]
    assert reduced[0] == [F(1), F(2)]
    assert all(v == 0 for v in reduced[1])


def _rref_over_fractions(rows):
    """Plain Gauss-Jordan over the rationals, the reference for rref."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        lead = m[r][c]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


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


@settings(max_examples=300, deadline=None)
@given(_matrices())
@example([])
@example([[F(1, 2), F(0), F(-3, 4)], [F(1, 3), F(0), F(-1, 2)], [F(0), F(0), F(0)]])
def test_rref_matches_fraction_gauss_jordan(rows):
    reduced, pivots = rref(rows)
    expected, expected_pivots = _rref_over_fractions(rows)
    assert pivots == expected_pivots
    assert reduced == expected
    assert all(type(v) is Fraction for row in reduced for v in row)


def test_solve_affine_unique_solution():
    a = [[F(2), F(0)], [F(0), F(3)]]
    sol = solve_affine(a, [F(4), F(9)])
    assert sol is not None
    assert sol.particular == (F(2), F(3))
    assert sol.basis == ()


def test_solve_affine_inconsistent_returns_none():
    a = [[F(1), F(1)], [F(2), F(2)]]
    assert solve_affine(a, [F(1), F(3)]) is None


def test_solve_affine_random_consistent_systems():
    rng = Random("linalg:consistent")
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = _rand_matrix(rng, rows, cols)
        x0 = [F(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(cols)]
        b = mat_vec(a, x0)
        sol = solve_affine(a, b)
        assert sol is not None
        assert mat_vec(a, list(sol.particular)) == b
        for v in sol.basis:
            assert all(val == 0 for val in mat_vec(a, list(v)))
        # the particular plus any basis combination still solves the system
        mix = list(sol.particular)
        for v in sol.basis:
            w = F(rng.randint(-3, 3))
            mix = [mi + w * vi for mi, vi in zip(mix, v)]
        assert mat_vec(a, mix) == b


def test_nullspace_dimension_and_membership():
    rng = Random("linalg:null")
    for _ in range(40):
        rows = rng.randint(0, 3)
        cols = rng.randint(1, 5)
        a = _rand_matrix(rng, rows, cols)
        basis = nullspace(a, cols)
        _, pivots = rref([row[:] for row in a])
        assert len(basis) == cols - len(pivots)
        for v in basis:
            assert all(val == 0 for val in mat_vec(a, list(v)))


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


def _qp_value(h, g, z):
    return F(1, 2) * dot(mat_vec(h, z), z) + dot(g, z)


def test_qp_unconstrained_minimum():
    h = [[F(2), F(0)], [F(0), F(2)]]
    g = [F(-2), F(-4)]
    value, z, active, _ = minimize_qp(h, g, [], [], [F(0), F(0)])
    assert z == [F(1), F(2)]
    assert value == F(-5)
    assert active == []


def test_qp_activates_a_blocking_constraint():
    # minimize (z1-1)^2 + (z2-2)^2 over z1 + z2 <= 1, i.e. -z1 - z2 >= -1
    h = [[F(2), F(0)], [F(0), F(2)]]
    g = [F(-2), F(-4)]
    rows = [[F(-1), F(-1)]]
    value, z, active, _ = minimize_qp(h, g, rows, [F(-1)], [F(0), F(0)])
    assert z == [F(0), F(1)]
    assert active == [0]
    # drop the constant terms 1 + 4 carried outside the canonical form
    assert value == _qp_value(h, g, z)
    assert value == F(-3)


def test_qp_leaves_an_inactive_constraint_alone():
    h = [[F(2)]]
    g = [F(-6)]
    value, z, active, _ = minimize_qp(h, g, [[F(1)]], [F(0)], [F(5)])
    assert z == [F(3)]
    assert active == []


def test_qp_rejects_infeasible_start():
    with pytest.raises(QPError):
        minimize_qp([[F(2)]], [F(0)], [[F(1)]], [F(1)], [F(0)])


def test_qp_semidefinite_hessian_with_equality_like_rows():
    # flat direction z2; constraints pin z2 between 1 and 1
    h = [[F(2), F(0)], [F(0), F(0)]]
    g = [F(0), F(0)]
    rows = [[F(0), F(1)], [F(0), F(-1)]]
    d = [F(1), F(-1)]
    value, z, active, _ = minimize_qp(h, g, rows, d, [F(4), F(1)])
    assert z[0] == F(0)
    assert z[1] == F(1)
    assert value == F(0)


def test_qp_random_boxes_agree_with_coordinate_clamping():
    """Separable QPs over boxes have a closed-form answer to compare with."""
    rng = Random("qp:boxes")
    for _ in range(40):
        nv = rng.randint(1, 4)
        diag = [F(rng.randint(1, 5)) for _ in range(nv)]
        target = [F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(nv)]
        lo = [F(rng.randint(-4, 0)) for _ in range(nv)]
        hi = [F(rng.randint(1, 5)) for _ in range(nv)]
        h = [[F(0)] * nv for _ in range(nv)]
        g = []
        rows = []
        d = []
        for a in range(nv):
            h[a][a] = 2 * diag[a]
            g.append(-2 * diag[a] * target[a])
            up = [F(0)] * nv
            up[a] = F(1)
            dn = [F(0)] * nv
            dn[a] = F(-1)
            rows.extend([up, dn])
            d.extend([lo[a], -hi[a]])
        z0 = [min(max(F(0), lo[a]), hi[a]) for a in range(nv)]
        value, z, active, lam = minimize_qp(h, g, rows, d, z0)
        clamped = [min(max(target[a], lo[a]), hi[a]) for a in range(nv)]
        assert z == clamped
        assert value == _qp_value(h, g, clamped)
        # KKT: nonnegative multipliers with C_A^T lam = H z + g
        assert len(lam) == len(active)
        assert all(v >= 0 for v in lam)
        grad = [hz + ga for hz, ga in zip(mat_vec(h, z), g)]
        combined = [sum((v * rows[i][t] for i, v in zip(active, lam)), F(0)) for t in range(nv)]
        assert combined == grad


def test_qp_scaled_row_keeps_the_iterates_and_scales_its_multiplier():
    # minimize (z1-1)^2 + (z2-2)^2 + z3^2 over rows with non-integer entries;
    # row 0 (z1 + z2 <= 1, written with halves) is the one active at the optimum.
    h = [[F(2), F(0), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(2)]]
    g = [F(-2), F(-4), F(0)]
    rows = [
        [F(-1, 2), F(-1, 2), F(0)],
        [F(1, 3), F(0), F(2, 5)],
        [F(0), F(-3, 4), F(1, 6)],
    ]
    d = [F(-1, 2), F(-1, 3), F(-5, 2)]
    z0 = [F(0), F(0), F(0)]
    value, z, active, lam = minimize_qp(h, g, rows, d, z0)
    assert z == [F(0), F(1), F(0)]
    assert active == [0]
    assert lam == [F(4)]
    scale = F(7, 3)
    rows_scaled = [[scale * v for v in rows[0]]] + rows[1:]
    d_scaled = [scale * d[0]] + d[1:]
    value_s, z_s, active_s, lam_s = minimize_qp(h, g, rows_scaled, d_scaled, z0)
    assert (value_s, z_s, active_s) == (value, z, active)
    assert lam_s == [lam[0] * F(3, 7)]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_qp_first_row_blocks_on_a_tie(order):
    # Two parallel rows both say z1 <= 1, so they block the first step at the
    # same length; the lower index enters the working set and the other row
    # stays out, since it is then dependent on it.
    h = [[F(2), F(0)], [F(0), F(2)]]
    g = [F(-4), F(0)]
    pair = [([F(-1), F(0)], F(-1)), ([F(-5, 3), F(0)], F(-5, 3))]
    rows = [pair[a][0] for a in order]
    d = [pair[a][1] for a in order]
    value, z, active, lam = minimize_qp(h, g, rows, d, [F(0), F(0)])
    assert z == [F(1), F(0)]
    assert value == F(-3)
    assert active == [0]
    # C_A^T lam = H z + g = (-2, 0)
    assert lam == [F(2) / -rows[0][0]]


def _program(h, g, rows, d, z0):
    matrix = lambda a: [[F(v) for v in r] for r in a]
    return matrix(h), [F(v) for v in g], matrix(rows), [F(v) for v in d], [F(v) for v in z0]


# Hand-made programs, each built to exercise one feature of the loop.
QP_CASES = {
    # min (x - 0)^2 + (x - 3/2)^2 as an epigraph program in (x, t1, t2):
    # H has a zero block for x, as in frechet's epigraph program.
    "zero-block": _program(
        [[0, 0, 0], [0, 2, 0], [0, 0, 2]],
        [0, 0, 0],
        [[-1, 1, 0], [1, 1, 0], [-1, 0, 1], [1, 0, 1]],
        [0, 0, F(-3, 2), F(3, 2)],
        [0, 0, F(3, 2)],
    ),
    # Rows and right-hand sides with denominators 2 to 6.
    "non-integer-rows": _program(
        [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
        [-2, -4, 0],
        [[F(-1, 2), F(-1, 2), 0], [F(1, 3), 0, F(2, 5)], [0, F(-3, 4), F(1, 6)]],
        [F(-1, 2), F(-1, 3), F(-5, 2)],
        [0, 0, 0],
    ),
    # Two parallel rows both say z1 <= 1 and block the first step together.
    "parallel-tie": _program(
        [[2, 0], [0, 2]], [-4, 0], [[-1, 0], [F(-5, 3), 0]], [-1, F(-5, 3)], [0, 0]
    ),
    # z1 <= 1 is tight at the start, but its multiplier there is negative.
    "negative-multiplier": _program([[2, 0], [0, 2]], [0, 0], [[-1, 0]], [-1], [1, 0]),
}


def test_qp_cases_exercise_their_feature():
    h, _, _, _, _ = QP_CASES["zero-block"]
    assert all(v == 0 for v in h[0])
    _, _, rows, _, _ = QP_CASES["non-integer-rows"]
    assert any(v.denominator > 1 for row in rows for v in row)
    assert reference_qp(*QP_CASES["parallel-tie"])[1]["ties"] >= 1
    assert reference_qp(*QP_CASES["negative-multiplier"])[1]["drops"] >= 1


_small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _qp_programs(draw):
    """Convex programs bounded below: H = M^T M, whose leading columns may be
    zero (a zero block), and g = H w, so the gradient stays in the range of H.
    Rows are fresh, tight at z0 or not, or positive multiples of an earlier
    row with the same multiple of its rhs, which tie in the ratio test."""
    nvars = draw(st.integers(1, 4))
    zero = draw(st.integers(0, nvars - 1))
    m = [
        [F(0)] * zero + [draw(_small) for _ in range(nvars - zero)]
        for _ in range(draw(st.integers(1, 3)))
    ]
    h = [[sum((r[a] * r[b] for r in m), F(0)) for b in range(nvars)] for a in range(nvars)]
    g = mat_vec(h, [draw(_small) for _ in range(nvars)])
    z0 = [draw(_small) for _ in range(nvars)]
    rows, d = [], []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            k = draw(st.integers(0, len(rows) - 1))
            c = draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
            rows.append([c * v for v in rows[k]])
            d.append(c * d[k])
        else:
            row = [draw(_small) for _ in range(nvars)]
            slack = draw(st.sampled_from((F(0), F(0), F(1, 2), F(3))))
            rows.append(row)
            d.append(dot(row, z0) - slack)
    return h, g, rows, d, z0


@settings(max_examples=250, deadline=None)
@given(_qp_programs())
@example(QP_CASES["zero-block"])
@example(QP_CASES["non-integer-rows"])
@example(QP_CASES["parallel-tie"])
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
        expected, stats = reference_qp(*program)
    except QPError:
        with pytest.raises(QPError):
            minimize_qp(*program)
        return
    with mock.patch.object(qp_mod, "nullspace", counted):
        result = minimize_qp(*program)
    assert result == expected
    assert len(calls) == stats["iterations"]


class _Recorded(Exception):
    pass


@st.composite
def _split_programs(draw):
    """The split epigraph program of a random sample, n <= 5 and m <= 6,
    started at a random point; coordinates repeat often, so ties abound."""
    n = draw(st.integers(2, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    rows = [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(1, 6)))]
    start = canonicalize([draw(entry) for _ in range(n)])
    programs = []

    def record(*args):
        programs.append(args)
        raise _Recorded

    with mock.patch.object(frechet_mod, "minimize_qp", record):
        with pytest.raises(_Recorded):
            frechet_mod._epigraph_qp(SampleSet.from_rows(rows), start)
    return n, programs[0]


@settings(max_examples=100, deadline=None)
@given(_split_programs())
def test_split_programs_match_the_fraction_active_set_loop(case):
    """On the mean's own programs, whose rows are all difference rows, the
    forest route returns what the rational loop returns, after as many
    iterations."""
    n, program = case
    _, _, rows, d, z0 = program
    assert all(sum(1 for v in row if v) <= 2 for row in rows)
    # The start lifts u_j and l_j to the max and min: each has a tight row.
    slacks = [dot(row, z0) - rhs for row, rhs in zip(rows, d)]
    assert all(min(slacks[r : r + n]) == 0 for r in range(0, len(rows), n))
    _assert_matches_reference(program)


@st.composite
def _difference_row_sets(draw, forest=True):
    """Sparse difference rows on nvars variables, in qp's form: c (e_a - e_b)
    as [(a, c), (b, -c)] with a < b, or [(a, c)] against the ground.

    As a forest, each variable, in a random order, stays isolated or joins
    the ground or one variable drawn before it; otherwise extra rows may
    close cycles or repeat a row scaled.  The rows come shuffled.
    """
    nvars = draw(st.integers(1, 7))
    order = draw(st.permutations(range(nvars)))
    coef = st.integers(-5, 5).filter(bool)
    ends = []
    for pos, t in enumerate(order):
        other = draw(st.sampled_from([None, nvars, *order[:pos]]))
        if other is not None:
            ends.append((t, other))
    if not forest:
        node = st.integers(0, nvars)
        for _ in range(draw(st.integers(0, 4))):
            a, b = draw(node), draw(node)
            if a != b:
                ends.append((a, b))
    rows = []
    for a, b in ends:
        c = draw(coef)
        a, b = min(a, b), max(a, b)
        rows.append([(a, c)] if b == nvars else [(a, c), (b, -c)])
    return draw(st.permutations(rows)), nvars


@settings(max_examples=300, deadline=None)
@given(_difference_row_sets())
@example(([], 3))
@example(([[(0, 2), (2, -2)], [(1, -3)]], 4))
def test_forest_nullspace_is_the_rref_basis(case):
    rows, nvars = case
    assert qp_mod.nullspace(rows, nvars) == nullspace(qp_mod._dense(rows, nvars), nvars)


@settings(max_examples=300, deadline=None)
@given(_difference_row_sets(forest=False))
def test_union_find_keeps_the_rows_rref_keeps(case):
    rows, nvars = case
    labels = list(range(len(rows)))
    kept = qp_mod._independent_subset(rows, labels, nvars)
    assert kept == qp_mod._rref_independent_subset(rows, labels, nvars)


@settings(max_examples=300, deadline=None)
@given(_difference_row_sets(), st.data())
def test_leaf_peeling_solves_the_multiplier_system(case, data):
    rows, nvars = case
    u = [data.draw(st.fractions(-4, 4, max_denominator=3)) for _ in rows]
    # grad = C^T u, over a common denominator so that it is an integer vector
    den = lcm(*(v.denominator for v in u))
    grad = [0] * nvars
    for row, v in zip(rows, u):
        for t, c in row:
            grad[t] += c * v * den
    grad = [int(g) for g in grad]
    u = [v * den for v in u]
    assert qp_mod._multipliers(rows, grad) == u
    if rows:
        assert qp_mod._rref_multipliers(rows, grad) == u
    # A residual no row can absorb is an inconsistency on both routes.
    free = [t for t in range(nvars) if all(t not in dict(row) for row in rows)]
    if free and rows:
        grad[free[0]] += 1
        for solve in (qp_mod._multipliers, qp_mod._rref_multipliers):
            with pytest.raises(QPError):
                solve(rows, grad)
