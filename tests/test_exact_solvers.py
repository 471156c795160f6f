"""Rational linear algebra, LP feasibility and the active-set QP solver."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropmean.linalg import dot, mat_vec, nullspace, rref, solve_affine
from tropmean.qp import QPError, minimize_qp
from tropmean.simplex import feasible_point

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
