"""Objective, exact means, mean polytropes, means of pairs."""

from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropmean.frechet as frechet_mod
from tropmean import (
    SampleSet,
    canonicalize,
    exact_frechet,
    find_certificate,
    fm_polytrope,
    kleene_star,
    membership,
    objective,
    pseudovertices,
    trop_dist,
    tropical_vertices,
    verify_certificate,
)
from tropmean.cli import _random_sample
from tropmean.errors import InternalError
from tropmean.oracle import brute_force_frechet
from support import (
    active_pieces,
    ball_to_polytrope,
    form_value,
    fraction_weights,
    int_sample,
    intersect,
    rand_point,
    rand_sample,
    reference_average,
    reference_epigraph,
    reference_epigraph_program,
    reference_result_fields,
    vertex_points,
)

F = Fraction

THREE_POINTS = SampleSet.from_rows([(-3, 0, 0), (0, -6, 0), (0, 0, -12)])


def test_objective_golden_values():
    assert objective(THREE_POINTS, (0, 0, -1)) == 186
    assert objective(SampleSet.from_rows([(0, 2, 1)]), (0, 2, 1)) == 0
    s = SampleSet.from_rows([(0, 0, 0), (0, 2, 4), (0, 5, 1)])
    assert objective(s, (0, 2, 1)) == 22


def test_objective_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        objective(THREE_POINTS, (0, 1))


def test_a_point_of_another_dimension_is_refused():
    """A point whose coordinate count is not the sample's has no distances
    to it: the mean set and the certificate search refuse it rather than
    compare truncated gaps."""
    for point in (canonicalize([0, 1]), canonicalize([0, 0, -1, 0])):
        for call in (fm_polytrope, find_certificate):
            with pytest.raises(ValueError) as caught:
                call(THREE_POINTS, point)
            assert str(caught.value) == "dimension mismatch"


def test_exact_three_point_golden():
    result = exact_frechet(THREE_POINTS)
    assert result.exact
    assert result.mean == canonicalize([0, 0, -1])
    assert result.distances == (F(4), F(7), F(11))
    assert result.min_sum == 186
    assert result.certificate is not None
    assert verify_certificate(THREE_POINTS, result.certificate)
    # this mean polytrope pins the single point (0, 0, -1)
    e = result.fm_polytrope.entries
    assert (e[0][1], e[1][0]) == (F(-1), F(-1))
    assert (e[0][2], e[2][0]) == (F(1), F(-1))
    assert (e[1][2], e[2][1]) == (F(1), F(-1))
    assert vertex_points(pseudovertices, result.fm_polytrope) == [canonicalize([0, 0, -1])]


def test_exact_two_point_sample():
    s = SampleSet.from_rows([(0, 0, 0), (0, 1, 2)])
    result = exact_frechet(s)
    assert result.exact
    assert result.min_sum == 2
    assert set(vertex_points(pseudovertices, result.fm_polytrope)) == {
        canonicalize([0, 0, 1]),
        canonicalize([0, 1, 1]),
    }


def test_exact_six_coordinate_golden():
    s = SampleSet.from_rows(
        [
            (F(1, 5), F(2, 5), 2, F(2, 5), 2, 2),
            (2, 2, 2, F(2, 5), F(2, 5), F(2, 5)),
            (F(2, 5), F(2, 5), 2, F(1, 5), 2, 2),
        ]
    )
    result = exact_frechet(s)
    assert result.exact
    assert result.min_sum == F(182, 25)
    known_mean = canonicalize([F(-3, 5), F(-3, 5), 0, F(-4, 5), 0, 0])
    assert membership(result.fm_polytrope, known_mean.coords)
    assert objective(s, known_mean.coords) == F(182, 25)


def test_exact_mean_at_a_sample_point():
    # the mean is sample 1 itself, so t_1 = 0 and its multipliers vanish
    s = SampleSet.from_rows([(0, 0, 0), (0, 1, 2), (0, -1, -2)])
    result = exact_frechet(s)
    assert result.exact
    assert result.mean == s[0]
    assert result.distances[0] == 0
    assert result.min_sum == 8
    assert brute_force_frechet(s)[0] == 8
    assert result.certificate is not None
    assert result.certificate.c_star == 8
    assert verify_certificate(s, result.certificate)


def test_exact_duplicated_sample():
    s = SampleSet.from_rows([(0, 0, 0), (0, 0, 0), (0, 1, 2)])
    result = exact_frechet(s)
    assert result.exact
    assert result.min_sum == F(8, 3)
    assert brute_force_frechet(s)[0] == F(8, 3)
    assert result.distances[0] == result.distances[1]
    assert result.certificate is not None
    assert verify_certificate(s, result.certificate)


def test_split_certificate_on_ties():
    # At the mean (0, 1, 1, 1), sample 1 is largest in x - p at coordinates
    # 0 and 2 and smallest at 1 and 3, so both of its sides carry a tie.
    s = SampleSet.from_rows([(-1, -3, 1, 1), (-3, 3, -2, 3), (1, 2, 0, -2)])
    result = exact_frechet(s)
    assert result.exact
    assert result.mean == canonicalize([0, 1, 1, 1])
    cert = result.certificate
    assert verify_certificate(s, cert)
    active = active_pieces(s, result.mean.coords)
    split = 0
    for j, per in enumerate(fraction_weights(cert)):
        assert sum(w for _, _, w in per) == 1
        assert all((i, k) in active[j] for i, k, _ in per)
        # Orient each piece from its largest to its smallest coordinate; the
        # weights are then the products alpha_i beta_k of their marginals.
        oriented = {}
        for i, k, w in per:
            if form_value(s, j, i, k, result.mean.coords) == result.distances[j]:
                oriented[i, k] = w
            else:
                oriented[k, i] = w
        alpha, beta = {}, {}
        for (i, k), w in oriented.items():
            alpha[i] = alpha.get(i, 0) + w
            beta[k] = beta.get(k, 0) + w
        for i, a in alpha.items():
            for k, b in beta.items():
                assert oriented.get((i, k), 0) == a * b
        split += len(alpha) >= 2 and len(beta) >= 2
    assert split == 1


def test_exact_bench_cell_15_15():
    # Bench cell (15, 15) rep 1, larger than any benchmark cell.  The values,
    # times 5 (25 for the sum), were computed with the n(n-1)m-row epigraph
    # program that the split program replaced; both solve the same problem.
    result = exact_frechet(_random_sample(0, 15, 15, 1))
    assert result.exact
    assert [5 * d for d in result.distances] == [
        239, 284, 270, 218, 261, 239, 272, 251, 234, 239, 276, 257, 255, 224, 271
    ]
    assert 25 * result.min_sum == 963172
    assert [[5 * v for v in row] for row in result.fm_polytrope.entries] == [
        [0, -53, -62, -110, -113, -50, -184, -35, -17, -124, -7, -82, -47, -76, -115],
        [-47, 0, -87, -174, -103, -71, -83, -137, -109, -123, -21, -144, -73, -123, -146],
        [-3, -24, 0, -42, -190, -85, -148, -76, -90, -157, -80, -168, -9, -118, -123],
        [32, -63, -53, 0, -85, -63, 23, -31, -27, -17, -24, -73, 33, -31, -112],
        [22, 5, -63, -29, 0, -57, 13, 23, 41, -27, 22, -55, 23, -41, -57],
        [-24, -71, -12, -54, -28, 0, -95, -65, -62, -30, -3, -106, -2, -105, -118],
        [-19, -30, 1, -47, -54, -37, 0, 17, -67, -51, -47, -22, -17, 8, -135],
        [-69, -88, -102, -112, -78, -120, -170, 0, -110, -120, -43, -98, -62, -6, -98],
        [-55, -66, -29, -77, -90, -71, -120, -19, 0, -91, -28, -58, -47, -28, -157],
        [32, 11, -124, -7, -107, 28, -147, 2, 20, 0, 1, -76, 24, -37, -78],
        [-10, -10, 10, -38, -22, -46, -19, -1, -78, -25, 0, -20, -8, -73, -76],
        [-25, -46, -107, -64, -115, 20, -128, -40, -18, -5, -11, 0, 16, -45, -112],
        [-27, -17, -7, -66, -23, -88, -149, -88, -57, -47, -93, -114, 0, 1, -113],
        [-76, 6, 8, -123, -24, -135, -11, -87, -58, -47, -103, -22, -47, 0, -60],
        [-36, -34, 3, -50, -22, -54, -89, 0, -135, -53, -93, -20, -25, -9, 0],
    ]


FALLBACK_REASONS = {
    "qp": "stub",
    "value": "the program's value is not the objective at its optimizer",
    "verification": "the certificate does not verify at the mean",
}


@pytest.mark.parametrize("failure", FALLBACK_REASONS)
def test_exact_falls_back_to_the_average_when_not_certified(monkeypatch, failure):
    def raise_qp_error(*args):
        raise InternalError("stub")

    def value_off(sample, start):
        mean, cert = solve(sample, start)
        return mean, frechet_mod.Certificate(cert.c_star + 1, cert.weights, cert.point)

    solve = frechet_mod._epigraph_qp
    if failure == "qp":
        monkeypatch.setattr(frechet_mod, "minimize_qp", raise_qp_error)
    elif failure == "value":
        monkeypatch.setattr(frechet_mod, "_epigraph_qp", value_off)
    else:
        monkeypatch.setattr(frechet_mod, "verify_certificate", lambda s, c: False)
    result = exact_frechet(THREE_POINTS)
    assert not result.exact
    assert result.certificate is None
    assert result.reason == FALLBACK_REASONS[failure]
    assert result.mean == canonicalize([-1, -2, -4])
    assert result.min_sum == objective(THREE_POINTS, result.mean.coords)


def test_a_certified_mean_measures_each_distance_once(monkeypatch):
    # The distances at the mean feed the certificate check, min_sum and the
    # mean set alike.  They are measured once, on the scaled sample, so no
    # call goes through trop_dist, and each equals trop_dist at the mean.
    calls = []
    real = frechet_mod.trop_dist

    def counted(x, p):
        calls.append(p)
        return real(x, p)

    monkeypatch.setattr(frechet_mod, "trop_dist", counted)
    sample = _random_sample(0, 6, 12, 1)
    result = exact_frechet(sample)
    assert result.exact
    assert calls == []
    assert result.distances == tuple(real(result.mean, p) for p in sample)


_entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 7)))


@st.composite
def _mixed_samples(draw):
    """Samples with n 2-8 and m 1-3n, denominators 1, 2, 3, 5 and 7, and
    coordinates and points that repeat."""
    n = draw(st.integers(2, 8))
    pool = draw(st.lists(_entry, min_size=1, max_size=4))
    coord = st.one_of(_entry, st.sampled_from(pool))
    rows = []
    for _ in range(draw(st.integers(1, 3 * n))):
        if rows and draw(st.integers(0, 4)) == 0:
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append([draw(coord) for _ in range(n)])
    return SampleSet.from_rows(rows)


class _Recorded(InternalError):
    """Raised in place of a solve; as an InternalError it sends exact_frechet
    to its fallback, the start."""


@settings(max_examples=120, deadline=None)
@given(_mixed_samples(), st.data())
def test_integer_assembly_matches_the_fraction_assembly(sample, data):
    """The program handed to the solver, the fallback start and the result
    fields are those the Fraction assembly gives."""
    programs = []

    def record(*args):
        programs.append(args)
        raise _Recorded

    start = reference_average(sample)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frechet_mod, "minimize_qp", record)
        fallback = exact_frechet(sample)
    (program,) = programs
    n, x0, d = program
    assert all(type(v) is int for v in (n, *d, *x0))
    # The program is in the variables e z, e the common denominator of the
    # sample and the start: its right-hand sides and start are e times the
    # Fraction ones.
    e = lcm(sample.den, *(v.denominator for v in start))
    _, _, _, ed, ez0 = reference_epigraph_program(sample, start)
    assert n == sample.n
    assert d == [e * v for v in ed]
    assert x0 == [e * v for v in ez0[:n]]
    assert not fallback.exact
    assert fallback.mean == start

    result = exact_frechet(sample)
    point = canonicalize(data.draw(st.lists(_entry, min_size=sample.n, max_size=sample.n)))
    for at in (fallback, result, frechet_mod._result_at(sample, point)):
        fields = (at.distances, at.min_sum, at.fm_polytrope)
        assert fields == reference_result_fields(sample, at.mean)
        assert at.fm_polytrope == fm_polytrope(sample, at.mean)


@st.composite
def _tied_samples(draw):
    """Samples with n <= 5 and m <= 6 and entries in -3..3 over 1 or 2, so
    coordinates tie often, with the average or a random point as start."""
    n = draw(st.integers(2, 5))
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    sample = SampleSet.from_rows(rows)
    start = draw(
        st.one_of(
            st.just(reference_average(sample)),
            st.lists(entry, min_size=n, max_size=n).map(canonicalize),
        )
    )
    return sample, start


def _assert_epigraph_matches_the_fraction_route(sample, start):
    mean, cert = frechet_mod._epigraph_qp(sample, start)
    expected_mean, expected_cert = reference_epigraph(sample, start)
    assert mean == expected_mean
    assert cert == expected_cert


@settings(max_examples=150, deadline=None)
@given(_tied_samples())
def test_certificate_read_off_matches_the_fraction_route(case):
    """The mean and the certificate read off the integer multipliers, the
    weights compared exactly, equal those of the Fraction program, solve and
    read-off."""
    _assert_epigraph_matches_the_fraction_route(*case)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_certificate_read_off_on_the_benchmark_pool(n):
    """The same on every mean-small pool instance: ``bench --seed 0`` cells
    (n, m) with m = n, 2n, 3n, reps 1 to 24."""
    for m in (n, 2 * n, 3 * n):
        for rep in range(1, 25):
            sample = _random_sample(0, n, m, rep)
            _assert_epigraph_matches_the_fraction_route(sample, reference_average(sample))


def test_alpha_and_beta_sit_on_distinct_coordinates(monkeypatch):
    """At every certified mean of the mean-small pool and of 400 seeded
    tie-heavy samples, no coordinate of a sample with t_j > 0 carries both
    an alpha and a beta multiplier, since both its rows tight would make t_j
    zero, and a sample with t_j = 0 carries none.  So a sample's pieces
    (i, k) are distinct pairs, and its weights need no pair dictionary."""
    solved = []
    solve = frechet_mod.minimize_qp

    def recorded(*args):
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(frechet_mod, "minimize_qp", recorded)
    samples = [
        _random_sample(0, n, k * n, rep)
        for n in (3, 4, 5, 6)
        for k in (1, 2, 3)
        for rep in range(1, 25)
    ]
    rng = Random("frechet:distinct-pairs")
    for _ in range(400):
        n = rng.randint(3, 6)
        rows = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(2, 3 * n))]
        samples.append(SampleSet(1, rows))
    positive = 0
    for sample in samples:
        solved.clear()
        result = exact_frechet(sample)
        assert result.exact
        ((_, _, alphas, betas),) = solved
        for alpha, beta, t in zip(alphas, betas, result.distances):
            if t:
                assert not any(a and b for a, b in zip(alpha, beta))
                positive += 1
            else:
                assert not any(alpha) and not any(beta)
    assert positive > 5000


def test_result_invariants_on_random_instances():
    rng = Random("frechet:invariants")
    for _ in range(20):
        n = rng.randint(3, 4)
        s = int_sample(rng, n, rng.randint(2, 4))
        result = exact_frechet(s)
        assert result.exact
        assert result.min_sum == sum((d * d for d in result.distances), F(0))
        assert membership(result.fm_polytrope, result.mean.coords)
        assert tuple(trop_dist(result.mean, p) for p in s) == result.distances
        assert result.certificate is not None
        assert result.certificate.c_star == result.min_sum


def test_mean_polytrope_contains_exactly_the_minimizers():
    rng = Random("frechet:polytrope")
    for _ in range(12):
        s = int_sample(rng, 3, rng.randint(2, 3))
        result = exact_frechet(s)
        assert result.exact
        for _ in range(40):
            x = [F(0)] + [F(rng.randint(-12, 12), rng.choice((1, 2))) for _ in range(2)]
            if membership(result.fm_polytrope, x):
                assert objective(s, x) == result.min_sum
            else:
                assert objective(s, x) > result.min_sum


@st.composite
def _grid_samples(draw):
    """Samples of two or three points at n 3 to 6 on a small integer grid,
    so that mean sets of many points are common."""
    n = draw(st.integers(3, 6))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return SampleSet.from_rows(draw(st.lists(row, min_size=2, max_size=3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_grid_samples(), st.data())
def test_the_mean_set_is_convex_and_ends_at_its_closure(sample, data):
    """The paper's convexity theorem: the mean set is a polytrope, so convex
    both classically and in max-plus.  Midpoints and max-plus combinations
    of its tropical vertices and pseudovertices are means, and a tropical
    vertex pushed just past one of its tight closure inequalities
    x_i - x_k >= c*_ik is not."""
    result = exact_frechet(sample)
    assert result.exact
    star = kleene_star(result.fm_polytrope)
    corners = vertex_points(tropical_vertices, star)
    points = st.sampled_from(vertex_points(pseudovertices, star))
    for _ in range(3):
        a, b = data.draw(points), data.draw(points)
        shift = data.draw(st.fractions(-4, 4, max_denominator=6))
        assert objective(sample, [(u + v) / 2 for u, v in zip(a, b)]) == result.min_sum
        assert objective(sample, [max(u, v + shift) for u, v in zip(a, b)]) == result.min_sum
    v = data.draw(st.sampled_from(corners))
    tight = [
        (i, k)
        for i, row in enumerate(star.entries)
        for k, c in enumerate(row)
        if i != k and v[i] - v[k] == c
    ]
    i, k = data.draw(st.sampled_from(tight))
    pushed = list(v.coords)
    pushed[i] -= F(1, 1000 * star.den)
    assert not membership(star, pushed)
    assert objective(sample, pushed) > result.min_sum


def _degenerate_corpus():
    """Seeded samples where the QP's working set is most degenerate: entries
    in -1..1, so exact ties in almost every distance; duplicate points, some
    as translates along (1, ..., 1), which are one point of the torus; a
    single point; and two coordinates."""
    rng = Random("frechet:degenerate")
    for _ in range(100):
        n = rng.randint(2, 5)
        yield [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(2, 2 * n))]
        base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        copies = [rng.choice(base) for _ in range(rng.randint(2, 6))]
        yield [[v + t for v in p] for p, t in zip(copies, rng.choices(range(-2, 3), k=len(copies)))]
        yield [[F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]]
        yield [[F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(2)] for _ in range(rng.randint(1, 6))]


def test_every_degenerate_sample_is_certified():
    """Ties, duplicates, m = 1 and n = 2: every mean comes with a certificate
    that ``verify_certificate`` accepts at the mean, for the minimum the
    mean attains, and that minimum is the oracle's where enumeration is
    cheap."""
    for rows in _degenerate_corpus():
        sample = SampleSet.from_rows(rows)
        result = exact_frechet(sample)
        assert result.exact
        cert = result.certificate
        assert cert.point == result.mean
        assert cert.c_star == result.min_sum == objective(sample, result.mean.coords)
        assert verify_certificate(sample, cert)
        if (sample.n * (sample.n - 1)) ** sample.m <= 1000:
            assert brute_force_frechet(sample)[0] == result.min_sum


def test_translation_moves_means_and_keeps_the_value():
    rng = Random("frechet:shift")
    for _ in range(10):
        n = rng.randint(3, 4)
        s = int_sample(rng, n, rng.randint(2, 3))
        t = [F(rng.randint(-5, 5)) for _ in range(n)]
        shifted = SampleSet.from_rows(
            [[c + tc for c, tc in zip(p, t)] for p in s]
        )
        r1 = exact_frechet(s)
        r2 = exact_frechet(shifted)
        assert r1.exact and r2.exact
        assert r1.min_sum == r2.min_sum
        moved = canonicalize([c + tc for c, tc in zip(r1.mean, t)])
        assert membership(r2.fm_polytrope, moved.coords)


def test_equal_distance_to_every_sample_from_all_pseudovertices():
    rng = Random("frechet:equidistant")
    for _ in range(12):
        n = rng.randint(3, 4)
        s = int_sample(rng, n, rng.randint(2, 3))
        result = exact_frechet(s)
        assert result.exact
        for v in vertex_points(pseudovertices, result.fm_polytrope):
            for j, p in enumerate(s):
                assert trop_dist(v, p) == result.distances[j]


def _assert_pair_mean_is_a_midpoint(p1, p2):
    """The mean of a pair sits at half their distance from both, so its
    minimum is d^2/2, and it lies in its own mean polytrope."""
    pair = SampleSet.from_rows((p1, p2))
    result = exact_frechet(pair)
    d = trop_dist(p1, p2)
    assert result.exact
    assert result.distances == (d / 2, d / 2)
    assert result.min_sum == d * d / 2
    assert objective(pair, result.mean.coords) == d * d / 2
    assert membership(result.fm_polytrope, result.mean.coords)
    return result


def test_midpoint_trivial_and_golden_cases():
    p = canonicalize([0, 2, 7])
    assert _assert_pair_mean_is_a_midpoint(p, p).mean == p
    a = canonicalize([0, 0, 0])
    b = canonicalize([0, 1, 2])
    result = _assert_pair_mean_is_a_midpoint(a, b)
    assert result.distances == (1, 1)
    assert result.min_sum == 2


def test_midpoint_bisects_random_pairs():
    rng = Random("frechet:midpoint")
    for _ in range(60):
        n = rng.randint(2, 6)
        _assert_pair_mean_is_a_midpoint(rand_point(rng, n), rand_point(rng, n))


def test_fm_polytrope_of_a_singleton_is_a_point_ball():
    s = SampleSet.from_rows([(0, 3, 1)])
    mat = fm_polytrope(s, s[0])
    assert vertex_points(pseudovertices, mat) == [s[0]]


def test_fm_polytrope_segment_golden():
    s = SampleSet.from_rows([(0, 0, 8), (0, 2, 4), (0, 5, 3), (0, 10, 2)])
    result = exact_frechet(s)
    assert result.exact
    assert set(vertex_points(pseudovertices, result.fm_polytrope)) == {
        canonicalize([0, 3, 3]),
        canonicalize([0, 4, 4]),
    }


def test_fm_polytrope_matches_the_definition():
    """fm_polytrope works over one common denominator; at any point its
    entries equal the Fraction maxima c_ik = max_j(-d_j + p_j,i - p_j,k) of
    the balls B(p_j, d_j) at the point's distances d_j."""
    rng = Random("frechet:fm-polytrope")
    for _ in range(30):
        n, m = rng.randint(2, 5), rng.randint(1, 5)
        rows = [[F(rng.randint(-12, 12), rng.choice((1, 2, 3, 5))) for _ in range(n)] for _ in range(m)]
        rows[0][-1] = F(7, 5)
        sample = SampleSet.from_rows(rows)
        for mean in (sample[rng.randrange(m)], exact_frechet(sample).mean, rand_point(rng, n)):
            entries = fm_polytrope(sample, mean).entries
            balls = [ball_to_polytrope(p, trop_dist(mean, p)) for p in sample]
            assert entries == intersect(balls).entries
            assert all(type(v) is Fraction for row in entries for v in row)


def test_the_mean_set_is_the_intersection_of_the_balls():
    """The paper's mean set is the intersection of the tropical balls
    B(p_j, d_j) at the mean's distances; ``fm_polytrope`` builds its matrix
    on integers over one common denominator and must match the reference
    built ball by ball over Fractions.  Small spans make ties, and every
    third sample repeats one of its points."""
    rng = Random("frechet:balls")
    for t in range(150):
        n, m = 2 + t % 5, rng.randint(1, 6)
        if t % 2:
            sample = int_sample(rng, n, m, span=rng.choice((1, 2, 3 * n)))
        else:
            sample = rand_sample(rng, n, m, span=rng.choice((2, 12)))
        if t % 3 == 0:
            sample = SampleSet.from_rows((*sample, sample[rng.randrange(sample.m)]))
        result = exact_frechet(sample)
        assert result.exact
        balls = [ball_to_polytrope(p, d) for p, d in zip(sample, result.distances)]
        expected = intersect(balls)
        assert fm_polytrope(sample, result.mean) == expected
        assert result.fm_polytrope == expected


@st.composite
def _metamorphic_cases(draw):
    """A sample with n <= 4 and m <= 3 and the draws of every transform."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    return (
        rows,
        draw(st.permutations(range(m))),
        draw(st.permutations(range(n))),
        (draw(st.integers(0, m - 1)), F(draw(st.integers(-9, 9)), draw(st.integers(1, 3)))),
        draw(st.sampled_from((-3, -2, -1, 2, 3))),
    )


@settings(max_examples=30, deadline=None)
@given(_metamorphic_cases())
def test_metamorphic_transforms_against_the_oracle(case):
    """Each transform of the sample changes the exhaustive minimum in a known
    way, and the exact route certifies the transformed sample's mean."""
    rows, sample_perm, coord_perm, (shifted, c), k = case
    value, _, _ = brute_force_frechet(SampleSet.from_rows(rows))
    transforms = {
        "permuted samples": ([rows[j] for j in sample_perm], value),
        "permuted coordinates": ([[p[a] for a in coord_perm] for p in rows], value),
        "one sample shifted along (1, ..., 1)": (
            [[v + c for v in p] if j == shifted else p for j, p in enumerate(rows)],
            value,
        ),
        "entries scaled by k": ([[k * v for v in p] for p in rows], k * k * value),
        "samples duplicated": (rows + rows, 2 * value),
    }
    for name, (transformed, expected) in transforms.items():
        result = exact_frechet(SampleSet.from_rows(transformed))
        assert result.exact, name
        assert result.min_sum == expected, name
