"""Objective, greedy descent, exact means, mean polytropes, midpoints."""

from fractions import Fraction
from random import Random

import pytest

from tropmean import (
    SampleSet,
    brute_force_frechet,
    canonicalize,
    exact_frechet,
    fm_polytrope,
    greedy_frechet,
    membership,
    objective,
    pseudovertices,
    trop_dist,
    two_point_mean,
    verify_certificate,
)
from support import int_sample, rand_point, rand_sample

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


def test_greedy_on_a_singleton_returns_the_point():
    s = SampleSet.from_rows([(4, 7, 9)])
    v, value = greedy_frechet(s)
    assert v == s[0]
    assert value == 0


def test_greedy_approaches_the_known_minimum():
    v, value = greedy_frechet(THREE_POINTS, max_iter=2000, tol=F(1, 10**6))
    assert 186 <= value <= 186 + F(1, 100)
    assert objective(THREE_POINTS, v.coords) == value

    s = SampleSet.from_rows([(0, 0, 0), (0, 1, 2)])
    v, value = greedy_frechet(s, max_iter=2000, tol=F(1, 10**6))
    assert 2 <= value <= 2 + F(1, 100)


def test_greedy_trace_is_monotone():
    seen = []
    greedy_frechet(THREE_POINTS, max_iter=300, on_round=lambda rnd, val: seen.append(val))
    assert len(seen) <= 300
    assert all(a >= b for a, b in zip(seen, seen[1:]))


def test_greedy_never_reports_below_the_true_minimum():
    rng = Random("frechet:greedy")
    for _ in range(10):
        s = int_sample(rng, 3, rng.randint(2, 3))
        result = exact_frechet(s)
        _, value = greedy_frechet(s, max_iter=500, tol=F(1, 10**6))
        assert value >= result.min_sum


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
    assert pseudovertices(result.fm_polytrope) == [canonicalize([0, 0, -1])]


def test_exact_two_point_sample():
    s = SampleSet.from_rows([(0, 0, 0), (0, 1, 2)])
    result = exact_frechet(s)
    assert result.exact
    assert result.min_sum == 2
    assert set(pseudovertices(result.fm_polytrope)) == {
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


@pytest.mark.parametrize("failure", ["qp", "verification"])
def test_exact_falls_back_to_the_average_when_not_certified(monkeypatch, failure):
    import tropmean.frechet as frechet_mod

    def raise_qp_error(*args):
        raise frechet_mod.QPError("stub")

    if failure == "qp":
        monkeypatch.setattr(frechet_mod, "minimize_qp", raise_qp_error)
    else:
        monkeypatch.setattr(frechet_mod, "verify_certificate", lambda s, c: False)
    result = exact_frechet(THREE_POINTS)
    assert not result.exact
    assert result.certificate is None
    assert result.mean == canonicalize([-1, -2, -4])
    assert result.min_sum == objective(THREE_POINTS, result.mean.coords)


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
        for v in pseudovertices(result.fm_polytrope):
            for j, p in enumerate(s):
                assert trop_dist(v, p) == result.distances[j]


def test_midpoint_trivial_and_golden_cases():
    p = canonicalize([0, 2, 7])
    assert two_point_mean(p, p) == p
    a = canonicalize([0, 0, 0])
    b = canonicalize([0, 1, 2])
    mid = two_point_mean(a, b)
    assert trop_dist(mid, a) == 1
    assert trop_dist(mid, b) == 1


def test_midpoint_bisects_random_pairs():
    rng = Random("frechet:midpoint")
    for _ in range(60):
        n = rng.randint(2, 6)
        p1 = rand_point(rng, n)
        p2 = rand_point(rng, n)
        mid = two_point_mean(p1, p2)
        d = trop_dist(p1, p2)
        assert trop_dist(mid, p1) == d / 2
        assert trop_dist(mid, p2) == d / 2
        pair = SampleSet(points=(p1, p2))
        assert objective(pair, mid.coords) == d * d / 2
        assert membership(fm_polytrope(pair, mid), mid.coords)


def test_fm_polytrope_of_a_singleton_is_a_point_ball():
    s = SampleSet.from_rows([(0, 3, 1)])
    mat = fm_polytrope(s, s[0])
    assert pseudovertices(mat) == [s[0]]


def test_fm_polytrope_segment_golden():
    s = SampleSet.from_rows([(0, 0, 8), (0, 2, 4), (0, 5, 3), (0, 10, 2)])
    result = exact_frechet(s)
    assert result.exact
    assert set(pseudovertices(result.fm_polytrope)) == {
        canonicalize([0, 3, 3]),
        canonicalize([0, 4, 4]),
    }


def _fm_polytrope_by_definition(sample, mean):
    d = [trop_dist(mean, p) for p in sample]
    return tuple(
        tuple(
            F(0) if i == k else max(-d[j] + sample[j][i] - sample[j][k] for j in range(sample.m))
            for k in range(sample.n)
        )
        for i in range(sample.n)
    )


def test_fm_polytrope_matches_the_definition():
    """fm_polytrope works over one common denominator; its entries equal the
    Fraction maxima c_ik = max_j(-d_j + p_j,i - p_j,k)."""
    rng = Random("frechet:fm-polytrope")
    for _ in range(30):
        n, m = rng.randint(2, 5), rng.randint(1, 5)
        rows = [[F(rng.randint(-12, 12), rng.choice((1, 2, 3, 5))) for _ in range(n)] for _ in range(m)]
        rows[0][-1] = F(7, 5)
        sample = SampleSet.from_rows(rows)
        for mean in (sample[rng.randrange(m)], exact_frechet(sample).mean, rand_point(rng, n)):
            entries = fm_polytrope(sample, mean).entries
            assert entries == _fm_polytrope_by_definition(sample, mean)
            assert all(type(v) is Fraction for row in entries for v in row)
