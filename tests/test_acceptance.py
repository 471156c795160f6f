"""Acceptance gate: one test per criterion, exact values, stated time caps.

Golden numbers in this file were frozen from independent computations: the
exhaustive solver for optimal values, direct formula evaluation for matrix
entries, and hand-checked certificates for the weight vectors.  Every
comparison is on exact rationals; the only inequalities are the wall-clock
caps.
"""

import time
from fractions import Fraction
from random import Random

from tropmean import (
    NEG_INF,
    NotOptimal,
    PolytropeMatrix,
    SampleSet,
    canonicalize,
    exact_frechet,
    find_certificate,
    kleene_star,
    membership,
    objective,
    pseudovertices,
    trop_dist,
    tropical_vertices,
    verify_certificate,
)
from tropmean.oracle import brute_force_frechet
from support import (
    ball_to_polytrope,
    int_sample,
    nonpositive_matrix,
    rand_vector,
    vertex_points,
    weight_map,
)

F = Fraction

# (n, m, how many instances): 200 total, sized so the exhaustive solver
# stays fast enough for the two-minute cap of criteria 6 and 8.
INSTANCE_MIX = [
    (3, 2, 40),
    (3, 3, 40),
    (3, 4, 40),
    (4, 2, 40),
    (4, 3, 25),
    (4, 4, 15),
]


def _instances(tag):
    for n, m, count in INSTANCE_MIX:
        for idx in range(count):
            rng = Random(f"{tag}:{n}:{m}:{idx}")
            yield int_sample(rng, n, m), rng


def test_criterion_01_three_point_mean_and_certificate():
    t0 = time.perf_counter()
    s = SampleSet.from_rows([(-3, 0, 0), (0, -6, 0), (0, 0, -12)])
    result = exact_frechet(s)
    assert result.exact
    assert result.min_sum == 186
    assert result.mean == canonicalize([0, 0, -1])
    cert = result.certificate
    assert cert is not None
    assert weight_map(cert, 2) == {(0, 2): F(4, 11), (1, 2): F(7, 11)}
    assert verify_certificate(s, cert)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_six_coordinate_mean_and_certificate():
    t0 = time.perf_counter()
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
    cert = find_certificate(s, known_mean)
    assert cert.c_star == F(182, 25)
    assert verify_certificate(s, cert)
    assert verify_certificate(s, result.certificate)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_segment_mean_set_and_oracle_value():
    t0 = time.perf_counter()
    s = SampleSet.from_rows([(0, 0, 8), (0, 2, 4), (0, 5, 3), (0, 10, 2)])
    result = exact_frechet(s)
    assert result.exact
    assert set(vertex_points(pseudovertices, result.fm_polytrope)) == {
        canonicalize([0, 3, 3]),
        canonicalize([0, 4, 4]),
    }
    oracle_value, _, _ = brute_force_frechet(s)
    assert result.min_sum == oracle_value
    assert oracle_value == 136
    assert time.perf_counter() - t0 < 5.0


def test_criterion_04_closure_golden_and_five_vertices():
    c = PolytropeMatrix.from_rows(
        [
            [F(-1), F(1), F(-5)],
            [F(-4), F(0), NEG_INF],
            [F(0), F(3), NEG_INF],
        ]
    )
    star = kleene_star(c)
    assert star.entries == (
        (F(0), F(1), F(-5)),
        (F(-4), F(0), F(-9)),
        (F(0), F(3), F(0)),
    )
    verts = vertex_points(tropical_vertices, c)
    pverts = vertex_points(pseudovertices, c)
    assert len(verts) == 3
    assert len(pverts) == 5
    assert all(v in pverts for v in verts)


def test_criterion_05_three_sample_mean_set_contains_the_center():
    s = SampleSet.from_rows([(0, 0, 0), (0, 2, 4), (0, 5, 1)])
    result = exact_frechet(s)
    assert result.exact
    center = canonicalize([0, 2, 1])
    assert membership(result.fm_polytrope, center.coords)
    oracle_value, _, _ = brute_force_frechet(s)
    assert result.min_sum == oracle_value
    assert oracle_value == 22
    assert objective(s, center.coords) == 22


def test_criterion_06_oracle_equivalence_on_two_hundred_instances():
    t0 = time.perf_counter()
    checked = 0
    for s, _ in _instances("accept6"):
        oracle_value, _, _ = brute_force_frechet(s)
        result = exact_frechet(s)
        assert result.exact, f"no certificate on {list(s)}"
        assert result.min_sum == oracle_value, f"value mismatch on {list(s)}"
        for v in vertex_points(pseudovertices, result.fm_polytrope):
            for j, p in enumerate(s):
                assert trop_dist(v, p) == result.distances[j]
        checked += 1
    assert checked == 200
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_metric_convexity_and_ball_membership():
    t0 = time.perf_counter()
    rng = Random("accept7:metric")
    for _ in range(1000):
        n = rng.randint(2, 6)
        x, y, z = (rand_vector(rng, n) for _ in range(3))
        dxy = trop_dist(x, y)
        assert dxy >= 0
        assert dxy == trop_dist(y, x)
        assert (dxy == 0) == (canonicalize(x) == canonicalize(y))
        assert trop_dist(x, z) <= dxy + trop_dist(y, z)

    rng = Random("accept7:convexity")
    for _ in range(1000):
        n = rng.randint(2, 6)
        x, y, p = (rand_vector(rng, n) for _ in range(3))
        lam = F(rng.randint(1, 9), 10)
        mix = [lam * yi + (1 - lam) * xi for xi, yi in zip(x, y)]
        d_mix = trop_dist(mix, p)
        d0 = trop_dist(x, p)
        d1 = trop_dist(y, p)
        assert d_mix * d_mix <= lam * d1 * d1 + (1 - lam) * d0 * d0

    rng = Random("accept7:balls")
    for _ in range(1000):
        n = rng.randint(2, 6)
        center = rand_vector(rng, n)
        r = F(rng.randint(0, 9), rng.choice((1, 2, 3)))
        x = rand_vector(rng, n, span=10)
        ball = ball_to_polytrope(center, r)
        assert membership(ball, x) == (trop_dist(x, center) <= r)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_08_certificates_complete_and_sound_per_instance():
    t0 = time.perf_counter()
    checked = 0
    for s, rng in _instances("accept8"):
        result = exact_frechet(s)
        assert result.exact
        cert = find_certificate(s, result.mean)
        assert verify_certificate(s, cert)
        assert cert.c_star == result.min_sum
        # find a point with strictly larger objective and watch it fail
        while True:
            x = canonicalize(
                [F(0)]
                + [F(rng.randint(-9 * s.n, 9 * s.n), 3) for _ in range(s.n - 1)]
            )
            if objective(s, x.coords) > result.min_sum:
                break
        try:
            find_certificate(s, x)
        except NotOptimal:
            pass
        else:
            raise AssertionError(f"suboptimal point certified on {list(s)}")
        checked += 1
    assert checked == 200
    assert time.perf_counter() - t0 < 120.0


def test_criterion_09_large_instance_completes_and_repeats():
    def pipeline():
        rng = Random("accept9:20:60:0")
        n, m = 20, 60
        s = SampleSet.from_rows(
            [
                [F(rng.randint(-10 * n, 10 * n), 5) for _ in range(n)]
                for _ in range(m)
            ]
        )
        result = exact_frechet(s)
        assert result.exact
        assert verify_certificate(s, result.certificate)
        star = kleene_star(result.fm_polytrope)
        verts = vertex_points(tropical_vertices, star)
        return result, star.entries, tuple(verts)

    t0 = time.perf_counter()
    first = pipeline()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert first == pipeline()
    result, star_entries, verts = first
    assert result.min_sum > 0
    assert len(star_entries) == 20
    assert verts
    for v in verts:
        assert membership(PolytropeMatrix.from_rows(star_entries), v.coords)


def test_criterion_10_closure_idempotence_and_region_invariance():
    t0 = time.perf_counter()
    rng = Random("accept10")
    for _ in range(500):
        n = rng.randint(2, 6)
        c = nonpositive_matrix(rng, n)
        star = kleene_star(c)
        assert kleene_star(PolytropeMatrix.from_rows(star.entries)).entries == star.entries
        # max-plus square of a closed matrix is itself
        for i in range(n):
            for j in range(n):
                best = max(star.entries[i][k] + star.entries[k][j] for k in range(n))
                assert best == star.entries[i][j]
        for _ in range(3):
            x = rand_vector(rng, n, span=8)
            assert membership(c, x) == membership(star, x)
    assert time.perf_counter() - t0 < 30.0