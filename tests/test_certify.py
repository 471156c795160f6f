"""Optimality certificates and exact quadratic minimization."""

from fractions import Fraction
from random import Random

import pytest

from tropmean import (
    Certificate,
    CertificateError,
    NotOptimal,
    QuadraticPiece,
    SampleSet,
    active_pieces,
    canonicalize,
    exact_frechet,
    find_certificate,
    kleene_star,
    membership,
    min_quadratic,
    objective,
    trop_dist,
    tropical_vertices,
    verify_certificate,
)
from tropmean.certify import AffineForm, QuadraticForm, combined_form
from support import int_sample, rand_sample

F = Fraction

THREE_POINTS = SampleSet.from_rows([(-3, 0, 0), (0, -6, 0), (0, 0, -12)])
THREE_MEAN = canonicalize([0, 0, -1])


def test_active_pieces_evaluate_to_the_squared_distance():
    rng = Random("certify:active")
    for _ in range(60):
        n = rng.randint(2, 5)
        s = rand_sample(rng, n, rng.randint(1, 4))
        x = rand_sample(rng, n, 1)[0]
        per = active_pieces(s, x.coords)
        assert len(per) == s.m
        for j, acts in enumerate(per):
            d = trop_dist(x, s[j])
            assert acts, "every sample has at least one active piece"
            for piece in acts:
                assert piece.form_value(list(x.coords)) ** 2 == d * d


def test_active_pieces_at_a_sample_point_cover_all_pairs():
    s = SampleSet.from_rows([(0, 1, 5)])
    per = active_pieces(s, s[0].coords)
    n = s.n
    assert len(per[0]) == n * (n - 1)


def test_active_pieces_golden_inclusion():
    per = active_pieces(THREE_POINTS, THREE_MEAN.coords)
    first = {(p.i, p.k) for p in per[0]}
    # distance to the first point is 4, attained by the (0, 2) difference
    assert (0, 2) in first


def test_certificate_golden_weights():
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    assert cert.c_star == 186
    assert cert.weight_map(0) == {(0, 2): F(1)}
    assert cert.weight_map(1) == {(1, 2): F(1)}
    assert cert.weight_map(2) == {(0, 2): F(4, 11), (1, 2): F(7, 11)}
    assert verify_certificate(THREE_POINTS, cert)


def test_certificate_for_a_singleton_sample():
    s = SampleSet.from_rows([(2, 3, 4)])
    cert = find_certificate(s, s[0])
    assert cert.c_star == 0
    assert sum(cert.weight_map(0).values()) == 1
    assert verify_certificate(s, cert)


def test_find_certificate_rejects_suboptimal_points():
    with pytest.raises(NotOptimal):
        find_certificate(THREE_POINTS, canonicalize([0, 0, 0]))


def test_perturbed_weights_fail_verification():
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    swapped = []
    for j, per in enumerate(cert.weights):
        if j != 2:
            swapped.append(per)
            continue
        (p1, w1), (p2, w2) = per
        swapped.append(((p1, w2), (p2, w1)))
    bad = Certificate(cert.c_star, tuple(swapped))
    assert not verify_certificate(THREE_POINTS, bad)


def test_weaker_bound_still_verifies():
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    weaker = Certificate(cert.c_star - 1, cert.weights)
    assert verify_certificate(THREE_POINTS, weaker)


def test_malformed_certificates_are_rejected():
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    piece = cert.weights[0][0][0]
    negative = Certificate(
        cert.c_star,
        (((piece, F(-1)),),) + cert.weights[1:],
    )
    with pytest.raises(ValueError):
        verify_certificate(THREE_POINTS, negative)
    unnormalized = Certificate(
        cert.c_star,
        (((piece, F(1, 2)),),) + cert.weights[1:],
    )
    with pytest.raises(ValueError):
        verify_certificate(THREE_POINTS, unnormalized)
    tampered = Certificate(
        cert.c_star,
        (((QuadraticPiece(0, piece.i, piece.k, piece.c + 1), F(1)),),)
        + cert.weights[1:],
    )
    with pytest.raises(ValueError):
        verify_certificate(THREE_POINTS, tampered)


def _defective(cert, defect):
    weights = list(cert.weights)
    piece, w = weights[0][0]
    if defect == "sample count":
        weights.pop()
    elif defect == "no pieces":
        weights[0] = ()
    elif defect == "wrong sample":
        weights[0] = ((QuadraticPiece(1, piece.i, piece.k, piece.c), w),)
    elif defect == "out of range":
        weights[0] = ((QuadraticPiece(0, piece.i, 3, piece.c), w),)
    elif defect == "constant":
        weights[0] = ((QuadraticPiece(0, piece.i, piece.k, piece.c + 1), w),)
    elif defect == "negative weight":
        weights[0] = ((piece, F(-1)), (piece, F(2)))
    else:
        weights[0] = ((piece, F(1, 2)),)
    return Certificate(cert.c_star, tuple(weights))


@pytest.mark.parametrize(
    "defect, message",
    [
        ("sample count", "sample count"),
        ("no pieces", "carries no pieces"),
        ("wrong sample", "wrong sample"),
        ("out of range", "out of range"),
        ("constant", "constant does not match"),
        ("negative weight", "negative weight"),
        ("not convex", "sum to 1/2, not 1"),
    ],
)
def test_structural_defects_raise_certificate_error(defect, message):
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    with pytest.raises(CertificateError, match=message) as caught:
        verify_certificate(THREE_POINTS, _defective(cert, defect))
    assert isinstance(caught.value, ValueError)


def test_combined_form_touches_the_objective_at_the_optimum():
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    form = combined_form(THREE_POINTS, cert)
    assert form.value_at(list(THREE_MEAN.coords)) == cert.c_star
    value, _ = min_quadratic(form)
    assert value == 186


def test_min_quadratic_single_square():
    form = QuadraticForm(
        3, ((AffineForm((F(0), F(1), F(0)), F(-3)), F(1)),)
    )
    value, sol = min_quadratic(form)
    assert value == 0
    assert sol.particular[1] == 3
    # one flat direction: the third coordinate is free
    assert len(sol.basis) == 1
    assert sol.basis[0][2] != 0


def test_min_quadratic_matches_direct_elimination():
    rng = Random("certify:quad")
    for _ in range(50):
        n = rng.randint(2, 5)
        terms = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [F(0)] + [
                F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n - 1)
            ]
            const = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            weight = F(rng.randint(1, 4))
            terms.append((AffineForm(tuple(coeffs), const), weight))
        form = QuadraticForm(n, tuple(terms))
        value, sol = min_quadratic(form)
        attained = form.value_at(list(sol.particular))
        assert attained == value
        # sampled points never beat the reported minimum
        for _ in range(20):
            x = [F(0)] + [F(rng.randint(-8, 8), rng.choice((1, 2))) for _ in range(n - 1)]
            assert form.value_at(x) >= value
        # flat directions really are flat
        for v in sol.basis:
            shifted = [a + b for a, b in zip(sol.particular, v)]
            assert form.value_at(shifted) == value


def test_min_quadratic_gauge_choice_does_not_matter():
    """Difference forms are shift invariant, so relabeling which coordinate
    is pinned to zero must not change the minimum value."""
    rng = Random("certify:gauge")
    for _ in range(30):
        n = rng.randint(3, 5)
        pairs = []
        for _ in range(rng.randint(2, 5)):
            i, k = rng.sample(range(n), 2)
            pairs.append((i, k, F(rng.randint(-5, 5)), F(rng.randint(1, 3))))

        def build(perm):
            terms = []
            for i, k, c, w in pairs:
                coeffs = [F(0)] * n
                coeffs[perm[i]] += 1
                coeffs[perm[k]] -= 1
                terms.append((AffineForm(tuple(coeffs), c), w))
            return QuadraticForm(n, tuple(terms))

        base = list(range(n))
        perm = base[:]
        rng.shuffle(perm)
        v1, _ = min_quadratic(build(base))
        v2, _ = min_quadratic(build(perm))
        assert v1 == v2


def test_certificates_on_random_certified_optima():
    rng = Random("certify:random")
    for _ in range(25):
        n = rng.randint(3, 4)
        m = rng.randint(2, 3)
        s = int_sample(rng, n, m)
        result = exact_frechet(s)
        assert result.exact
        cert = find_certificate(s, result.mean)
        assert verify_certificate(s, cert)
        assert cert.c_star == result.min_sum
        # a point strictly above the optimum is refused
        worse = canonicalize([c + F(1, 3) * (idx % 2) for idx, c in enumerate(result.mean.coords)])
        if objective(s, worse.coords) > result.min_sum:
            with pytest.raises(NotOptimal):
                find_certificate(s, worse)


def test_find_certificate_at_every_tropical_vertex_of_the_mean_set():
    """Every point of the mean set has the exact mean's objective, so its
    certificate is the exact route's, and each weighted piece is active
    there: the combined form touches the objective at every minimizer."""
    rng = Random("certify:vertices")
    vertices = 0
    for _ in range(120):
        n, m = rng.randint(2, 5), rng.randint(1, 5)
        s = int_sample(rng, n, m)
        result = exact_frechet(s)
        assert result.exact
        for v in tropical_vertices(kleene_star(result.fm_polytrope)):
            cert = find_certificate(s, v)
            assert verify_certificate(s, cert)
            assert cert.c_star == objective(s, v.coords)
            active = active_pieces(s, v.coords)
            for j, per in enumerate(cert.weights):
                assert all(piece in active[j] for piece, _ in per)
            vertices += 1
        step = F(1)
        while True:
            off = canonicalize(list(result.mean.coords[:-1]) + [result.mean.coords[-1] + step])
            if not membership(result.fm_polytrope, off.coords):
                break
            step *= 2
        with pytest.raises(NotOptimal):
            find_certificate(s, off)
    assert vertices > 200
