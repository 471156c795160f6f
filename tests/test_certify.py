"""Optimality certificates and the weighted forms they combine."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmean import (
    Certificate,
    CertificateError,
    NotOptimal,
    SampleSet,
    canonicalize,
    exact_frechet,
    find_certificate,
    kleene_star,
    membership,
    objective,
    trop_dist,
    tropical_vertices,
    verify_certificate,
)
from tropmean.errors import InternalError
from support import (
    active_pieces,
    form_value,
    fraction_weights,
    int_sample,
    integer_weights,
    mixed_sample,
    rand_sample,
    reference_verify_certificate,
    vertex_points,
    weight_map,
)

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
            for i, k in acts:
                assert form_value(s, j, i, k, list(x.coords)) ** 2 == d * d


def test_active_pieces_at_a_sample_point_cover_all_pairs():
    s = SampleSet.from_rows([(0, 1, 5)])
    per = active_pieces(s, s[0].coords)
    n = s.n
    assert len(per[0]) == n * (n - 1)


def test_active_pieces_golden_inclusion():
    per = active_pieces(THREE_POINTS, THREE_MEAN.coords)
    first = set(per[0])
    # distance to the first point is 4, attained by the (0, 2) difference
    assert (0, 2) in first


def test_certificate_golden_weights():
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    assert cert.c_star == 186
    assert weight_map(cert, 0) == {(0, 2): F(1)}
    assert weight_map(cert, 1) == {(1, 2): F(1)}
    assert weight_map(cert, 2) == {(0, 2): F(4, 11), (1, 2): F(7, 11)}
    assert verify_certificate(THREE_POINTS, cert)


def test_certificate_for_a_singleton_sample():
    s = SampleSet.from_rows([(2, 3, 4)])
    cert = find_certificate(s, s[0])
    assert cert.c_star == 0
    assert sum(weight_map(cert, 0).values()) == 1
    assert verify_certificate(s, cert)


def test_find_certificate_rejects_suboptimal_points():
    with pytest.raises(NotOptimal):
        find_certificate(THREE_POINTS, canonicalize([0, 0, 0]))


def test_find_certificate_raises_when_the_mean_certificate_fails_at_the_point(monkeypatch):
    # exact_frechet's own check is the first call; refusing the second, at
    # the point find_certificate names, breaks an invariant.
    mean = exact_frechet(THREE_POINTS).mean
    calls = []

    def refuse_second(sample, cert):
        calls.append(cert)
        return len(calls) == 1 and verify_certificate(sample, cert)

    monkeypatch.setattr("tropmean.frechet.verify_certificate", refuse_second)
    with pytest.raises(InternalError, match="does not hold at a point of equal objective"):
        find_certificate(THREE_POINTS, mean)
    assert len(calls) == 2


def test_perturbed_weights_fail_verification():
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    swapped = []
    for j, per in enumerate(fraction_weights(cert)):
        if j != 2:
            swapped.append(per)
            continue
        (i1, k1, w1), (i2, k2, w2) = per
        swapped.append(((i1, k1, w2), (i2, k2, w1)))
    bad = Certificate(cert.c_star, integer_weights(swapped), cert.point)
    assert not verify_certificate(THREE_POINTS, bad)


def test_weaker_bound_still_verifies():
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    weaker = Certificate(cert.c_star - 1, cert.weights, cert.point)
    assert verify_certificate(THREE_POINTS, weaker)


def test_malformed_certificates_are_rejected():
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    weights = fraction_weights(cert)
    i, k, _ = weights[0][0]
    negative = Certificate(
        cert.c_star,
        integer_weights((((i, k, F(-1)),),) + weights[1:]),
        cert.point,
    )
    with pytest.raises(ValueError):
        verify_certificate(THREE_POINTS, negative)
    unnormalized = Certificate(
        cert.c_star,
        integer_weights((((i, k, F(1, 2)),),) + weights[1:]),
        cert.point,
    )
    with pytest.raises(ValueError):
        verify_certificate(THREE_POINTS, unnormalized)
    tampered = Certificate(
        cert.c_star,
        integer_weights((((i, THREE_POINTS.n, F(1)),),) + weights[1:]),
        cert.point,
    )
    with pytest.raises(ValueError):
        verify_certificate(THREE_POINTS, tampered)


@pytest.mark.parametrize(
    "group",
    [
        (0, ((0, 2, 0),)),
        (-1, ((0, 2, -1),)),
        (F(1), ((0, 2, 1),)),
        (1.0, ((0, 2, 1),)),
        ("1", ((0, 2, 1),)),
        (True, ((0, 2, 1),)),
        (1, ((0, 2, F(1)),)),
        (2, ((0, 2, 1.0), (1, 2, 1))),
        (1, ((0, 2, True),)),
        (None, ()),
    ],
)
def test_weights_off_the_integers_raise_certificate_error(group):
    """A weight group whose denominator is not a positive int, or whose
    numerators are not all ints, is a structural defect: it raises
    CertificateError, not TypeError or ZeroDivisionError, and the
    certificate holding it can be built, compared and hashed."""
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    bad = Certificate(cert.c_star, (group, *cert.weights[1:]), cert.point)
    again = Certificate(cert.c_star, (group, *cert.weights[1:]), cert.point)
    assert bad == again and hash(bad) == hash(again)
    with pytest.raises(CertificateError, match="0 are not integers over a positive integer"):
        verify_certificate(THREE_POINTS, bad)


def _defective(cert, defect):
    weights = list(fraction_weights(cert))
    i, k, w = weights[0][0]
    if defect == "sample count":
        weights.pop()
    elif defect == "no pieces":
        weights[0] = ()
    elif defect == "out of range":
        weights[0] = ((i, 3, w),)
    elif defect == "first out of range":
        weights[0] = ((3, k, w),)
    elif defect == "short point":
        return Certificate(cert.c_star, cert.weights, canonicalize([0, -1]))
    elif defect == "same index":
        weights[0] = ((i, i, w),)
    elif defect == "negative weight":
        weights[0] = ((i, k, F(-1)), (i, k, F(2)))
    else:
        weights[0] = ((i, k, F(1, 2)),)
    return Certificate(cert.c_star, integer_weights(weights), cert.point)


@pytest.mark.parametrize(
    "defect, message",
    [
        ("sample count", "sample count"),
        ("no pieces", "carries no pieces"),
        ("out of range", "out of range"),
        ("first out of range", "piece indices out of range"),
        ("short point", "certificate point has 2 coordinates, not 3"),
        ("same index", "out of range"),
        ("negative weight", "negative weight"),
        ("not convex", "sum to 1/2, not 1"),
    ],
)
def test_structural_defects_raise_certificate_error(defect, message):
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    with pytest.raises(CertificateError, match=message) as caught:
        verify_certificate(THREE_POINTS, _defective(cert, defect))
    assert isinstance(caught.value, ValueError)


def test_a_zero_weight_piece_need_not_be_active():
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    assert (0, 1) not in active_pieces(THREE_POINTS, cert.point.coords)[1]
    weights = list(fraction_weights(cert))
    weights[1] = (*weights[1], (0, 1, F(0)))
    zero = Certificate(cert.c_star, integer_weights(weights), cert.point)
    assert verify_certificate(THREE_POINTS, zero)


def _verdict(check, sample, cert):
    try:
        return check(sample, cert)
    except CertificateError as exc:
        return f"CertificateError: {exc}"


def _mutations(cert):
    """The certificate with c_star raised by 1/10**9, weight moved between
    two pieces of one sample, a coordinate index past n and a negative
    weight."""
    weights = list(fraction_weights(cert))
    (i, k, w), *rest = weights[0]
    yield Certificate(cert.c_star + F(1, 10**9), cert.weights, cert.point)
    for j, per in enumerate(weights):
        if len(per) > 1:
            (i0, k0, w0), (i1, k1, w1), *tail = per
            per = ((i0, k0, w0 / 2), (i1, k1, w1 + w0 / 2), *tail)
            moved = weights[:j] + [per] + weights[j + 1:]
            yield Certificate(cert.c_star, integer_weights(moved), cert.point)
            break
    yield Certificate(
        cert.c_star, integer_weights((((i, cert.point.dim, w), *rest), *weights[1:])), cert.point
    )
    negative = integer_weights((((i, k, -w), *rest), *weights[1:]))
    yield Certificate(cert.c_star, negative, cert.point)


def test_integer_check_agrees_with_the_fraction_check():
    """On samples with mixed denominators and on four mutations of each
    certificate, the integer check and the Fraction reference give the same
    verdict or raise the same error."""
    rng = Random("certify:integer-check")
    verdicts = []
    for _ in range(40):
        s = mixed_sample(rng, rng.randint(2, 5), rng.randint(1, 6))
        cert = exact_frechet(s).certificate
        assert verify_certificate(s, cert) is True
        assert reference_verify_certificate(s, cert) is True
        raised, *others = _mutations(cert)
        assert _verdict(verify_certificate, s, raised) is False
        for mutated in (raised, *others):
            verdict = _verdict(verify_certificate, s, mutated)
            assert verdict == _verdict(reference_verify_certificate, s, mutated)
            verdicts.append(verdict)
    assert "CertificateError: negative weight" in verdicts
    assert "CertificateError: piece indices out of range" in verdicts
    assert verdicts.count(False) > 40  # some moved weights fail on the minimum


@st.composite
def _tied_samples(draw):
    """Samples with n 2-5 and m 1-6 whose coordinates repeat often: halves
    in -3..3, so ties, duplicates and several means are common."""
    n = draw(st.integers(2, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    return SampleSet.from_rows(rows)


def _with_weights(cert, j, per):
    """The certificate with sample j's weights replaced by the (i, k, w) in per."""
    weights = fraction_weights(cert)
    weights = integer_weights((*weights[:j], tuple(per), *weights[j + 1:]))
    return Certificate(cert.c_star, weights, cert.point)


def _inactive_pairs(sample, x):
    """Per sample, its first pair (i, k), i < k, whose piece is inactive at
    x, or None when every piece is."""
    n = sample.n
    pairs = []
    for p in sample:
        d = trop_dist(x, p)
        inactive = (
            (i, k)
            for i in range(n)
            for k in range(i + 1, n)
            if abs(x[i] - x[k] - (p[i] - p[k])) != d
        )
        pairs.append(next(inactive, None))
    return pairs


def _inactive_moves(sample, cert):
    """Half of the first weight of the first sample that has an inactive
    piece moved onto it; and, in every such sample, half of every weight
    moved onto an inactive piece in both orientations, a quarter each.
    The second leaves zero the gradient of a check that counts each piece
    at +-s_j as if it were active, so only the activity test rejects it."""
    pairs = _inactive_pairs(sample, cert.point)
    if not any(pairs):
        return []
    j = next(j for j, ik in enumerate(pairs) if ik)
    weights = fraction_weights(cert)
    (i, k, w), *rest = weights[j]
    one = _with_weights(cert, j, ((i, k, w / 2), *rest, (*pairs[j], w / 2)))
    every = []
    for per, ik in zip(weights, pairs):
        if ik:
            halves = [(i, k, w / 2) for i, k, w in per]
            quarters = [(*pair, F(1, 4)) for pair in (ik, ik[::-1])]
            per = halves + quarters
        every.append(tuple(per))
    return [one, Certificate(cert.c_star, integer_weights(every), cert.point)]


@settings(max_examples=150, deadline=None)
@given(_tied_samples(), st.data())
def test_stationarity_check_agrees_with_the_elimination_check(sample, data):
    """The check at the certificate's point and the elimination reference
    give the same verdict, or raise the same CertificateError, on the exact
    mean's certificate and on its mutations: the point shifted by 1/den in
    one coordinate, weight moved to inactive pieces, weights not summing to
    1, c_star raised by 1/10**9 and a negative weight."""
    result = exact_frechet(sample)
    assert result.exact
    cert = result.certificate
    assert cert.point == result.mean
    x = cert.point
    t = data.draw(st.integers(0, sample.n - 1))
    coords = list(x.coords)
    coords[t] += Fraction(data.draw(st.sampled_from((1, -1))), x.den)
    shifted = Certificate(cert.c_star, cert.weights, canonicalize(coords))
    (i, k, w), *rest = fraction_weights(cert)[0]
    halved = _with_weights(cert, 0, ((i, k, w / 2), *rest))
    negative = _with_weights(cert, 0, ((i, k, -w), *rest))
    raised = Certificate(cert.c_star + F(1, 10**9), cert.weights, cert.point)
    expected = {
        cert: True,
        shifted: objective(sample, shifted.point.coords) == cert.c_star,
        halved: f"CertificateError: weights of sample 0 sum to {w / 2 + 1 - w}, not 1",
        negative: "CertificateError: negative weight",
        raised: False,
    }
    expected.update(dict.fromkeys(_inactive_moves(sample, cert), False))
    for mutated, verdict in expected.items():
        assert _verdict(verify_certificate, sample, mutated) == verdict
        assert _verdict(reference_verify_certificate, sample, mutated) == verdict


@pytest.fixture(scope="module")
def workloads():
    # perfbench/workloads.py, loaded from its file and registered under its
    # bare name for as long as the module's tests run: its dataclasses look
    # their module up.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "workloads", module)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("name", ["mean-small", "mean-large"])
def test_a_shifted_point_fails_on_every_pool_sample(workloads, name):
    """On every benchmark pool sample, moving the certified mean by 1/den in
    one coordinate, either way, verifies exactly when the moved point is
    also a mean, and on each sample some such move fails."""
    workload = workloads.WORKLOADS[name]
    for cell in workload.cells:
        for rep in range(1, workload.pool + 1):
            sample = SampleSet.from_rows(workloads.mean_rows(*cell, rep))
            result = exact_frechet(sample)
            x = result.mean
            verdicts = []
            for t in range(sample.n):
                for step in (F(1, x.den), F(-1, x.den)):
                    coords = list(x.coords)
                    coords[t] += step
                    y = canonicalize(coords)
                    cert = result.certificate
                    verdict = verify_certificate(sample, Certificate(cert.c_star, cert.weights, y))
                    assert verdict == (objective(sample, y.coords) == result.min_sum)
                    verdicts.append(verdict)
            assert not all(verdicts), (cell, rep)


def _weighted_sum(terms, x):
    return sum((w * (x[i] - x[k] - c) ** 2 for i, k, c, w in terms), F(0))


def test_combined_form_touches_the_objective_at_the_optimum():
    """The certificate's weighted form equals c_star at the mean, and there
    it is stationary: f(x + e_t) == f(x - e_t) for a quadratic f means its
    gradient has no e_t component at x, checked for every coordinate t."""
    cert = find_certificate(THREE_POINTS, THREE_MEAN)
    terms = [
        (i, k, p[i] - p[k], w)
        for per, p in zip(fraction_weights(cert), THREE_POINTS)
        for i, k, w in per
    ]
    x = list(THREE_MEAN.coords)
    assert _weighted_sum(terms, x) == cert.c_star == 186
    for t in range(THREE_POINTS.n):
        up = x[:t] + [x[t] + 1] + x[t + 1:]
        down = x[:t] + [x[t] - 1] + x[t + 1:]
        assert _weighted_sum(terms, up) == _weighted_sum(terms, down)


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
        for v in vertex_points(tropical_vertices, kleene_star(result.fm_polytrope)):
            cert = find_certificate(s, v)
            assert verify_certificate(s, cert)
            assert cert.c_star == objective(s, v.coords)
            active = active_pieces(s, v.coords)
            for j, per in enumerate(cert.weights):
                assert all((i, k) in active[j] for i, k, _ in per[1])
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
