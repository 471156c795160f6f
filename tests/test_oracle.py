"""The exhaustive solver against golden values, grids and the fast pipeline."""

from fractions import Fraction
from random import Random

import pytest

from tropmean import (
    BudgetExceeded,
    SampleSet,
    canonicalize,
    exact_frechet,
    objective,
)
from tropmean.oracle import brute_force_frechet
from support import int_sample

F = Fraction


def test_three_point_golden():
    s = SampleSet.from_rows([(-3, 0, 0), (0, -6, 0), (0, 0, -12)])
    value, witness, assignments = brute_force_frechet(s)
    assert value == 186
    assert witness == canonicalize([0, 0, -1])
    # at the unique optimum the first two samples force one pair each and
    # the third sample ties between two pairs
    assert set(assignments) == {
        ((0, 2), (1, 2), (2, 0)),
        ((0, 2), (1, 2), (2, 1)),
    }


def test_singleton_sample_is_its_own_mean():
    s = SampleSet.from_rows([(5, 1, 2, 8)])
    value, witness, assignments = brute_force_frechet(s)
    assert value == 0
    assert witness == s[0]
    assert len(assignments) >= 1


def test_two_point_split():
    s = SampleSet.from_rows([(0, 0, 0), (0, 1, 2)])
    value, witness, _ = brute_force_frechet(s)
    assert value == 2
    # the mean set is the segment between (0,0,1) and (0,1,1)
    assert objective(s, witness.coords) == 2
    x2, x3 = witness.coords[1], witness.coords[2]
    assert x3 == 1 and 0 <= x2 <= 1


def test_budget_is_enforced_up_front():
    s = int_sample(Random("oracle:budget"), 4, 4)
    with pytest.raises(BudgetExceeded):
        brute_force_frechet(s, budget=100)


def test_witness_attains_the_reported_value():
    rng = Random("oracle:witness")
    for _ in range(25):
        s = int_sample(rng, rng.randint(3, 4), rng.randint(2, 3))
        value, witness, assignments = brute_force_frechet(s)
        assert objective(s, witness.coords) == value
        assert assignments


def test_no_grid_point_beats_the_oracle():
    """Dense rational grid sweep around the witness on 3-coordinate data."""
    rng = Random("oracle:grid")
    for _ in range(6):
        s = int_sample(rng, 3, rng.randint(2, 3), span=4)
        value, witness, _ = brute_force_frechet(s)
        lo = min(min(p.coords) for p in s) - 1
        hi = max(max(p.coords) for p in s) + 1
        step = F(1, 2)
        best_grid = None
        u = lo
        while u <= hi:
            v = lo
            while v <= hi:
                g = objective(s, (F(0), u, v))
                if best_grid is None or g < best_grid:
                    best_grid = g
                v += step
            u += step
        assert best_grid is not None
        assert value <= best_grid
        # the witness itself attains the minimum, so adding it to the grid
        # closes the gap exactly
        assert min(best_grid, objective(s, witness.coords)) == value


def test_random_probes_never_beat_the_oracle():
    rng = Random("oracle:probe")
    for _ in range(10):
        n = rng.randint(3, 4)
        s = int_sample(rng, n, rng.randint(2, 3))
        value, _, _ = brute_force_frechet(s)
        for _ in range(50):
            x = [F(0)] + [
                F(rng.randint(-6 * n, 6 * n), rng.choice((1, 2, 3))) for _ in range(n - 1)
            ]
            assert objective(s, x) >= value


def test_oracle_agrees_with_the_certified_pipeline():
    rng = Random("oracle:agree")
    for _ in range(15):
        n = rng.randint(3, 4)
        m = rng.randint(2, 3)
        s = int_sample(rng, n, m)
        value, _, _ = brute_force_frechet(s)
        result = exact_frechet(s)
        assert result.exact
        assert result.min_sum == value
