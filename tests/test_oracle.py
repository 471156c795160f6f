"""The exhaustive solver against golden values, grids and the fast pipeline."""

import fractions
import hashlib
from fractions import Fraction
from random import Random

import pytest

from tropmean import (
    SampleSet,
    canonicalize,
    exact_frechet,
    objective,
)
from tropmean.errors import InternalError
import tropmean.oracle as oracle_mod
import tropmean.qp as qp_mod
from tropmean.oracle import BudgetExceeded, brute_force_frechet
from support import dense_objective, densify, int_sample, reference_qp, reference_region_program

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
    # 20^5 = 3,200,000 assignments, over the module's BUDGET
    s = int_sample(Random("oracle:budget"), 5, 5)
    with pytest.raises(BudgetExceeded):
        brute_force_frechet(s)


def test_the_oracle_output_is_pinned():
    """Value, witness and the ordered list of optimal assignments, pinned by
    one digest on tie-heavy samples, entries -1..1 over 1 or 2, and on the
    criterion-6 shapes of ``test_deferred_cells_are_pinned_epigraph_programs``:
    with many optimal regions per sample, a change to the walk's order or
    to which region names the witness shows here."""
    rng = Random("oracle:pinned")
    samples = []
    for n, m, count in ((3, 2, 10), (3, 3, 8), (3, 4, 8), (4, 2, 8), (4, 3, 5), (4, 4, 1)):
        for _ in range(count):
            q = rng.choice((1, 2))
            rows = [[F(rng.randint(-1, 1), q) for _ in range(n)] for _ in range(m)]
            samples.append(SampleSet.from_rows(rows))
    for n, m in ((3, 3), (3, 4), (4, 3), (4, 4)):
        for idx in range(2):
            samples.append(int_sample(Random(f"accept6:{n}:{m}:{idx}"), n, m))
    digest = hashlib.sha256()
    for s in samples:
        value, witness, assignments = brute_force_frechet(s)
        digest.update(repr((value, witness.den, witness.nums, assignments)).encode())
    assert digest.hexdigest() == "96d3dcf45b50861e5767b2c4e8ea318a3fe9955252029244cf409b53c1f33518"


def test_the_walk_builds_one_fraction_its_value(monkeypatch):
    """Bounds, region minima and pinned programs' values are integer pairs
    compared by cross-multiplying, so on criterion 6's first two samples of
    each shape ``brute_force_frechet`` builds one Fraction per call, the
    value it returns."""
    samples = [
        int_sample(Random(f"accept6:{n}:{m}:{idx}"), n, m)
        for n, m in ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4))
        for idx in range(2)
    ]
    built = []
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    for s in samples:
        monkeypatch.setattr(fractions.Fraction, "__new__", counted)
        brute_force_frechet(s)
        monkeypatch.undo()
        assert len(built) == 1, built
        built.clear()


def test_each_feasible_leaf_is_settled_by_one_pinned_program(monkeypatch):
    """No bound prunes and a leaf is settled in one way: on criterion 6's
    first two samples of each shape ``minimize_qp`` runs once per feasible
    full assignment, pinned to it, in the walk's lexicographic order, and no
    linear system is solved outside those programs.  The feasible leaves are
    counted from the Bellman-Ford passes: each walked prefix, the root
    included, tries its n(n-1) children, so the feasible children less the
    walked prefixes below the root are the feasible leaves."""
    point, solve, step = oracle_mod._difference_point, oracle_mod.minimize_qp, qp_mod.integer_solve
    passes, programs, stray = [], [], []
    inside = False

    def counted_point(region, n):
        passes.append(point(region, n))
        return passes[-1]

    def counted_solve(n, x0, d, pins=()):
        nonlocal inside
        programs.append(tuple(pins))
        inside = True
        try:
            return solve(n, x0, d, pins)
        finally:
            inside = False

    def counted_step(rows):
        if not inside:
            stray.append(rows)
        return step(rows)

    monkeypatch.setattr(oracle_mod, "_difference_point", counted_point)
    monkeypatch.setattr(oracle_mod, "minimize_qp", counted_solve)
    monkeypatch.setattr(qp_mod, "integer_solve", counted_step)
    for n, m in ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)):
        for idx in range(2):
            brute_force_frechet(int_sample(Random(f"accept6:{n}:{m}:{idx}"), n, m))
            prefixes = len(passes) // (n * (n - 1))
            leaves = sum(p is not None for p in passes) - (prefixes - 1)
            assert len(programs) == leaves, (n, m, idx)
            assert all(len(pins) == m for pins in programs)
            assert programs == sorted(set(programs))
            assert not stray
            passes.clear()
            programs.clear()


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


def test_deferred_cells_are_pinned_epigraph_programs(monkeypatch):
    """A deferred cell of a sample shaped like criterion 6's is the sample's
    epigraph program pinned to the cell's assignment.  Its value, an integer
    over the square of its optimizer's denominator, is what the rational loop
    finds on the cell's own program over x alone, the
    assignment's squares over the region's rows (``reference_region_program``),
    from the same start.  Pinning a row that is slack at the start raises
    InternalError."""
    programs = []
    solve = oracle_mod.minimize_qp

    def recorded(*args):
        programs.append((args, solve(*args)))
        return programs[-1][1]

    monkeypatch.setattr(oracle_mod, "minimize_qp", recorded)
    for n, m in ((3, 3), (3, 4), (4, 3), (4, 4)):
        for idx in range(2):
            brute_force_frechet(int_sample(Random(f"accept6:{n}:{m}:{idx}"), n, m))
    monkeypatch.undo()
    assert len(programs) >= 400
    slack = 0
    for (n, x0, d, pins), (value, (zd, _), _, _) in programs:
        nums = [d[r + n : r + 2 * n] for r in range(0, len(d), 2 * n)]
        squares, edges, rhs = reference_region_program(nums, pins)
        (expected, _, _, _), _ = reference_qp(
            *dense_objective(squares, n), densify(edges, n), rhs, [F(v) for v in x0[1:]]
        )
        assert F(value, zd * zd) == expected
        # Pin sample 1's max to a coordinate where x0 - p_1 falls below it.
        gaps = [a - b for a, b in zip(x0, nums[0])]
        below = [i for i, g in enumerate(gaps) if g < max(gaps)]
        if below:
            slack += 1
            with pytest.raises(InternalError):
                solve(n, x0, d, [(below[0], pins[0][1]), *pins[1:]])
    assert slack >= 400
