"""Every sample of a small scope, checked whole.

Small scopes are where ties, duplicate points, m = 1 and mean sets of full
dimension are dense, the inputs the seeded corpora sample only thinly.  By
the paper's theorem the mean set is tropically convex, so a tropical vertex
of ``fm_polytrope`` at objective ``min_sum`` everywhere, with the
construction, shows that ``fm_polytrope`` is the whole mean set.
``tests/small_scopes.py`` runs the wider scopes.
"""

from support import check_small_scope_sample, small_scope


def test_every_sample_with_three_coordinates_and_entries_in_minus_one_to_one(tmp_path):
    """All 219 multisets of at most three canonical points, entries -1..1."""
    samples = list(small_scope(3, 3, -1, 1))
    assert len(samples) == 219
    for rows in samples:
        check_small_scope_sample(rows, tmp_path / "points.json")
