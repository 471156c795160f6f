"""Run the small-scope checks over the wider scopes; pytest does not collect it.

Each scope is every multiset of canonical integer points with n
coordinates, at most m_max points and entries lo..hi, checked by
``support.check_small_scope_sample`` as ``test_small_scope.py`` checks the
tier-1 scope.  A failing sample is printed as a plain test case to paste
into ``test_small_scope.py``; the run time of each scope goes to stderr.
The exit code is 1 when any sample failed.

    PYTHONPATH=src python tests/small_scopes.py            # every scope
    PYTHONPATH=src python tests/small_scopes.py 3:4:-1:1   # n:m_max:lo:hi
"""

import sys
import tempfile
import time
import traceback
from pathlib import Path

from support import check_small_scope_sample, small_scope

# (n, m_max, lo, hi): 714, 3,275 and 4,059 samples after the tier-1 scope's 219.
SCOPES = ((3, 3, -1, 1), (3, 4, -1, 1), (3, 3, -2, 2), (4, 3, -1, 1))

CASE = '''
def test_small_scope_sample_{name}(tmp_path):
    check_small_scope_sample({rows!r}, tmp_path / "points.json")
'''


def run(scopes) -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.json"
        for n, m_max, lo, hi in scopes:
            t0 = time.perf_counter()
            samples = 0
            for rows in small_scope(n, m_max, lo, hi):
                samples += 1
                try:
                    check_small_scope_sample(rows, path)
                except Exception as exc:
                    failed += 1
                    where = traceback.extract_tb(exc.__traceback__)[-1].line
                    print(f"# {type(exc).__name__} at: {where}")
                    print(CASE.format(name=failed, rows=rows))
            elapsed = time.perf_counter() - t0
            print(
                f"scope n={n} m<={m_max} entries {lo}..{hi}: {samples} samples in {elapsed:.1f} s",
                file=sys.stderr,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    args = [tuple(map(int, arg.split(":"))) for arg in sys.argv[1:]]
    sys.exit(run(args or SCOPES))
