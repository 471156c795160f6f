"""Rebuild ``reference.json``, the digests the exactness gate compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every pool instance of the named workloads (default: all) once,
checks the output with the gate's exactness checks, and records its digest:
the route-invariant fields for ``mean`` and the whole stdout for
``polytrope``.  A cell new to the file also gets ``by_cost``, its pool
ordered by the measured time, which the seeded plans stratify; an existing
order is kept, so that a seed keeps meaning the same inputs.  Writes one
line per instance to stderr: workload, cell, rep and seconds at the
reference speed.  Only rebuild the reference when an output is meant to
change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gate
import workloads
from run import calibrated, tropmean_main
from tropmean import SampleSet
from workloads import ROOT, WORKLOADS


def run_instance(workload: workloads.Workload, cell: tuple[int, ...], rep: int, directory: Path) -> tuple[str, float]:
    """Digest and calibrated nanoseconds of one pool instance, after the
    exactness checks."""
    path = workloads.write_input(directory, workload, cell, rep)
    argv = workloads.argv_for(workload, path)
    rc, stdout, _, ns = calibrated(lambda: tropmean_main(argv))
    if workload.command == "mean":
        found = gate.route_invariant_digest(json.loads(stdout)) if rc == 0 else ""
        sample = SampleSet.from_rows(workloads.mean_rows(*cell, rep))
        problem = gate.check_mean(sample, rc, stdout, found)
    else:
        found = gate.digest(stdout)
        problem = gate.check_polytrope(rc, stdout, found)
    key = workloads.cell_key(cell)
    if problem is not None:
        raise SystemExit(f"{workload.name} cell {key} rep {rep}: {problem}")
    print(f"{workload.name}\t{key}\t{rep}\t{ns / 1e9:.4f}", file=sys.stderr, flush=True)
    return found, ns


def format_reference(reference: dict) -> str:
    """One line per cell, so that a changed digest shows as a one-line diff."""
    lines = ["{"]
    for w_index, name in enumerate(sorted(reference)):
        lines.append(f" {json.dumps(name)}: {{")
        cells = reference[name]
        for c_index, key in enumerate(sorted(cells)):
            comma = "," if c_index < len(cells) - 1 else ""
            lines.append(f"  {json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}{comma}")
        lines.append(" }," if w_index < len(reference) - 1 else " }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(names: list[str]) -> int:
    reference = workloads.load_reference() if workloads.REFERENCE.exists() else {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name in names or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            old = reference.get(name, {})
            cells = {}
            for cell in workload.cells:
                key = workloads.cell_key(cell)
                reps = range(1, workload.pool + 1)
                runs = {rep: run_instance(workload, cell, rep, Path(tmp)) for rep in reps}
                by_cost = old.get(key, {}).get("by_cost")
                if sorted(by_cost or []) != list(reps):
                    by_cost = sorted(reps, key=lambda rep: runs[rep][1])
                cells[key] = {"by_cost": by_cost, "digests": [runs[rep][0] for rep in reps]}
            reference[name] = cells
    workloads.REFERENCE.write_text(format_reference(reference), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
