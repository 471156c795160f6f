"""Benchmark of ``tropmean mean`` and ``tropmean polytrope --matrix``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mean-small --seed 1 --seconds 25 --trace 0

The ops run in this process through ``tropmean.cli.main``, one at a time
(a closed loop with one client), on inputs written at set-up.  Every output
passes the exactness gate in ``gate.py`` outside the timed region.  Every
reported time is scaled to a reference machine speed by a calibration
kernel timed around and inside it.  With ``--trace 0`` the last stdout line reports
the end-to-end metrics; with ``--trace 1`` every op runs traced, the first
round untraced as well, and the line reports the per-layer metrics.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import workloads
from workloads import ROOT, SRC, WORKLOADS, Workload

try:
    import gate
    import tropmean
    from tracer import ROUTES, Tracer
    from tropmean import SampleSet
    from tropmean.cli import main as tropmean_main
except ImportError as exc:
    sys.exit(f"perfbench: cannot import tropmean from {SRC}: {exc}")
if not Path(tropmean.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: tropmean was imported from {tropmean.__file__}, not from {SRC}")

# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 11

# The machine that defined the benchmark switches each CPU between speed
# modes about 1.8x apart, at scales from a second to minutes, so raw times
# of runs a few minutes apart differed by up to 2.2x.  The calibration
# kernel below runs right before and right after every timed interval, and
# every PROBE_INTERVAL_S inside an op, and tracks the mode; an interval is
# reported as it would read at the speed at which the kernel takes
# REFERENCE_KERNEL_NS, its time in the faster mode.
REFERENCE_KERNEL_NS = 1_700_000
PROBE_INTERVAL_S = 0.1


def _kernel() -> Fraction:
    """Exact rational arithmetic of the program's kind, independent of it."""
    acc = Fraction(0)
    for i in range(1, 200):
        a = Fraction(i, i + 7)
        acc += a * a - Fraction(3, i + 1)
        if acc > 1000:
            acc /= 3
    return acc


def _timed_kernel() -> int:
    start = time.perf_counter_ns()
    _kernel()
    return time.perf_counter_ns() - start


def kernel_ns() -> int:
    gc.collect()
    return _timed_kernel()


def at_reference_speed(ns: float, kernels: list[int]) -> float:
    """An interval scaled by the kernel times measured around and in it."""
    return ns * REFERENCE_KERNEL_NS / statistics.fmean(kernels)


class SpeedProbe:
    """Kernel timings taken every PROBE_INTERVAL_S while an op runs.

    An op of several seconds spans several speed modes, which the kernel
    runs before and after it cannot see.  A SIGALRM handler runs the kernel
    inside the op instead; its time is taken out of the op's time.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[int] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum: int, frame: object) -> None:
        self.samples.append(_timed_kernel())


def calibrated(run: Callable[[], int]) -> tuple[object, str, int, float]:
    """``execute`` plus the op's time at the reference speed."""
    before = kernel_ns()
    with SpeedProbe() as probe:
        rc, stdout, ns = execute(run)
    kernels = [before, *probe.samples, kernel_ns()]
    return rc, stdout, ns, at_reference_speed(ns - sum(probe.samples), kernels)


@dataclass(frozen=True)
class Op:
    cell: tuple[int, ...]
    label: str
    argv: list[str]
    check: Callable[[object, str], str | None]


def make_op(workload: Workload, cell: tuple[int, ...], rep: int, directory: Path, reference: dict) -> Op:
    """Write the input of one pool instance and pair its command with its gate."""
    path = workloads.write_input(directory, workload, cell, rep)
    expected = reference[workloads.cell_key(cell)]["digests"][rep - 1]
    if workload.command == "mean":
        sample = SampleSet.from_rows(workloads.mean_rows(*cell, rep))
        check = functools.partial(gate.check_mean, sample, expected=expected)
    else:
        check = functools.partial(gate.check_polytrope, expected=expected)
    label = f"{workload.name} cell {workloads.cell_key(cell)} rep {rep}"
    return Op(cell, label, workloads.argv_for(workload, path), check)


def build_ops(workload: Workload, seed: int, rounds: int, directory: Path) -> list[Op]:
    reference = workloads.load_reference()[workload.name]
    steps = workloads.plan(workload, seed, rounds, reference)
    made = {key: make_op(workload, *key, directory, reference) for key in dict.fromkeys(steps)}
    return [made[key] for key in steps]


def execute(run: Callable[[], int]) -> tuple[object, str, int]:
    """Time one op; returns (exit code, stdout, nanoseconds).

    A traceback is a failed op, reported on stderr, not a crashed benchmark.
    """
    gc.collect()
    out = io.StringIO()
    start = time.perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = run()
    except Exception:
        elapsed = time.perf_counter_ns() - start
        traceback.print_exc()
        return None, out.getvalue(), elapsed
    return rc, out.getvalue(), time.perf_counter_ns() - start


def traced_call(tracer: Tracer, argv: list[str]) -> int:
    """``tropmean.cli.main`` with the tracer's wrappers in place for this call."""
    tracer.install()
    try:
        return tracer.run_op(lambda: tropmean_main(argv))
    finally:
        tracer.uninstall()


def gate_op(op: Op, rc: object, stdout: str) -> bool:
    problem = op.check(rc, stdout)
    if problem is not None:
        print(f"FAILED {op.label}: {problem}", file=sys.stderr)
    return problem is None


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing ``tropmean.cli``,
    at the reference speed.

    The interpreter runs isolated and without ``site`` (``-I -S``), so the
    figure is interpreter start plus the program's own imports, not
    whatever the environment's site-packages load at start-up.
    """
    cmd = [
        sys.executable,
        "-I",
        "-S",
        "-c",
        "import sys; sys.path.insert(0, sys.argv[1]); import tropmean.cli",
        str(SRC),
    ]
    subprocess.run(cmd, check=True, timeout=60)  # fills the OS and bytecode caches
    samples = []
    for _ in range(SETUP_REPEATS):
        before = kernel_ns()
        start = time.perf_counter_ns()
        subprocess.run(cmd, check=True, timeout=60)
        elapsed = time.perf_counter_ns() - start
        samples.append(at_reference_speed(elapsed, [before, kernel_ns()]) / 1e9)
    return statistics.median(samples)


def plain_run(ops: list[Op]) -> tuple[int, dict]:
    latencies = []
    failed = 0
    raw = 0
    for op in ops:
        rc, stdout, ns, scaled = calibrated(lambda: tropmean_main(op.argv))
        latencies.append(scaled)
        raw += ns
        failed += not gate_op(op, rc, stdout)
    print(f"raw ops_per_s {len(ops) / (raw / 1e9):.4g}", file=sys.stderr)
    metrics = {
        "ops_per_s": (len(ops) / (sum(latencies) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    return failed, metrics


def traced_run(ops: list[Op], paired: int) -> tuple[int, dict]:
    """Every op runs traced; the first ``paired`` ops also run untraced,
    alternating which goes first, to measure the tracing overhead."""
    tracer = Tracer()
    self_ns: Counter[str] = Counter()
    plain_ns = paired_traced_ns = 0.0
    failed = 0
    bits = 0
    for index, op in enumerate(ops):
        modes = (True,) if index >= paired else (index % 2 == 1, index % 2 == 0)
        for traced in modes:
            if traced:
                spans_before = Counter(tracer.self_ns)
                rc, stdout, ns, scaled = calibrated(lambda: traced_call(tracer, op.argv))
                for layer, spent in (tracer.self_ns - spans_before).items():
                    self_ns[layer] += spent * scaled / ns
                if index < paired:
                    paired_traced_ns += scaled
                bits = max(bits, gate.max_bits(stdout))
            else:
                rc, stdout, ns, scaled = calibrated(lambda: tropmean_main(op.argv))
                plain_ns += scaled
            failed += not gate_op(op, rc, stdout)
    if tracer.missing:
        print("tracer: not found, layers read zero: " + ", ".join(tracer.missing), file=sys.stderr)
    return failed, layer_metrics(tracer, self_ns, plain_ns / paired_traced_ns, bits)


def layer_metrics(tracer: Tracer, self_ns: Counter[str], overhead_ratio: float, bits: int) -> dict:
    """Per-layer metrics; every ``*_s`` is a self time in ``self_ns`` summed
    over the run."""
    calls, counts = tracer.calls, tracer.counts
    seconds = lambda layer: (self_ns[layer] / 1e9, "s")
    count = lambda value: (value, "count")
    ratio = lambda num, den: (num / den if den else 0.0, "ratio")
    metrics = {
        "qp.minimize_s": seconds("qp.minimize"),
        "qp.calls": count(calls["qp.minimize"]),
        "qp.rows": count(counts["qp.minimize.rows"]),
        "qp.nullspace_calls": count(counts["qp.nullspace_calls"]),
        "frechet.greedy_s": seconds("frechet.greedy"),
        "frechet.greedy_calls": count(calls["frechet.greedy"]),
        "frechet.exact_self_s": seconds("frechet.exact"),
        "frechet.ladder_solves": count(counts["frechet.ladder_solves"]),
        "frechet.fm_polytrope_s": seconds("frechet.fm_polytrope"),
    }
    for route in ROUTES:
        metrics[f"frechet.route_{route}"] = count(tracer.routes[route])
    metrics.update(
        {
            "certify.find_s": seconds("certify.find"),
            "certify.find_calls": count(calls["certify.find"]),
            "certify.find_yield": ratio(counts["certify.find.certified"], calls["certify.find"]),
            "certify.verify_s": seconds("certify.verify"),
            "simplex.cert_lp_s": seconds("simplex.cert_lp"),
            "simplex.cert_lp_calls": count(calls["simplex.cert_lp"]),
            "simplex.cert_lp_cells": count(counts["simplex.cert_lp.cells"]),
            "simplex.extreme_lp_s": seconds("simplex.extreme_lp"),
            "simplex.extreme_lp_calls": count(calls["simplex.extreme_lp"]),
            "simplex.extreme_lp_cells": count(counts["simplex.extreme_lp.cells"]),
            "polytrope.kleene_star_s": seconds("polytrope.kleene_star"),
            "polytrope.tropical_vertices_s": seconds("polytrope.tropical_vertices"),
            "polytrope.pseudovertices_s": seconds("polytrope.pseudovertices"),
            "polytrope.pseudovertex_yield": ratio(
                counts["polytrope.pseudovertices.out"], calls["simplex.extreme_lp"]
            ),
            "serialize.load_points_s": seconds("serialize.load_points"),
            "serialize.result_to_json_s": seconds("serialize.result_to_json"),
            "cli.self_s": seconds("cli"),
            "oracle.calls": count(calls["oracle"]),
            "output.max_bits": (bits, "bits"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for everything timed: the speed modes are per CPU, and the
    # calibration kernel must run where the ops and the fresh interpreters do.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    rounds = workloads.rounds_for(workload, args.seconds)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        ops = build_ops(workload, args.seed, rounds, Path(tmp))
        warm = next(op for op in ops if op.cell == workload.cells[0])
        execute(lambda: tropmean_main(warm.argv))  # warm-up on the cheapest cell, untimed
        started = time.perf_counter()
        if args.trace:
            paired = len(workload.cells)
            failed, metrics = traced_run(ops, paired)
            attempted = len(ops) + paired
        else:
            failed, metrics = plain_run(ops)
            metrics["setup_s"] = (measure_setup(), "s")
            attempted = len(ops)
        elapsed = time.perf_counter() - started
    print(
        f"{workload.name} seed {args.seed}: {rounds} rounds, {attempted} ops, {elapsed:.1f} s",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
