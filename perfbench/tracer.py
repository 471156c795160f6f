"""Per-layer tracing from outside the program.

The tracer replaces the public functions each layer calls at the module
attribute where the caller looks them up, and restores them afterwards;
nothing under ``src/`` knows about it.  A span wrapper records its call and
its self time, the part of its duration not covered by nested spans; a
counter wrapper only counts calls.  Times are summed per layer, so the
``*_s`` metrics are disjoint and add up to the traced op time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Any, Callable

Hook = Callable[[tuple, Any], dict[str, int]]


def _lp_cells(args: tuple, result: Any) -> dict[str, int]:
    a = args[0]
    return {"cells": len(a) * len(a[0]) if a else 0}


def _qp_rows(args: tuple, result: Any) -> dict[str, int]:
    return {"rows": len(args[2])}


def _pseudovertex_count(args: tuple, result: Any) -> dict[str, int]:
    return {"out": len(result)}


def _certified(args: tuple, result: Any) -> dict[str, int]:
    return {"certified": 1}  # hooks run only on return, not on NotOptimal


# (module, attribute, layer, hook).  A span layer with no hook only times;
# a layer named "count:<key>" only counts calls.  Attributes a later version
# of the program no longer has are skipped, and their layers read zero.
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("tropmean.cli", "exact_frechet", "frechet.exact", None),
    ("tropmean.frechet", "greedy_frechet", "frechet.greedy", None),
    ("tropmean.cli", "greedy_frechet", "frechet.greedy", None),
    ("tropmean.frechet", "fm_polytrope", "frechet.fm_polytrope", None),
    ("tropmean.cli", "fm_polytrope", "frechet.fm_polytrope", None),
    ("tropmean.frechet", "solve_affine", "count:frechet.ladder_solves", None),
    ("tropmean.frechet", "minimize_qp", "qp.minimize", _qp_rows),
    ("tropmean.qp", "nullspace", "count:qp.nullspace_calls", None),
    ("tropmean.frechet", "find_certificate", "certify.find", _certified),
    ("tropmean.cli", "find_certificate", "certify.find", _certified),
    ("tropmean.frechet", "verify_certificate", "certify.verify", None),
    ("tropmean.cli", "verify_certificate", "certify.verify", None),
    ("tropmean.certify", "feasible_point", "simplex.cert_lp", _lp_cells),
    ("tropmean.polytrope", "feasible_point", "simplex.extreme_lp", _lp_cells),
    ("tropmean.polytrope", "kleene_star", "polytrope.kleene_star", None),
    ("tropmean.cli", "kleene_star", "polytrope.kleene_star", None),
    ("tropmean.polytrope", "tropical_vertices", "polytrope.tropical_vertices", None),
    ("tropmean.cli", "tropical_vertices", "polytrope.tropical_vertices", None),
    ("tropmean.polytrope", "pseudovertices", "polytrope.pseudovertices", _pseudovertex_count),
    ("tropmean.cli", "pseudovertices", "polytrope.pseudovertices", _pseudovertex_count),
    ("tropmean.oracle", "brute_force_frechet", "oracle", None),
    ("tropmean.cli", "load_points", "serialize.load_points", None),
    ("tropmean.cli", "result_to_json", "serialize.result_to_json", None),
)

ROUTES = ("greedy", "ladder", "qp", "oracle")


class Tracer:
    """Spans and counts of the ops run between ``install`` and ``uninstall``."""

    def __init__(self) -> None:
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.routes: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        self.missing = []
        for module_name, attr, layer, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            if layer.startswith("count:"):
                wrapper = self._counter(layer[len("count:"):], original)
            else:
                wrapper = self._span(layer, original, hook)
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def run_op(self, fn: Callable[[], Any]) -> Any:
        """Run one op under a root span ``cli`` and record its route."""
        calls_before, counts_before = Counter(self.calls), Counter(self.counts)
        result = self._span("cli", fn, None)()
        calls = self.calls - calls_before
        certified = self.counts["certify.find.certified"] - counts_before["certify.find.certified"]
        if calls["frechet.exact"]:
            if calls["oracle"]:
                route = "oracle"
            elif calls["qp.minimize"]:
                route = "qp"
            elif calls["certify.find"] == 1 and certified:
                route = "greedy"
            else:
                route = "ladder"
            self.routes[route] += 1
        return result

    def _counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, layer: str, fn: Callable, hook: Hook | None) -> Callable:
        stack = self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, start)
            if hook is not None:
                for key, value in hook(args, result).items():
                    counts[f"{layer}.{key}"] += value
            return result

        return wrapper

    def _close(self, layer: str, start: int) -> None:
        elapsed = time.perf_counter_ns() - start
        child = self._stack.pop()
        self.self_ns[layer] += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed
        self.calls[layer] += 1
