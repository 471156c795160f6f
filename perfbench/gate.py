"""Exactness gate: checks one command output, outside the timed region.

A ``mean`` output passes when the command exited 0 with ``"exact": true``,
its certificate read back from JSON passes ``verify_certificate``,
``c_star == min_sum == objective(mean)``, the mean lies in its
``fm_polytrope``, and the digest of the route-invariant fields matches the
reference.  The mean and the certificate weights are not pinned: any point
of the mean polytrope is a correct answer.  A ``polytrope`` output passes
when the command exited 0 and the digest of its whole stdout matches.
"""

from __future__ import annotations

import hashlib
import json
import re

import workloads  # noqa: F401  (puts the checkout's src on sys.path)
from tropmean import SampleSet, TropmeanError, membership, objective, verify_certificate
from tropmean.serialize import certificate_from_json, matrix_from_json, parse_rational

ROUTE_INVARIANT = ("distances", "min_sum", "fm_polytrope", "tropical_vertices", "pseudovertices")

_INTEGER = re.compile(r"\d+")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def route_invariant_digest(doc: dict) -> str:
    """Digest of the fields every correct route must reproduce bit for bit."""
    fields = {key: doc[key] for key in ROUTE_INVARIANT}
    return digest(json.dumps(fields, sort_keys=True, separators=(",", ":")))


def check_mean(sample: SampleSet, rc: object, stdout: str, expected: str) -> str | None:
    """None when the ``mean`` output is correct, else what is wrong with it."""
    if rc != 0:
        return f"exit code {rc!r}"
    try:
        doc = json.loads(stdout)
        if doc["exact"] is not True:
            return "result is not exact"
        cert = certificate_from_json(doc["certificate"], sample)
        if not verify_certificate(sample, cert):
            return "certificate fails verification"
        mean = [parse_rational(v) for v in doc["mean"]]
        min_sum = parse_rational(doc["min_sum"])
        if not cert.c_star == min_sum == objective(sample, mean):
            return "c_star, min_sum and objective(mean) disagree"
        if not membership(matrix_from_json(doc["fm_polytrope"]), mean):
            return "mean lies outside fm_polytrope"
        if route_invariant_digest(doc) != expected:
            return "route-invariant fields differ from the reference"
    except (KeyError, TypeError, ValueError, TropmeanError) as exc:
        return f"malformed output: {exc!r}"
    return None


def check_polytrope(rc: object, stdout: str, expected: str) -> str | None:
    """None when the ``polytrope`` output is correct, else what is wrong."""
    if rc != 0:
        return f"exit code {rc!r}"
    if digest(stdout) != expected:
        return "stdout differs from the reference"
    return None


def max_bits(stdout: str) -> int:
    """Largest numerator or denominator bit length in an output."""
    return max((int(tok).bit_length() for tok in _INTEGER.findall(stdout)), default=0)
