"""Exact tropical Fréchet means, mean polytropes and optimality certificates.

Everything is computed in rational arithmetic: distances, means, polytrope
descriptions and certificates are exact values, never floating point
approximations.
"""

from .certify import Certificate, verify_certificate
from .core import (
    SampleSet,
    TorusPoint,
    as_rational,
    canonicalize,
    trop_dist,
)
from .errors import (
    CertificateError,
    EmptyPolytrope,
    InternalError,
    NotOptimal,
    ParseError,
    TropmeanError,
    Unbounded,
)
from .frechet import (
    FrechetResult,
    exact_frechet,
    find_certificate,
    fm_polytrope,
    objective,
)
from .polytrope import (
    NEG_INF,
    PolytropeMatrix,
    kleene_star,
    membership,
    pseudovertices,
    tropical_vertices,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateError",
    "EmptyPolytrope",
    "FrechetResult",
    "InternalError",
    "NEG_INF",
    "NotOptimal",
    "ParseError",
    "PolytropeMatrix",
    "SampleSet",
    "TorusPoint",
    "TropmeanError",
    "Unbounded",
    "as_rational",
    "canonicalize",
    "exact_frechet",
    "find_certificate",
    "fm_polytrope",
    "kleene_star",
    "membership",
    "objective",
    "pseudovertices",
    "trop_dist",
    "tropical_vertices",
    "verify_certificate",
]
