"""Exact tropical Fréchet means, mean polytropes and optimality certificates.

Everything is computed in rational arithmetic: distances, means, polytrope
descriptions and certificates are exact values, never floating point
approximations.
"""

from .certify import (
    Certificate,
    QuadraticPiece,
    active_pieces,
    min_quadratic,
    verify_certificate,
)
from .core import (
    Rational,
    SampleSet,
    TorusPoint,
    as_rational,
    canonicalize,
    trop_add,
    trop_dist,
    trop_scale,
)
from .errors import (
    BudgetExceeded,
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
    ball_to_polytrope,
    intersect,
    kleene_star,
    membership,
    pseudovertices,
    segment_breakpoints,
    tropical_vertices,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Certificate",
    "CertificateError",
    "EmptyPolytrope",
    "FrechetResult",
    "InternalError",
    "NEG_INF",
    "NotOptimal",
    "ParseError",
    "PolytropeMatrix",
    "QuadraticPiece",
    "Rational",
    "SampleSet",
    "TorusPoint",
    "TropmeanError",
    "Unbounded",
    "active_pieces",
    "as_rational",
    "ball_to_polytrope",
    "canonicalize",
    "exact_frechet",
    "find_certificate",
    "fm_polytrope",
    "intersect",
    "kleene_star",
    "membership",
    "min_quadratic",
    "objective",
    "pseudovertices",
    "segment_breakpoints",
    "trop_add",
    "trop_dist",
    "trop_scale",
    "tropical_vertices",
    "verify_certificate",
]
