"""Exception types shared across the package."""


class TropmeanError(Exception):
    """Base class for all package-specific errors."""


class ParseError(TropmeanError):
    """Raised when an input document (JSON, CSV, rational literal) is malformed."""


class EmptyPolytrope(TropmeanError):
    """Raised when a constraint matrix describes an empty region.

    Detected during max-plus closure: a strictly positive diagonal entry
    means some cyclic chain of constraints forces x_i - x_i > 0.
    """


class Unbounded(TropmeanError):
    """Raised when an operation requires a bounded polytrope but the
    closure contains -inf entries, i.e. some difference x_i - x_j is
    unconstrained below."""


class NotOptimal(TropmeanError):
    """Raised when the queried point is not a minimizer of the summed squared
    distances, or when no mean of the sample could be certified."""


class CertificateError(TropmeanError, ValueError):
    """Raised when a certificate is malformed: pieces that do not fit the
    sample, or weights that are not convex.  Also a ValueError."""


class InternalError(TropmeanError):
    """Raised when the exact solve cannot finish: an invariant the
    mathematics guarantees fails to hold, which means a bug in this package
    rather than bad input, or the QP reaches its iteration cap.  A check
    that raises it stays in force under ``python -O``, unlike an assert."""
