"""Exception taxonomy for the engine."""


class FinslerError(Exception):
    """Base class for all engine errors."""


class ZeroVector(FinslerError):
    """A tangent vector was zero where a nonzero direction is required."""


class OutOfChart(FinslerError):
    """A base point lies outside the chart domain (margins included)."""


class NotPositiveDefinite(FinslerError):
    """The fundamental tensor failed the Cholesky positivity check."""


class SingularMetric(FinslerError):
    """Numerical breakdown while inverting the fundamental tensor."""


class OrderTooHigh(FinslerError):
    """Requested mixed partial exceeds the supported total order."""


class DomainError(FinslerError):
    """Evaluation left the domain of a field or of an operator."""


class DegreeOverflow(FinslerError):
    """Differential of a top-degree form was requested."""


class DegreeUnderflow(FinslerError):
    """Co-differential of a 0-form was requested."""


class DegreeMismatch(FinslerError):
    """Two forms of different degree were combined."""


class GridError(FinslerError):
    """Malformed quadrature grid or non-evaluable integrand."""


class PoleSingularity(FinslerError):
    """Fiber parameterization is degenerate at the requested angles."""


class ConfigError(FinslerError):
    """Malformed scenario document; raised before any computation runs."""


class TaskError(FinslerError):
    """A scenario task failed while executing."""

    def __init__(self, index, message):
        super().__init__(f"task {index}: {message}")
        self.index = index
