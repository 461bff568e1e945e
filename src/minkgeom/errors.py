"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Base class for domain errors raised by this package."""


class DimensionMismatch(GeometryError):
    """Operands live in different dimensions, or a vector has the wrong length."""


class DegenerateBody(GeometryError):
    """A body is lower-dimensional than required (affinely dependent input)."""


class SizeLimitExceeded(GeometryError):
    """A construction exceeds its configured size gate."""


class EmptyIntersection(GeometryError):
    """A cut removed every vertex of the body."""


class UnboundedRegion(GeometryError):
    """An H-polyhedron turned out to be unbounded where a polytope was required."""

    def __init__(self, message, ray=None):
        super().__init__(message)
        self.ray = ray


class OriginNotInterior(GeometryError):
    """The origin is not strictly inside the body (origin-anchored operation)."""

    def __init__(self, message, facet=None):
        super().__init__(message)
        self.facet = facet


class CertificateError(RuntimeError):
    """An internal certificate or invariant check failed: a bug, not an answer.

    Deliberately not a GeometryError, so it can never pass for bad input or
    for a mathematical "no".
    """
