"""Exception types raised by the library."""


class DegintError(Exception):
    """Base class for all library errors."""


class NonFiniteMatrixError(DegintError):
    """A matrix, or a value computed from one, has NaN or Inf entries."""


class MatrixOverflowError(DegintError):
    """The matrix exponential overflowed; the input norm is too extreme."""


class FactorizationNotDefined(DegintError):
    """A pivot minor vanished; the point is off the factorizable open subset."""


class NearDegenerateSpectrum(DegintError):
    """Eigenvalue gap below threshold; spectral data would be unreliable."""


class SingularChartPoint(DegintError):
    """The point sits on the singular locus of the chart (zero coordinate,
    coincident positions, collision radius)."""


class DrawBudgetExceeded(DegintError):
    """A seeded draw tested its budget of candidates and still lacks samples."""


class DimensionMismatch(DegintError):
    """A point or gradient does not match the chart dimension."""


class ConsistencyError(DegintError):
    """Two independently computed routes to the same quantity disagree."""


class ConstraintViolation(DegintError, ValueError):
    """A point breaks a defining constraint of its space: det 1 for a pair
    of group elements, the pairing of the rank-1 class.  Also a ValueError,
    since a constructor given such a point was given a bad value."""
