"""Exception types shared across the library."""


class HilbertConeError(ValueError):
    """Base class for all library errors."""


class DimensionError(HilbertConeError):
    """Operands have incompatible lengths or shapes."""


class ValidationError(HilbertConeError):
    """Input violates a structural invariant (negative weight, ragged array, ...)."""


class DomainError(HilbertConeError):
    """Input is outside the mathematical domain of the operation."""


class UnsupportedDimensionError(DomainError):
    """Operation is only defined for a specific dimension (e.g. tiling on S^2)."""


class CoordinateRangeError(DomainError):
    """Log-space coordinates spread too far to be mapped back to the simplex."""


class CertificationError(HilbertConeError):
    """A certificate the library asserts about its own result failed to hold."""
