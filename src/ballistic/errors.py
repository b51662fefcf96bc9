"""Exception types shared across the package."""


class BallisticError(Exception):
    """Base class for all package errors."""


class VertexStateError(BallisticError):
    """Operation on a dead or out-of-range vertex."""


class CapacityError(BallisticError):
    """Problem size exceeds a hard bound (oracle qubit count, orbit search, ...)."""


class ShapeError(BallisticError):
    """Dimension mismatch between operands."""


class SpecError(BallisticError):
    """Invalid configuration or wiring specification."""
