"""Exception types shared across the package."""


class OrliczvalError(Exception):
    """Base class for all package-specific errors."""


class DomainError(OrliczvalError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidDensityError(OrliczvalError, ValueError):
    """A sampled density violates the structural requirements."""


class DensityResolutionError(OrliczvalError):
    """A sampled density is too coarse to support the requested operation."""


class BracketError(OrliczvalError):
    """A root or minimum could not be bracketed; carries diagnostics."""


class AccuracyError(OrliczvalError):
    """A quadrature failed to meet the requested tolerance."""


class DisjointnessError(OrliczvalError, ValueError):
    """Regions declared disjoint were found to overlap."""


class CapabilityError(OrliczvalError, NotImplementedError):
    """An exact algorithm is not available for this combination of inputs.

    Where an estimation fallback exists, the message names it.
    """


class WitnessNotFoundError(OrliczvalError):
    """A required witness value could not be located on the search grid."""


class ConstructionError(OrliczvalError):
    """An iterative geometric construction ran out of admissible choices."""
