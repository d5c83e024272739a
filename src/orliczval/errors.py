"""Exception types shared across the package."""


class OrliczvalError(Exception):
    """Base class for all package-specific errors."""


class DomainError(OrliczvalError, ValueError):
    """An argument outside an operation's domain: a gauge or composer
    parameter out of range, or a malformed ``(m, 2)`` sample table."""


class BracketError(OrliczvalError):
    """A root or minimum could not be bracketed; carries diagnostics."""


class AccuracyError(OrliczvalError):
    """A quadrature failed to meet the requested tolerance."""


class DisjointnessError(OrliczvalError, ValueError):
    """Regions declared disjoint were found to overlap."""


class CapabilityError(OrliczvalError, NotImplementedError):
    """An exact algorithm is not available for this combination of inputs.

    Where an estimation fallback exists, the message names it.  A density
    with a flat segment has an exact conjugate that no sample table carries.
    """


class WitnessNotFoundError(OrliczvalError):
    """A required witness value could not be located on the search grid."""


class ConstructionError(OrliczvalError):
    """An iterative geometric construction ran out of admissible choices."""
