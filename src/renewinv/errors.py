"""Exception types shared across the package."""


class RenewinvError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RenewinvError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AdmissibilityError(RenewinvError, ValueError):
    """The model violates a hypothesis required for the requested computation.

    Raised e.g. when a gamma-mixture shape parameter is below 1 (the error
    bounds need every shape >= 1) or when the loading factor breaks the
    net-profit condition 0 < phi < 1.
    """


class SingularityError(RenewinvError, ArithmeticError):
    """Transform evaluated at or below the defective-equation singularity."""


class NegativeWeightError(RenewinvError, ArithmeticError):
    """A lattice probability weight lies materially below zero.

    Raised by :class:`~renewinv.compound.LatticePMF` for a weight below
    -1e-12; negatives above that are rounding and are clamped to zero.
    """
