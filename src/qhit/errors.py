"""Exception types shared across the package."""


class QhitError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QhitError, ValueError):
    """Input fails a structural precondition (trace preservation, density, support...)."""


class DimensionError(ValidationError):
    """Shapes of the operands do not match the operation."""


class SpectralObstructionError(QhitError, ArithmeticError):
    """A required resolvent does not exist because 1 (or z^-1) lies in the spectrum.

    Carries the offending eigenvalues in ``eigenvalues``.
    """

    def __init__(self, message, eigenvalues=()):
        super().__init__(message)
        self.eigenvalues = list(eigenvalues)


class NotIrreducibleError(QhitError, ValueError):
    """An operation that requires an irreducible map received a reducible one."""


class NoGroupInverseError(QhitError, ArithmeticError):
    """The group inverse does not exist (matrix index exceeds 1)."""


class NumericalError(QhitError, ArithmeticError):
    """A numerical procedure failed to converge or produced inconsistent results."""
