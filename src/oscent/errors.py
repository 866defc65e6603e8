"""Exception types shared across the package.

Each class names one failure mode of the numerical contracts and derives
from one of two bases: OscentInputError (the input is invalid; the CLI
exits 2) or OscentNumericalError (a computation failed; the CLI exits 3).
Each also keeps a builtin base (ValueError / RuntimeError / IndexError), so
callers can catch the narrow type, its base, or the builtin.
"""


class OscentInputError(Exception):
    """Invalid input: parameters, files, indices or orders out of domain."""


class OscentNumericalError(Exception):
    """A computation on valid input failed numerically."""


class AsymmetricInputError(ValueError, OscentNumericalError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class NoConvergenceError(RuntimeError, OscentNumericalError):
    """An iterative routine exhausted its iteration budget."""


class NotPositiveDefiniteError(ValueError, OscentNumericalError):
    """A matrix that must be positive definite has a non-positive eigenvalue."""


class UnpairedSpectrumError(RuntimeError, OscentNumericalError):
    """Symplectic eigenvalues failed to group into the expected pairs."""


class InvalidModelError(ValueError, OscentInputError):
    """Model parameters or a model file violate the model's constraints."""


class UnstableSystemError(ValueError, OscentNumericalError):
    """The potential-minus-squared-coupling matrix is not positive definite."""


class DegenerateParametersError(ValueError, OscentNumericalError):
    """Closed-form angle formulas are undefined for these parameters."""


class IndexOutOfRangeError(IndexError, OscentInputError):
    """An oscillator index lies outside the system."""


class EmptySubsystemError(ValueError, OscentInputError):
    """A subsystem selection contains no oscillators."""


class CrossBlockNotZeroError(ValueError, OscentNumericalError):
    """The position-momentum cross block is neither zero nor a local shear."""


class SubHeisenbergError(ValueError, OscentNumericalError):
    """A normalized symplectic eigenvalue lies below the 1/2 floor, or a
    width handed to an entropy is NaN or infinite."""


class AlphaOutOfDomainError(ValueError, OscentInputError):
    """An entropy order alpha lies outside (0, inf) \\ {1}."""


class SingularMatrixError(ValueError, OscentNumericalError):
    """A determinant-based formula received a singular matrix."""


class ComplexEigenvalueError(RuntimeError, OscentNumericalError):
    """Eigenvalues expected on the real or imaginary axis have drifted off it."""


class OverlappingGroupsError(ValueError, OscentInputError):
    """The two groups of a bipartition share an oscillator."""


class DegenerateDesignError(ValueError, OscentNumericalError):
    """A regression abscissa carries no variance; the fit is unidentifiable."""
