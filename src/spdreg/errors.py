"""Exception types shared across the package.

``ConfigError`` marks invalid user input (CLI exit code 2); everything
deriving from ``NumericalError`` marks a failure of a numerical
precondition or algorithm (CLI exit code 3).
"""


class SpdregError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SpdregError):
    """Invalid configuration, file format, or command-line input."""


class NumericalError(SpdregError):
    """Base class for numerical-domain failures."""


class NumericalFailure(NumericalError):
    """An iterative kernel (eigensolver, SVD) failed to converge."""


class SingularMatrix(NumericalError):
    """A full-rank SPD matrix was required but the input is singular."""

    def __init__(self, message, smallest_eigenvalue=None):
        if smallest_eigenvalue is not None:
            message = f"{message} (smallest eigenvalue {smallest_eigenvalue:.3e})"
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class SampleError(NumericalError):
    """A failure that may name one matrix of a stack by its index ``sample``."""

    def __init__(self, message, sample=None):
        super().__init__(message if sample is None else f"sample {sample}: {message}")
        self.detail, self.sample = message, sample


class NotPSD(SampleError):
    """A PSD matrix was required but a clearly negative eigenvalue was found."""


class RankMismatch(SampleError):
    """A Wasserstein rank its use cannot take: a sample of higher numerical
    rank than the reference it is embedded at, or a reference of rank 0."""


class RankTooLarge(NumericalError):
    """Requested number of components exceeds the available rank."""


class DimensionMismatch(NumericalError):
    """Operands have incompatible shapes."""


class NonPositiveDiagonal(NumericalError):
    """Log-diagonal features need strictly positive diagonal entries."""


class DegenerateDesign(NumericalError):
    """Regression design carries no usable variance."""


class NoConvergence(NumericalError):
    """An iterative mean solver hit its iteration budget."""

    def __init__(self, message, gradient_norm=None, iterations=None):
        if gradient_norm is not None:
            message = f"{message} (gradient norm {gradient_norm:.3e} after {iterations} iterations)"
        super().__init__(message)
        self.gradient_norm = gradient_norm
        self.iterations = iterations
