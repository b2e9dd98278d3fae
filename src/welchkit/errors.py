"""Exception types shared across the package."""


class WelchKitError(Exception):
    """Base class for all welchkit errors; exit_code is the `welch` exit status."""
    exit_code = 4


class NotSquareError(WelchKitError):
    """Operation requires a square matrix."""


class NotHermitianError(WelchKitError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NoConvergenceError(WelchKitError):
    """Eigensolver hit its iteration cap, or a post-hoc spectral identity failed."""


class NotPSDError(WelchKitError):
    """Matrix claimed positive semidefinite has an eigenvalue below -tol."""


class DimensionMismatchError(WelchKitError):
    """Vectors of unequal length fed to a pairwise operation."""
    exit_code = 2


class TooFewVectorsError(WelchKitError):
    """Coherence-type quantities need at least two vectors."""


class NotUnitNormError(WelchKitError):
    """Operation assumes unit-norm vectors and the input is not."""


class AllZeroVectorsError(WelchKitError):
    """Normalized ratio is undefined when every vector is zero."""


class UnsupportedKernelError(WelchKitError):
    """Requested operation is only defined for polynomial kernels."""
    exit_code = 2


class CombinatorialOverflowError(WelchKitError):
    """Binomial coefficient or monomial basis exceeds the configured cap."""
    exit_code = 2


class InvalidConfigError(WelchKitError):
    """Optimizer or run configuration fails validation."""
    exit_code = 2


class InvalidScanError(WelchKitError):
    """Rank scan parameters cannot exercise the dimension ceilings."""
    exit_code = 2


class NumericalError(WelchKitError):
    """A computed value is non-finite or breaks a proven bound."""
