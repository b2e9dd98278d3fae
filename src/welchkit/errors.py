"""Exception types shared across the package, and the parameter checks.

``check_int`` and ``check_real`` are the one place that decides what counts
as an integer or a real parameter: any ``numbers.Integral`` or
``numbers.Real`` except ``bool``, returned as a plain ``int`` (at most
INT64_MAX unless the caller sets another bound) or a finite ``float``.
``check_array`` is the same for vectors and matrices: a numeric (not bool)
array, returned as complex128, with the expected number of axes, none
empty, every entry finite.
"""

import math
import numbers

import numpy as np

# Counts, dimensions and degrees fit a signed 64-bit integer.
INT64_MAX = 2**63 - 1


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


def _shown(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def check_int(name, value, lo, hi=INT64_MAX, error=ValueError) -> int:
    """value as an int, if it is an integer (not a bool) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {_shown(value)}")
    value = int(value)
    if not lo <= value <= hi:
        raise error(f"{name} must be an integer in [{lo}, {hi}], got {_shown(value)}")
    return value


def check_real(
    name, value, lo, hi=math.inf, *, exclusive=False, error=ValueError
) -> float:
    """value as a finite float, if it is a real number (not a bool) in [lo, hi],
    or in (lo, hi) when exclusive."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int or a Fraction beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {_shown(value)}")
    if not (lo < number < hi if exclusive else lo <= number <= hi):
        ends = "()" if exclusive else "[]"
        raise error(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {number!r}")
    return number


def check_array(name, value, ndim) -> np.ndarray:
    """value as a complex128 array (no copy if it already is one), if its
    entries are integers, reals or complex numbers (not bools, strings or
    objects), it has ndim axes, none of them empty, and every entry is finite."""
    try:
        array = np.asarray(value)
    except TypeError as exc:  # ValueError already covers ragged lists
        raise ValueError(f"{name} must be numeric: {exc}") from None
    if array.dtype.kind not in "iufc":
        raise ValueError(f"{name} must be numeric, got dtype {array.dtype}")
    array = array.astype(np.complex128, copy=False)
    if array.ndim != ndim or 0 in array.shape:
        raise ValueError(
            f"{name} must be a {ndim}-D array with no empty axis, got shape {array.shape}"
        )
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} entries must be finite")
    return array
