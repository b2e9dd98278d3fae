"""The package's one exception class, and the parameter checks.

``check_int`` and ``check_real`` are the one place that decides what counts
as an integer or a real parameter: any ``numbers.Integral`` or
``numbers.Real`` except ``bool``, returned as a plain ``int`` (at most
INT64_MAX unless the caller sets another bound) or a finite ``float``.
``check_array`` is the same for vectors and matrices: a numeric (not bool)
array with the expected number of axes, none empty, every entry finite,
returned as a complex128 ``read_only_copy``.  ``check_object`` is the same
for JSON objects: a dict with no unknown key and every required key.  A
failed check raises ValueError with a message that names the parameter.
"""

import math
import numbers

import numpy as np

# Counts, dimensions and degrees fit a signed 64-bit integer, seeds an unsigned one.
INT64_MAX, SEED_MAX = 2**63 - 1, 2**64 - 1


class NumericalError(ArithmeticError):
    """A number the mathematics cannot take: a computed value that is
    non-finite or breaks a proven bound, non-unit norms where unit norms are
    assumed, fewer than two vectors for a coherence, a ratio over all-zero
    vectors, a Gram with a genuinely negative eigenvalue, or an eigensolve
    that fails or breaks a trace identity.  Every other fault in an argument
    or input is a ValueError, a non-square or non-Hermitian Gram included."""


def _shown(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def check_int(name, value, lo, hi=INT64_MAX) -> int:
    """value as an int, if it is an integer (not a bool) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    value = int(value)
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {_shown(value)}")
    return value


def check_real(name, value, lo, hi=math.inf, *, exclusive=False) -> float:
    """value as a finite float, if it is a real number (not a bool) in [lo, hi],
    or in (lo, hi) when exclusive."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int or a Fraction beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite and within float range, got {_shown(value)}")
    if not (lo < number < hi if exclusive else lo <= number <= hi):
        ends = "()" if exclusive else "[]"
        raise ValueError(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {number!r}")
    return number


def check_object(name, doc, required, optional=()):
    """Raise ValueError unless doc is a dict whose keys are all in required or
    optional and include every key of required."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = set(doc).difference(required, optional)
    if unknown:
        raise ValueError(f"unknown keys in {name}: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{name} missing {key!r}")


def read_only_copy(array: np.ndarray) -> np.ndarray:
    """A C-order copy of a non-empty array over an immutable bytes buffer:
    neither it, nor its base, nor any view of it can be made writeable."""
    return np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)


def check_array(name, value, ndim) -> np.ndarray:
    """value as a read_only_copy in complex128, if its entries are integers,
    reals or complex numbers (not bools, strings or objects), it has ndim
    axes, none of them empty, and every entry is finite."""
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
    return read_only_copy(array)
