"""Dense complex linear algebra primitives: Hermitian eigenvalues, numerical
rank, PSD certification.

The eigensolver takes a matrix that ``kernels.GramMatrix`` has already
checked (complex128, square, finite, exactly Hermitian) and does not check it
again: it is LAPACK ``eigvalsh`` on the matrix as given.  Every returned
spectrum carries the source matrix's Re tr(M) and ||M||_F^2, and is checked
at runtime against the two trace identities sum(sigma_i) = Re tr(M) and
sum(sigma_i^2) = ||M||_F^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, check_real, read_only_copy

# Relative tolerance for the runtime spectral identity checks.
TRACE_IDENTITY_RTOL = 1e-9

# PSD certification floor, relative to the largest eigenvalue.
PSD_RTOL = 1e-9

# Default relative threshold for numerical rank.
RANK_RTOL = 1e-8


@dataclass(frozen=True)
class EigenSpectrum:
    """Real eigenvalues sorted descending, plus bookkeeping.

    values: non-empty 1-D float64 array, non-increasing.
    trace, frobenius_sq: Re tr(M) and ||M||_F^2 of the source matrix M,
        from its entries (not from the eigenvalues).
    clamp_applied: True when small negatives were zeroed by clamp_psd.
    """

    values: np.ndarray
    trace: float
    frobenius_sq: float
    clamp_applied: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if (vals.ndim != 1 or not vals.size or not np.all(np.isfinite(vals))
                or np.any(np.diff(vals) > 0)):
            raise ValueError(
                "spectrum must be a non-empty, non-increasing 1-D array of finite values"
            )
        object.__setattr__(self, "values", read_only_copy(vals))

    @property
    def source_dim(self) -> int:
        """Order of the matrix the spectrum came from."""
        return self.values.shape[0]


def _close_rel(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def hermitian_eigenvalues(a: np.ndarray) -> EigenSpectrum:
    """Eigenvalues of an exactly Hermitian complex128 matrix by LAPACK ``eigvalsh``.

    The argument is not checked: it is a ``GramMatrix``'s matrix.  Returns the
    spectrum sorted descending.  Raises NumericalError if LAPACK fails or the
    trace identities fail afterwards.
    """
    tr_re = float(np.trace(a).real)
    fro_sq = float(np.sum(a.real**2 + a.imag**2))
    try:
        values = np.linalg.eigvalsh(a)[::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK eigvalsh failed: {exc}") from exc

    sum_vals = float(np.sum(values))
    sum_sq = float(np.sum(values**2))
    if not _close_rel(sum_vals, tr_re, TRACE_IDENTITY_RTOL):
        raise NumericalError(
            f"spectral identity failed: sum of eigenvalues {sum_vals!r} vs trace {tr_re!r}"
        )
    if not _close_rel(sum_sq, fro_sq, TRACE_IDENTITY_RTOL):
        raise NumericalError(
            f"spectral identity failed: sum of squares {sum_sq!r} vs "
            f"squared Frobenius norm {fro_sq!r}"
        )
    return EigenSpectrum(values=values, trace=tr_re, frobenius_sq=fro_sq)


def clamp_psd(spectrum: EigenSpectrum) -> EigenSpectrum:
    """Certify a spectrum as PSD, clamping round-off negatives to zero.

    Negatives within PSD_RTOL * sigma_max of zero are zeroed (flagged via
    clamp_applied); anything below that floor raises NumericalError.
    """
    vals = spectrum.values
    sigma_max = float(vals[0])
    floor = PSD_RTOL * max(sigma_max, 0.0)
    min_val = float(vals[-1])
    if min_val < -floor:
        raise NumericalError(
            f"eigenvalue {min_val!r} below PSD floor {-floor!r} "
            f"(sigma_max {sigma_max!r})"
        )
    if min_val < 0.0:
        clamped = np.where(vals < 0.0, 0.0, vals)
        return replace(spectrum, values=clamped, clamp_applied=True)
    return spectrum


def numerical_rank(spectrum: EigenSpectrum, rel_tol: float = RANK_RTOL) -> int:
    """Count eigenvalues with |sigma| > rel_tol * |sigma_1|; the zero matrix has rank 0."""
    rel_tol = check_real("rel_tol", rel_tol, 0)
    vals = spectrum.values
    return int(np.count_nonzero(np.abs(vals) > rel_tol * abs(float(vals[0]))))
