"""Kernel catalogue and Gram matrix construction.

A ``VectorSet`` holds m vectors of C^n as the rows of an (m, n) complex128
array.  ``KernelSpec`` names one of the supported positive-semidefinite
kernels (homogeneous polynomial, shifted polynomial, Gaussian).
``inner_table`` is the one place the pairwise inner products
T[i, j] = <x_i, x_j> are computed, and ``power_sum`` the one place a table
is reduced to sum_ij |T[i, j]|^(2p); ``gram_matrix`` maps T elementwise
(T**p, (T + c)**p), except for the Gaussian kernel, which uses direct
differences x_i - x_j over blocks of rows.  The upper triangle is then mirrored
into the lower one with a real diagonal, so the Gram is exactly Hermitian.

Inner-product convention, used everywhere in this package: conjugate-linear
in the FIRST argument, <x, y> = x^H y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_array, check_int, check_real
from .linalg import EigenSpectrum, clamp_psd, hermitian_eigenvalues

_FIELDS = ("real", "complex")


@dataclass(frozen=True)
class VectorSet:
    """m vectors in C^n, stored as rows of an (m, n) complex128 array.

    field tags the intended scalar field: when it is "real" every imaginary
    part must be exactly zero.
    """

    vectors: np.ndarray
    field: str = "complex"

    def __post_init__(self):
        # A copy of its own, so freezing it never freezes the caller's array.
        arr = np.array(check_array("vectors", self.vectors, 2))
        if self.field not in _FIELDS:
            raise ValueError(f"field must be one of {_FIELDS}, got {self.field!r}")
        if self.field == "real" and np.any(arr.imag != 0.0):
            raise ValueError("field='real' requires exactly zero imaginary parts")
        arr.flags.writeable = False
        object.__setattr__(self, "vectors", arr)

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    def norms(self) -> np.ndarray:
        """Euclidean norm of each vector, as a length-m float array."""
        return np.sqrt(np.sum(self.vectors.real**2 + self.vectors.imag**2, axis=1))


@dataclass(frozen=True)
class KernelSpec:
    """One of the supported PSD kernels.

    variant "homogeneous": k(x, y) = <x, y>^p            (p >= 1)
    variant "shifted":     k(x, y) = (<x, y> + c)^p      (p >= 1, c >= 0)
    variant "gaussian":    k(x, y) = exp(-gamma |x-y|^2) (gamma > 0)

    The parameter ranges guarantee positive semidefiniteness.  Unused
    parameters stay None; the others are checked by errors.check_int and
    errors.check_real and stored as int and float.  A shifted kernel's absent
    c (None) is 0.
    """

    variant: str
    p: int | None = None
    c: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.variant in ("homogeneous", "shifted"):
            object.__setattr__(self, "p", check_int("kernel degree p", self.p, 1))
            if self.gamma is not None:
                raise ValueError("gamma is only meaningful for the gaussian kernel")
            if self.variant == "homogeneous":
                if self.c is not None:
                    raise ValueError("homogeneous kernel takes no shift c")
            else:
                c = 0.0 if self.c is None else self.c
                c = check_real("shift c (kernel parameter c)", c, 0)
                object.__setattr__(self, "c", c)
        elif self.variant == "gaussian":
            if self.p is not None or self.c is not None:
                raise ValueError("gaussian kernel takes only gamma")
            g = check_real("kernel parameter gamma", self.gamma, 0, exclusive=True)
            object.__setattr__(self, "gamma", g)
        else:
            raise ValueError(f"unknown kernel variant {self.variant!r}")

    @classmethod
    def homogeneous(cls, p: int) -> "KernelSpec":
        return cls("homogeneous", p=p)

    @classmethod
    def shifted(cls, p: int, c: float | None) -> "KernelSpec":
        return cls("shifted", p=p, c=c)

    @classmethod
    def gaussian(cls, gamma: float) -> "KernelSpec":
        return cls("gaussian", gamma=gamma)

    @property
    def is_polynomial(self) -> bool:
        return self.variant in ("homogeneous", "shifted")

    def describe(self) -> str:
        if self.variant == "homogeneous":
            return f"homogeneous p={self.p}"
        if self.variant == "shifted":
            return f"shifted p={self.p} c={self.c:g}"
        return f"gaussian gamma={self.gamma:g}"


@dataclass(frozen=True)
class GramMatrix:
    """Kernel table G[i, j] = k(x_i, x_j).

    The one check on a Gram: a finite, square, exactly Hermitian matrix
    (G == G^H bit for bit, so its diagonal is real) with a non-negative
    diagonal, else ValueError; the eigensolve relies on it.  Each spectrum()
    call eigensolves the matrix afresh and certifies the result PSD (small
    negatives clamped, genuine ones rejected); callers ask for it once.
    """

    matrix: np.ndarray
    kernel: KernelSpec

    def __post_init__(self):
        a = np.array(check_array("Gram matrix", self.matrix, 2))
        if a.shape[0] != a.shape[1]:
            raise ValueError("Gram matrix must be square")
        if not np.array_equal(a, a.conj().T):
            raise ValueError("Gram matrix must be exactly Hermitian")
        if np.any(a.diagonal().real < 0.0):
            raise ValueError("Gram diagonal must be non-negative")
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> EigenSpectrum:
        """Eigenvalues (descending), PSD-certified; one eigensolve per call."""
        return clamp_psd(hermitian_eigenvalues(self.matrix))


def inner_table(x: np.ndarray) -> np.ndarray:
    """T[..., i, j] = <x_i, x_j> for the rows of an (..., m, n) array: conj(X) X^T."""
    return np.conj(x) @ np.swapaxes(x, -1, -2)


def power_sum(t: np.ndarray, p: int):
    """sum_ij |t[..., i, j]|^(2p), diagonal included: a float, or per table of a stack."""
    a = np.abs(t)
    a **= 2 * p  # in place: with t alive, at most two table-sized arrays exist
    total = np.add.reduce(a, axis=(-2, -1))
    return float(total) if total.ndim == 0 else total


# Gaussian differences per row block: 2^12 complex entries (64 KiB) stay in cache
# and add nothing to the process's peak memory.
_GAUSSIAN_BLOCK = 2**12


def _gaussian_table(gamma: float, x: np.ndarray) -> np.ndarray:
    """exp(-gamma |x_i - x_j|^2) for all i, j, ones on the diagonal.

    Direct differences, broadcast over row blocks of at most _GAUSSIAN_BLOCK:
    expanding |x_i|^2 + |x_j|^2 - 2 Re T[i, j] cancels badly for long vectors.
    """
    m, n = x.shape
    rows = max(1, _GAUSSIAN_BLOCK // (m * n))
    k = np.empty((m, m))
    for i in range(0, m, rows):
        d = x[None, :, :] - x[i:i + rows, None, :]
        k[i:i + rows] = np.exp(-gamma * np.sum(d.real**2 + d.imag**2, axis=2))
    return k


def gram_matrix(spec: KernelSpec, vs: VectorSet) -> GramMatrix:
    """G[i, j] = k(x_i, x_j): the whole table evaluated, then its strict upper
    triangle kept and conjugate-mirrored into the lower one, diagonal made real."""
    if spec.variant == "gaussian":
        table = _gaussian_table(spec.gamma, vs.vectors)
    elif spec.variant == "homogeneous":
        table = inner_table(vs.vectors) ** spec.p
    else:
        table = (inner_table(vs.vectors) + spec.c) ** spec.p
    upper = np.triu(table, 1)
    g = upper + upper.conj().T
    np.fill_diagonal(g, table.diagonal().real)
    return GramMatrix(matrix=g, kernel=spec)
