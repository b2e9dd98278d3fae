"""Shared helpers for the test suite: random vector sets, unitary maps,
spectra built directly from eigenvalues, and a per-pair kernel oracle."""

import numpy as np

from welchkit.kernels import VectorSet, inner_table, power_sum
from welchkit.linalg import EigenSpectrum


def random_vectors(rng, m, n, field="complex", unit=False):
    """VectorSet with i.i.d. standard Gaussian entries, optionally normalized."""
    if field == "complex":
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    else:
        a = rng.standard_normal((m, n)).astype(np.complex128)
    if unit:
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
    return VectorSet(vectors=a, field=field)


def pair_kernel(spec, x, y) -> complex:
    """k(x, y) for one pair, straight from the definition: np.vdot for <x, y>,
    direct differences for the gaussian.  It reads only the KernelSpec fields,
    so it shares no code with the Gram tables it checks."""
    if spec.variant == "gaussian":
        d = np.subtract(x, y)
        return complex(np.exp(-spec.gamma * np.vdot(d, d).real))
    t = complex(np.vdot(x, y))
    return (t if spec.variant == "homogeneous" else t + spec.c) ** spec.p


def random_unitary(rng, n, reflections=4):
    """Unitary map of C^n composed from random Householder reflections."""
    u = np.eye(n, dtype=np.complex128)
    for _ in range(reflections):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = w / np.linalg.norm(w)
        u = u - 2.0 * np.outer(w, np.conj(w)) @ u
    return u


def apply_map(u, vs):
    """Transform every vector of the set by the matrix u (rows -> u @ row)."""
    return VectorSet(vectors=(u @ vs.vectors.T).T, field="complex")


def diagonal_spectrum(values):
    """EigenSpectrum of the real diagonal matrix with these entries."""
    values = np.asarray(values, dtype=np.float64)
    return EigenSpectrum(
        values, trace=float(np.sum(values)), frobenius_sq=float(np.sum(values**2))
    )


def fd_gradient(x, p, h=1e-6):
    """Central finite differences of the frame potential power_sum(inner_table(x), p)
    over the re/im coordinates of x: the oracle for the analytic gradient."""
    grad = np.zeros_like(x, dtype=np.complex128)
    for i in range(x.shape[0]):
        for k in range(x.shape[1]):
            for unit in (1.0, 1j):
                xp = x.copy()
                xp[i, k] += h * unit
                xm = x.copy()
                xm[i, k] -= h * unit
                fp = power_sum(inner_table(xp), p)
                fm = power_sum(inner_table(xm), p)
                grad[i, k] += (fp - fm) / (2 * h) * unit
    return grad
