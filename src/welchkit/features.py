"""Explicit feature maps for the polynomial kernels.

The homogeneous degree-p kernel <x, y>^p over C^n is realized by the symmetric
tensor embedding: one coordinate per degree-p monomial, weighted by the square
root of its multinomial coefficient, so that

    <phi(x), phi(y)> = <x, y>^p

holds exactly (up to rounding).  The embedding dimension is C(n+p-1, p) --
the minimal exact realization, much smaller than the full n^p tensor power.
The shifted kernel (<x, y> + c)^p is the same map applied to the augmented
vector (x_1, ..., x_n, sqrt(c)), giving dimension C(n+p, p).

phi is applied verbatim to vector entries; all conjugation comes from the
conjugate-linear slot of the ambient inner product.  Each monomial is stored
as its p factor indices, so the feature matrix of a whole set is one gather
of those factors for all vectors at once followed by a product over them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialOverflowError, UnsupportedKernelError
from .kernels import KernelSpec, VectorSet

# Largest admissible binomial coefficient (fits a signed 64-bit integer).
INT_CAP = 2**63 - 1

# Default ceiling on monomial basis length.
BASIS_CAP = 10**6


def binomial(a: int, b: int) -> int:
    """Exact C(a, b) for a >= b >= 0; error when past the 64-bit range."""
    for v in (a, b):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError("binomial arguments must be integers")
    if b < 0 or a < b:
        raise ValueError(f"binomial needs a >= b >= 0, got a={a}, b={b}")
    value = math.comb(a, b)
    if value > INT_CAP:
        raise CombinatorialOverflowError(
            f"C({a}, {b}) = {value} exceeds the 64-bit cap"
        )
    return value


def multinomial(p: int, exponents) -> int:
    """p! / (a_1! ... a_n!) for a multi-index summing to p."""
    coeff = 1
    remaining = p
    for a in exponents:
        coeff *= math.comb(remaining, a)
        remaining -= a
    if remaining != 0:
        raise ValueError("exponents must sum to the degree p")
    return coeff


def _monomial_factors(n: int, p: int, cap: int = BASIS_CAP) -> list[tuple[int, ...]]:
    """Degree-p monomials over n variables, each as its p factor indices.

    Indices are non-decreasing, and the monomials come in the order of
    monomial_basis; exceeding `cap` raises instead of allocating.
    """
    if n < 1 or p < 1:
        raise ValueError("monomial basis needs n >= 1 and p >= 1")
    size = math.comb(n + p - 1, p)
    if size > cap:
        raise CombinatorialOverflowError(
            f"monomial basis for n={n}, p={p} has {size} elements, cap is {cap}"
        )
    return list(itertools.combinations_with_replacement(range(n), p))


def monomial_basis(n: int, p: int, cap: int = BASIS_CAP) -> list[tuple[int, ...]]:
    """All degree-p multi-indices over n variables, graded-lex order.

    Within the single grade p the order is lexicographic descending:
    (p, 0, ..., 0) first, (0, ..., 0, p) last.  Length is C(n+p-1, p);
    exceeding `cap` raises instead of allocating.
    """
    basis = []
    for factors in _monomial_factors(n, p, cap):
        alpha = [0] * n
        for k in factors:
            alpha[k] += 1
        basis.append(tuple(alpha))
    return basis


def embedding_dim(spec: KernelSpec, n: int) -> int:
    """Exact feature-space dimension for a polynomial kernel on C^n."""
    if spec.variant == "homogeneous":
        return binomial(n + spec.p - 1, spec.p)
    if spec.variant == "shifted":
        return binomial(n + spec.p, spec.p)
    raise UnsupportedKernelError(
        f"{spec.describe()} has no finite-dimensional exact feature map"
    )


def _embed_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """phi of every row of an (m, n) array, as an (m, C(n+p-1, p)) array.

    Gathers each monomial's p factors for all rows at once: m * dim * p
    entries of memory.
    """
    factors = _monomial_factors(rows.shape[1], p)
    try:
        w = np.array([math.sqrt(multinomial(p, Counter(f).values())) for f in factors])
    except OverflowError as exc:
        raise CombinatorialOverflowError(
            f"multinomial weights for degree {p} overflow a float"
        ) from exc
    return w * np.prod(rows[:, np.array(factors)], axis=2)


def embed_homogeneous(x, p: int) -> np.ndarray:
    """phi(x) with <phi(x), phi(y)> = <x, y>^p; length C(n+p-1, p)."""
    xv = np.asarray(x, dtype=np.complex128)
    if xv.ndim != 1 or xv.shape[0] < 1:
        raise ValueError("expected a 1-D vector")
    return _embed_rows(xv[np.newaxis, :], p)[0]


def embed_shifted(x, p: int, c: float) -> np.ndarray:
    """phi for the shifted kernel: embed (x, sqrt(c)); length C(n+p, p)."""
    if c < 0:
        raise ValueError("shift c must be >= 0")
    xv = np.asarray(x, dtype=np.complex128)
    if xv.ndim != 1 or xv.shape[0] < 1:
        raise ValueError("expected a 1-D vector")
    augmented = np.concatenate([xv, [math.sqrt(c)]])
    return embed_homogeneous(augmented, p)


@dataclass(frozen=True)
class FeatureMatrix:
    """D = [phi(x_1) ... phi(x_m)] as columns; D^H D reproduces the Gram."""

    matrix: np.ndarray
    kernel: KernelSpec
    ambient_dim: int
    feature_dim: int

    def __post_init__(self):
        a = np.array(self.matrix, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != self.feature_dim:
            raise ValueError("feature matrix rows must equal feature_dim")
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    def reconstructed_gram(self) -> np.ndarray:
        """D^H D, the kernel table this map realizes."""
        return self.matrix.conj().T @ self.matrix


def feature_matrix(spec: KernelSpec, vs: VectorSet) -> FeatureMatrix:
    """Embed every vector of the set as a column; polynomial kernels only."""
    if not spec.is_polynomial:
        raise UnsupportedKernelError(
            f"{spec.describe()} has no finite-dimensional exact feature map"
        )
    if spec.variant == "shifted":
        rows = np.concatenate(
            [vs.vectors, np.full((vs.m, 1), math.sqrt(spec.c))], axis=1
        )
    else:
        rows = vs.vectors
    d = _embed_rows(rows, spec.p).T
    return FeatureMatrix(
        matrix=d,
        kernel=spec,
        ambient_dim=vs.n,
        feature_dim=d.shape[0],
    )
