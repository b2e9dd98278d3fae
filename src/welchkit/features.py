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

from .errors import INT64_MAX, check_array, check_int
from .kernels import KernelSpec, VectorSet, inner_table

# Ceiling on monomial basis length.
BASIS_CAP = 10**6


def binomial(a: int, b: int) -> int:
    """Exact C(a, b) for a >= b >= 0; error when past the 64-bit range."""
    a = check_int("binomial a", a, 0)
    b = check_int("binomial b", b, 0, a)
    # C(a, k) >= 2^k for k = min(b, a - b): past the cap without computing it.
    value = math.comb(a, b) if min(b, a - b) < 63 else INT64_MAX + 1
    if value > INT64_MAX:
        raise ValueError(f"C({a}, {b}) exceeds the 64-bit cap")
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


def embedding_dim(spec: KernelSpec, n: int) -> int:
    """Exact feature-space dimension for a polynomial kernel on C^n."""
    if spec.variant == "homogeneous":
        return binomial(n + spec.p - 1, spec.p)
    if spec.variant == "shifted":
        return binomial(n + spec.p, spec.p)
    raise ValueError(
        f"{spec.describe()} has no finite-dimensional exact feature map"
    )


def _embed_rows(rows: np.ndarray, p: int) -> np.ndarray:
    """phi of every row of an (m, n) array, as an (m, C(n+p-1, p)) array.

    Monomials are non-decreasing tuples of p factor indices in lexicographic
    order (x_1^p first, x_n^p last), each gathered for all rows at once:
    m * dim * p entries of memory.
    """
    factors = list(itertools.combinations_with_replacement(range(rows.shape[1]), p))
    try:
        w = np.array([math.sqrt(multinomial(p, Counter(f).values())) for f in factors])
    except OverflowError as exc:
        raise ValueError(
            f"multinomial weights for degree {p} overflow a float"
        ) from exc
    return w * np.prod(rows[:, np.array(factors)], axis=2)


@dataclass(frozen=True)
class FeatureMatrix:
    """D = [phi(x_1) ... phi(x_m)] as columns; D^H D reproduces the Gram."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.array(check_array("feature matrix", self.matrix, 2))
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def feature_dim(self) -> int:
        """Rows of D: C(n+p-1, p), or C(n+p, p) for the shifted kernel."""
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    def reconstructed_gram(self) -> np.ndarray:
        """D^H D, the kernel table this map realizes."""
        return inner_table(self.matrix.T)


def feature_matrix(spec: KernelSpec, vs: VectorSet) -> FeatureMatrix:
    """Embed every vector of the set as a column; polynomial kernels only."""
    size = embedding_dim(spec, vs.n)
    rows = vs.vectors
    if spec.variant == "shifted":
        rows = np.concatenate([rows, np.full((vs.m, 1), math.sqrt(spec.c))], axis=1)
    if size > BASIS_CAP:  # before allocating the basis
        raise ValueError(
            f"monomial basis for n={rows.shape[1]}, p={spec.p} has {size} elements, "
            f"cap is {BASIS_CAP}"
        )
    return FeatureMatrix(matrix=_embed_rows(rows, spec.p).T)
