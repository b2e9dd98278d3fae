"""Vector-set generators and a frame-potential minimizer.

The potential sum_ij |<x_i, x_j>|^(2p) over unit-norm sets is bounded below
by m^2 / C(n+p-1, p); this module probes how close that bound is to
attainable.  The minimizer is projected gradient descent on the product of
unit spheres with Armijo backtracking: ambient gradient, tangent projection
(radial component removed), step, renormalize.  Randomness comes from the
counter-based Philox generator with one spawned stream per restart, so runs
are reproducible regardless of restart execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import sum_power_lhs, welch_sum_bound
from .errors import InvalidConfigError
from .kernels import VectorSet, inner_table

# Step sizes below this end the line search (stationary at float precision).
_STEP_FLOOR = 1e-18


@dataclass(frozen=True)
class OptimizerConfig:
    """Projected-gradient settings; defaults give reliable descent."""

    p: int
    max_iters: int = 5000
    step_init: float = 0.1
    armijo_c: float = 0.5
    grad_tol: float = 1e-8
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.p, int) or isinstance(self.p, bool) or self.p < 1:
            raise InvalidConfigError("degree p must be an integer >= 1")
        if self.max_iters < 1:
            raise InvalidConfigError("max_iters must be >= 1")
        if not self.step_init > 0:
            raise InvalidConfigError("step_init must be > 0")
        if not 0 < self.armijo_c < 1:
            raise InvalidConfigError("armijo_c must lie strictly in (0, 1)")
        if not self.grad_tol > 0:
            raise InvalidConfigError("grad_tol must be > 0")
        if self.restarts < 1:
            raise InvalidConfigError("restarts must be >= 1")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise InvalidConfigError("seed must be an integer in [0, 2^64)")


@dataclass(frozen=True)
class OptimizeResult:
    """Best restart's outcome: final iterate, objective, bound, and history."""

    vectors: VectorSet
    final_potential: float
    bound: float
    gap: float
    iterations: int
    trajectory: tuple[float, ...]

    def __post_init__(self):
        if self.gap < -1e-9:
            raise ValueError("gap below -1e-9: potential under the proven bound")
        norms = self.vectors.norms()
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("optimizer iterate left the unit spheres")


def random_unit_vectors(
    m: int, n: int, field: str = "complex", seed: int | np.random.SeedSequence = 0
):
    """i.i.d. Gaussian entries normalized to unit rows; Philox-seeded.

    Draw order is fixed (real block first, then the imaginary block for the
    complex field) so a seed pins down the set bit-for-bit.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    re = rng.standard_normal((m, n))
    if field == "complex":
        a = re + 1j * rng.standard_normal((m, n))
    else:
        a = re.astype(np.complex128)
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    return VectorSet(vectors=a, field=field)


def orthonormal_frame(n: int) -> VectorSet:
    """Standard basis of C^n (real entries)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return VectorSet(vectors=np.eye(n), field="real")


def simplex_frame(n: int) -> VectorSet:
    """n+1 unit vectors in R^n with every pairwise inner product -1/n.

    Project the n+1 standard basis vectors of R^(n+1) onto the hyperplane
    orthogonal to the all-ones vector, renormalize, then express them in an
    orthonormal basis of that hyperplane (built from one Householder
    reflection mapping e_1 to the normalized all-ones vector).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    k = n + 1
    u = np.ones(k) / math.sqrt(k)
    w = u - np.eye(k)[:, 0]
    w = w / np.linalg.norm(w)
    house = np.eye(k) - 2.0 * np.outer(w, w)
    # Columns 2..k of the reflection span the all-ones-orthogonal hyperplane.
    basis = house[:, 1:]
    projected = np.eye(k) - np.full((k, k), 1.0 / k)
    rows = projected / np.linalg.norm(projected, axis=1, keepdims=True)
    coords = rows @ basis
    return VectorSet(vectors=coords, field="real")


def frame_potential(vs: VectorSet, p: int) -> float:
    """The optimizer objective; same quantity as the power-sum lhs."""
    return sum_power_lhs(vs, p)


def _potential_raw(x: np.ndarray, p: int) -> float:
    g = inner_table(x)
    return float(np.sum(np.abs(g) ** (2 * p)))


def _gradient_raw(x: np.ndarray, p: int) -> np.ndarray:
    """Ambient gradient of the potential w.r.t. the real parameterization.

    grad_i = 4p sum_j |g_ij|^(2(p-1)) conj(g_ij) x_j, with g_ij = <x_i, x_j>.
    The finite-difference invariant in the tests is the authoritative check
    of this formula.
    """
    g = inner_table(x)
    w = np.abs(g) ** (2 * p - 2) * np.conj(g)
    return 4.0 * p * (w @ x)


def potential_gradient(vs: VectorSet, p: int) -> np.ndarray:
    """Ambient (unconstrained) potential gradient, one row per vector."""
    if p < 1:
        raise ValueError("degree p must be >= 1")
    return _gradient_raw(vs.vectors, p)


def _project_tangent(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Remove each row's radial component (rows of x are unit vectors)."""
    radial = np.sum(np.conj(x) * grad, axis=1).real
    return grad - radial[:, np.newaxis] * x


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _descend(x: np.ndarray, p: int, cfg: OptimizerConfig):
    f = _potential_raw(x, p)
    trajectory = [f]
    for _ in range(cfg.max_iters):
        rgrad = _project_tangent(x, _gradient_raw(x, p))
        gnorm_sq = float(np.sum(rgrad.real**2 + rgrad.imag**2))
        if math.sqrt(gnorm_sq) < cfg.grad_tol:
            break
        step = cfg.step_init
        while True:
            candidate = _normalize_rows(x - step * rgrad)
            fc = _potential_raw(candidate, p)
            if fc <= f - cfg.armijo_c * step * gnorm_sq:
                break
            step *= 0.5
            if step < _STEP_FLOOR:
                candidate = None
                break
        if candidate is None:
            break
        x, f = candidate, fc
        trajectory.append(f)
    return x, f, trajectory


def minimize_frame_potential(m: int, n: int, cfg: OptimizerConfig) -> OptimizeResult:
    """Best-of-restarts projected gradient descent over unit-norm sets.

    Restart streams are spawned from the master seed; the restart with the
    smallest final potential wins, ties going to the lowest restart index.
    """
    if not (m >= n >= 1):
        raise InvalidConfigError(f"need m >= n >= 1, got m={m}, n={n}")
    master = np.random.SeedSequence(cfg.seed)
    best = None
    for child in master.spawn(cfg.restarts):
        rng = np.random.Generator(np.random.Philox(child))
        x0 = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        x0 = _normalize_rows(x0)
        x, f, trajectory = _descend(x0, cfg.p, cfg)
        if best is None or f < best[1]:
            best = (x, f, trajectory)
    x, f, trajectory = best
    bound = welch_sum_bound(m, n, cfg.p)
    return OptimizeResult(
        vectors=VectorSet(vectors=x, field="complex"),
        final_potential=f,
        bound=bound,
        gap=f - bound,
        iterations=len(trajectory) - 1,
        trajectory=tuple(trajectory),
    )
