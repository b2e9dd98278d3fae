"""Vector-set generators and a frame-potential minimizer.

The potential sum_ij |<x_i, x_j>|^(2p) over unit-norm sets is bounded below
by m^2 / C(n+p-1, p); this module probes how close that bound is to
attainable.  The potential is ``kernels.power_sum`` of the inner-product
table, the same function behind the power-sum lhs.  The minimizer is
projected gradient descent on the product of unit spheres: ambient
gradient, tangent projection (radial component removed), step, renormalize.
Each line search starts from a Barzilai-Borwein step (BB1 and BB2 in turn;
``STEP_INIT`` first and whenever <s, y> <= 0) and halves it until the Armijo
test holds with a strict decrease.  A restart stops on ``grad_tol``, when
the step falls below the floor, or at ``max_iters``.  Each restart starts from
``random_unit_vectors`` on its own stream spawned from the master seed, so
runs are reproducible regardless of restart execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import welch_sum_bound
from .errors import INT64_MAX, InvalidConfigError, NumericalError, check_int, check_real
from .kernels import VectorSet, inner_table, power_sum

# First trial step, and the fallback when the BB step is undefined.
STEP_INIT = 0.1

# Armijo sufficient-decrease constant.
ARMIJO_C = 0.5

# Step sizes below this end the line search (stationary at float precision).
_STEP_FLOOR = 1e-18


@dataclass(frozen=True)
class OptimizerConfig:
    """Projected-gradient settings; defaults give reliable descent."""

    p: int
    max_iters: int = 5000
    grad_tol: float = 1e-8
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, lo, hi in (
            ("p", 1, INT64_MAX), ("max_iters", 1, INT64_MAX),
            ("restarts", 1, INT64_MAX), ("seed", 0, 2**64 - 1),
        ):
            value = check_int(name, getattr(self, name), lo, hi, InvalidConfigError)
            object.__setattr__(self, name, value)
        grad_tol = check_real(
            "grad_tol", self.grad_tol, 0, exclusive=True, error=InvalidConfigError
        )
        object.__setattr__(self, "grad_tol", grad_tol)


@dataclass(frozen=True)
class OptimizeResult:
    """Best restart's outcome: final iterate, objective, bound, and history."""

    vectors: VectorSet
    final_potential: float
    bound: float
    trajectory: tuple[float, ...]

    def __post_init__(self):
        if self.gap < -1e-9:
            raise NumericalError("gap below -1e-9: potential under the proven bound")
        norms = self.vectors.norms()
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("optimizer iterate left the unit spheres")

    @property
    def gap(self) -> float:
        """final_potential - bound."""
        return self.final_potential - self.bound

    @property
    def iterations(self) -> int:
        """Accepted steps of the best restart."""
        return len(self.trajectory) - 1


def random_unit_vectors(
    m: int, n: int, field: str = "complex", seed: int | np.random.SeedSequence = 0
):
    """i.i.d. Gaussian entries normalized to unit rows; Philox-seeded.

    Draw order is fixed (real block first, then the imaginary block for the
    complex field) so a seed pins down the set bit-for-bit.
    """
    m, n = check_int("m", m, 1), check_int("n", n, 1)
    rng = np.random.Generator(np.random.Philox(seed))
    re = rng.standard_normal((m, n))
    if field == "complex":
        a = re + 1j * rng.standard_normal((m, n))
    else:
        a = re.astype(np.complex128)
    return VectorSet(vectors=_normalize_rows(a), field=field)


def orthonormal_frame(n: int) -> VectorSet:
    """Standard basis of C^n (real entries)."""
    n = check_int("n", n, 1)
    return VectorSet(vectors=np.eye(n), field="real")


def simplex_frame(n: int) -> VectorSet:
    """n+1 unit vectors in R^n with every pairwise inner product -1/n.

    Project the n+1 standard basis vectors of R^(n+1) onto the hyperplane
    orthogonal to the all-ones vector, renormalize, then express them in an
    orthonormal basis of that hyperplane (built from one Householder
    reflection mapping e_1 to the normalized all-ones vector).
    """
    k = check_int("n", n, 1) + 1
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


def _gradient_raw(x: np.ndarray, t: np.ndarray, p: int) -> np.ndarray:
    """Ambient gradient of the potential w.r.t. the real parameterization.

    grad_i = 4p sum_j |t_ij|^(2(p-1)) conj(t_ij) x_j, with t = inner_table(x).
    The finite-difference invariant in the tests is the authoritative check
    of this formula.
    """
    w = np.abs(t) ** (2 * p - 2) * np.conj(t)
    return 4.0 * p * (w @ x)


def potential_gradient(vs: VectorSet, p: int) -> np.ndarray:
    """Ambient (unconstrained) potential gradient, one row per vector."""
    p = check_int("degree p", p, 1)
    return _gradient_raw(vs.vectors, inner_table(vs.vectors), p)


def _project_tangent(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Remove each row's radial component (rows of x are unit vectors)."""
    radial = np.sum(np.conj(x) * grad, axis=1).real
    return grad - radial[:, np.newaxis] * x


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _descend(x: np.ndarray, p: int, cfg: OptimizerConfig):
    t = inner_table(x)
    f = power_sum(t, p)
    trajectory = [f]
    x_old = g_old = None
    for k in range(cfg.max_iters):
        rgrad = _project_tangent(x, _gradient_raw(x, t, p))
        gnorm_sq = float(np.sum(rgrad.real**2 + rgrad.imag**2))
        if math.sqrt(gnorm_sq) < cfg.grad_tol:
            break
        step = STEP_INIT
        if x_old is not None:
            # Barzilai-Borwein, the old gradient moved into this tangent space.
            s, y = x - x_old, rgrad - _project_tangent(x, g_old)
            sy = np.vdot(s, y).real
            if sy > 0:
                step = np.vdot(s, s).real / sy if k % 2 else sy / np.vdot(y, y).real
        while True:
            candidate = _normalize_rows(x - step * rgrad)
            tc = inner_table(candidate)
            fc = power_sum(tc, p)
            # Strict decrease too: at the float floor fc == f passes Armijo.
            if fc < f and fc <= f - ARMIJO_C * step * gnorm_sq:
                break
            step *= 0.5
            if step < _STEP_FLOOR:
                candidate = None
                break
        if candidate is None:
            break
        x_old, g_old = x, rgrad
        x, t, f = candidate, tc, fc
        trajectory.append(f)
    return x, f, trajectory


def minimize_frame_potential(m: int, n: int, cfg: OptimizerConfig) -> OptimizeResult:
    """Best-of-restarts projected gradient descent over unit-norm sets.

    Restart streams are spawned from the master seed; the restart with the
    smallest final potential wins, ties going to the lowest restart index.
    """
    n = check_int("n", n, 1, error=InvalidConfigError)
    m = check_int("m", m, n, error=InvalidConfigError)
    master = np.random.SeedSequence(cfg.seed)
    best = None
    for child in master.spawn(cfg.restarts):
        x0 = random_unit_vectors(m, n, seed=child).vectors
        x, f, trajectory = _descend(x0, cfg.p, cfg)
        if best is None or f < best[1]:
            best = (x, f, trajectory)
    x, f, trajectory = best
    return OptimizeResult(
        vectors=VectorSet(vectors=x, field="complex"),
        final_potential=f,
        bound=welch_sum_bound(m, n, cfg.p),
        trajectory=tuple(trajectory),
    )
