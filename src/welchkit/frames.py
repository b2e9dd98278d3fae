"""Vector-set generators and a frame-potential minimizer.

The potential sum_ij |<x_i, x_j>|^(2p) over unit-norm sets is bounded below
by m^2 / C(n+p-1, p); this module probes how close that bound is to
attainable.  The potential is ``kernels.power_sum`` of the inner-product
table, the same function behind the power-sum lhs.  The minimizer is
Riemannian L-BFGS (Liu & Nocedal 1989; Huang, Gallivan & Absil 2015) on the
product of unit spheres: ambient gradient, tangent projection (radial
component removed), a direction from the two-loop recursion over the last
``_MEMORY`` curvature pairs, step, renormalize.  Each line search starts
from step 1 and halves it until the Armijo test holds with a strict
decrease.  A restart stops on ``grad_tol``, when the step falls below the
floor, or at ``max_iters``; the result records which.  Restarts run in
lockstep on one (R, m, n) stack of at most ``_BLOCK``, each with a lone run's
arithmetic and its own seed stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import welch_sum_bound
from .errors import INT64_MAX, SEED_MAX, NumericalError, check_int, check_real
from .kernels import VectorSet, inner_table, power_sum

# Scale of the steepest-descent direction when no curvature pair is held.
STEP_INIT = 0.1

# Armijo sufficient-decrease constant.
ARMIJO_C = 1e-4

# Curvature pairs kept for the L-BFGS direction.
_MEMORY = 8

# Step sizes below this end the line search (stationary at float precision).
_STEP_FLOOR = 1e-18

# Restarts run in lockstep, at most _BLOCK at a time and with at most _BLOCK_ENTRIES
# table entries on the stack: memory grows with neither restarts nor, past a lone run, m.
_BLOCK, _BLOCK_ENTRIES = 16, 2**16


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer settings; defaults give reliable descent."""

    p: int
    max_iters: int = 5000
    grad_tol: float = 1e-8
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, lo, hi in (
            ("p", 1, INT64_MAX), ("max_iters", 1, INT64_MAX),
            ("restarts", 1, INT64_MAX), ("seed", 0, SEED_MAX),
        ):
            value = check_int(name, getattr(self, name), lo, hi)
            object.__setattr__(self, name, value)
        grad_tol = check_real("grad_tol", self.grad_tol, 0, exclusive=True)
        object.__setattr__(self, "grad_tol", grad_tol)


@dataclass(frozen=True)
class OptimizeResult:
    """Best restart's outcome: final iterate, objective, bound, history, and
    why it stopped (``grad_tol``, ``step_floor`` or ``max_iters``)."""

    vectors: VectorSet
    final_potential: float
    bound: float
    trajectory: tuple[float, ...]
    stop_reason: str

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
    if not isinstance(seed, np.random.SeedSequence):  # spawned children pass as they are
        seed = check_int("seed", seed, 0, SEED_MAX)
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
    The finite-difference test in tests/test_frames.py is the authoritative
    check of this formula.
    """
    w = np.abs(t) ** (2 * p - 2) * np.conj(t)
    return 4.0 * p * (w @ x)


def _project_tangent(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Remove each row's radial component (rows of x are unit vectors)."""
    radial = np.add.reduce(np.conj(x) * grad, axis=-1).real
    return grad - radial[..., np.newaxis] * x


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    # np.linalg.norm's arithmetic, without its per-call argument handling.
    return x / np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1, keepdims=True))


def _flat(a: np.ndarray) -> np.ndarray:
    """(R, m, n) complex as (R, 2mn) float rows, so Re<a, b> is a dot of rows."""
    return a.view(np.float64).reshape(len(a), -1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dots of two (R, k) arrays, each rounded as ``a[r] @ b[r]``."""
    return (a[:, np.newaxis, :] @ b[:, :, np.newaxis])[:, 0, 0]


def _two_loop(g: np.ndarray, s: np.ndarray, y: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """L-BFGS directions -H g, a row per restart, from (R, _MEMORY, k) pairs s, y, rho =
    1/<s, y>, newest last, an all-zero slot a no-op; H0 = <s, y>/<y, y> or STEP_INIT."""
    q = -g[:, :, np.newaxis]  # columns, so each row-times-column product is a dot
    alphas = []
    for j in reversed(range(_MEMORY)):
        alphas.append(rho[:, j, None, None] * (s[:, j, None] @ q))
        q -= alphas[-1] * y[:, j, :, None]
    yy = rho[:, -1] * _dot(y[:, -1], y[:, -1])
    q *= np.divide(1.0, yy, out=np.full(len(q), STEP_INIT), where=yy > 0)[:, None, None]
    for j in range(_MEMORY):
        q += (alphas.pop() - rho[:, j, None, None] * (y[:, j, None] @ q)) * s[:, j, :, None]
    return q[:, :, 0]


def _descend(x: np.ndarray, p: int, cfg: OptimizerConfig) -> list:
    """Run the restarts stacked in x in lockstep: (x, f, trajectory, stop) for each."""
    t = inner_table(x)
    f = power_sum(t, p)
    runs, ids, trajectories = [None] * len(x), np.arange(len(x)), [[v] for v in f.tolist()]
    s_mem = np.zeros((len(x), _MEMORY, 2 * x[0].size))
    y_mem, rho = np.zeros_like(s_mem), np.zeros((len(x), _MEMORY))
    for it in range(cfg.max_iters):
        rgrad = _project_tangent(x, _gradient_raw(x, t, p))
        g = _flat(rgrad)
        if it:
            # Curvature pair in this tangent space; kept only if <s, y> > 0.
            s = _flat(_project_tangent(x, x - x_old))
            y = g - _flat(_project_tangent(x, g_old))
            sy = _dot(s, y)
            new = slice(None) if (sy > 0).all() else sy > 0
            for mem, pair in ((s_mem, s), (y_mem, y), (rho, 1.0 / np.where(sy > 0, sy, 1.0))):
                mem[new, :-1], mem[new, -1] = mem[new, 1:], pair[new]  # oldest slot out
        d = _two_loop(g, s_mem, y_mem, rho)
        bad = _dot(g, d) >= 0
        if bad.any():  # not a descent direction: drop that restart's memory
            s_mem[bad], y_mem[bad], rho[bad] = 0.0, 0.0, 0.0
            d[bad] = STEP_INIT * -g[bad]
        slope = _dot(g, d)
        d = d.view(np.complex128).reshape(x.shape)
        converged = np.sqrt(_dot(g, g)) < cfg.grad_tol
        x_new = np.empty_like(x)  # t and f take the accepted rows in place
        # One line search per pass: every pending restart tries the same step.
        pending, step = np.flatnonzero(~converged), 1.0
        xp, dp, f0, slp = x[pending], d[pending], f[pending], slope[pending]
        while pending.size and step >= _STEP_FLOOR:
            candidate = _normalize_rows(xp + step * dp)
            tc = inner_table(candidate)
            fc = power_sum(tc, p)
            # Strict decrease too: at the float floor fc == f passes Armijo.
            ok = (fc < f0) & (fc <= f0 + ARMIJO_C * step * slp)
            if ok.any():
                done = pending[ok]
                x_new[done], t[done], f[done] = candidate[ok], tc[ok], fc[ok]
                pending, xp, dp, f0, slp = (a[~ok] for a in (pending, xp, dp, f0, slp))
            step *= 0.5
        moved = ~converged
        moved[pending] = False
        for i in np.flatnonzero(~moved):
            stop = "grad_tol" if converged[i] else "step_floor"
            runs[ids[i]] = (x[i], float(f[i]), trajectories[ids[i]], stop)
        moved = slice(None) if moved.all() else moved
        x_old, g_old, x, t, f, ids, s_mem, y_mem, rho = (
            a[moved] for a in (x, rgrad, x_new, t, f, ids, s_mem, y_mem, rho)
        )
        for i, v in zip(ids.tolist(), f.tolist()):
            trajectories[i].append(v)
        if not len(x):
            return runs
    for i, j in enumerate(ids):
        runs[j] = (x[i], float(f[i]), trajectories[j], "max_iters")
    return runs


def minimize_frame_potential(m: int, n: int, cfg: OptimizerConfig) -> OptimizeResult:
    """Best-of-restarts Riemannian L-BFGS over unit-norm sets.

    Restart streams are spawned from the master seed; the restart with the
    smallest final potential wins, ties going to the lowest restart index.
    """
    n = check_int("n", n, 1)
    m = check_int("m", m, n)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    size = max(1, min(_BLOCK, _BLOCK_ENTRIES // (m * m)))
    blocks = ([random_unit_vectors(m, n, seed=c).vectors for c in children[lo:lo + size]]
              for lo in range(0, cfg.restarts, size))
    runs = (run for block in blocks for run in _descend(np.stack(block), cfg.p, cfg))
    x, f, trajectory, stop = min(runs, key=lambda run: run[1])  # first of equals wins
    return OptimizeResult(
        vectors=VectorSet(vectors=x, field="complex"),
        final_potential=f,
        bound=welch_sum_bound(m, n, cfg.p),
        trajectory=tuple(trajectory),
        stop_reason=stop,
    )
