"""Frame generators and the projected-gradient potential minimizer."""

import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from welchkit import frames
from welchkit.bounds import coherence, sum_power_lhs, welch_coherence_bound, welch_sum_bound
from welchkit.errors import InvalidConfigError, NumericalError
from welchkit.frames import (
    OptimizeResult,
    OptimizerConfig,
    minimize_frame_potential,
    orthonormal_frame,
    potential_gradient,
    random_unit_vectors,
    simplex_frame,
)
from welchkit.kernels import VectorSet, inner_table, power_sum


def fd_gradient(x, p, h=1e-6):
    """Central finite differences of the potential over re/im coordinates."""
    grad = np.zeros_like(x, dtype=np.complex128)
    for i in range(x.shape[0]):
        for k in range(x.shape[1]):
            for unit in (1.0, 1j):
                xp = x.copy()
                xp[i, k] += h * unit
                xm = x.copy()
                xm[i, k] -= h * unit
                fp = sum_power_lhs(VectorSet(vectors=xp), p)
                fm = sum_power_lhs(VectorSet(vectors=xm), p)
                grad[i, k] += (fp - fm) / (2 * h) * unit
    return grad


class TestRandomUnitVectors:
    def test_same_seed_bit_exact(self):
        a = random_unit_vectors(6, 3, seed=99)
        b = random_unit_vectors(6, 3, seed=99)
        assert np.array_equal(a.vectors, b.vectors)

    def test_norms_are_unit(self):
        vs = random_unit_vectors(1000, 3, seed=5)
        assert np.max(np.abs(vs.norms() - 1.0)) < 1e-12

    def test_different_seeds_differ(self):
        a = random_unit_vectors(8, 3, seed=1)
        b = random_unit_vectors(8, 3, seed=2)
        assert coherence(a) != coherence(b)

    def test_real_field(self):
        vs = random_unit_vectors(4, 2, field="real", seed=3)
        assert np.all(vs.vectors.imag == 0.0)
        assert vs.field == "real"


class TestOrthonormalFrame:
    def test_is_standard_basis(self):
        vs = orthonormal_frame(4)
        assert np.array_equal(vs.vectors, np.eye(4))

    def test_zero_coherence(self):
        assert coherence(orthonormal_frame(2)) == 0.0

    def test_power_sum_equals_bound(self):
        for n in (2, 5):
            vs = orthonormal_frame(n)
            assert sum_power_lhs(vs, 1) == welch_sum_bound(n, n, 1)


class TestSimplexFrame:
    def test_plane_case(self):
        vs = simplex_frame(2)
        assert (vs.m, vs.n) == (3, 2)
        g = np.conj(vs.vectors) @ vs.vectors.T
        off = g[~np.eye(3, dtype=bool)]
        assert np.allclose(off.real, -0.5, atol=1e-12)
        assert abs(coherence(vs) - 0.5) < 1e-12

    def test_three_dimensional_case(self):
        vs = simplex_frame(3)
        g = np.conj(vs.vectors) @ vs.vectors.T
        off = g[~np.eye(4, dtype=bool)]
        assert np.allclose(off.real, -1.0 / 3.0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_structure_every_n(self, n):
        vs = simplex_frame(n)
        assert (vs.m, vs.n) == (n + 1, n)
        assert np.max(np.abs(vs.norms() - 1.0)) < 1e-12
        g = np.conj(vs.vectors) @ vs.vectors.T
        off = g[~np.eye(n + 1, dtype=bool)]
        assert np.max(np.abs(off - (-1.0 / n))) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_achieves_both_equalities(self, n):
        vs = simplex_frame(n)
        bound = welch_coherence_bound(n + 1, n, 1)
        assert not bound.vacuous
        assert abs(coherence(vs) - bound.value) < 1e-9
        lhs = sum_power_lhs(vs, 1)
        rhs = welch_sum_bound(n + 1, n, 1)
        assert abs(lhs - rhs) < 1e-9


class TestPotentialAndGradient:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_gradient_matches_finite_differences(self, p):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        analytic = potential_gradient(VectorSet(vectors=x), p)
        numeric = fd_gradient(x, p)
        err = np.abs(analytic - numeric)
        assert np.all(err <= 1e-5 * np.maximum(1.0, np.abs(analytic)))


class TestOptimizerConfig:
    def test_rejects_bad_values(self):
        bad = [
            dict(p=0),
            dict(p=True),
            dict(p=1, max_iters=0),
            dict(p=1, max_iters=2.5),
            dict(p=1, max_iters=True),
            dict(p=1, grad_tol=0.0),
            dict(p=1, grad_tol=np.inf),
            dict(p=1, restarts=0),
            dict(p=1, restarts=1.5),
            dict(p=1, restarts=True),
            dict(p=1, seed=-1),
            dict(p=1, seed=True),
        ]
        for kwargs in bad:
            with pytest.raises(InvalidConfigError):
                OptimizerConfig(**kwargs)


class TestMinimizeFramePotential:
    def test_square_case_reaches_orthonormal_potential(self):
        res = minimize_frame_potential(3, 3, OptimizerConfig(p=1, seed=11))
        assert abs(res.final_potential - 3.0) < 1e-6
        assert abs(res.gap) < 1e-6

    def test_two_vectors_in_plane(self):
        res = minimize_frame_potential(2, 2, OptimizerConfig(p=1, seed=12))
        assert abs(res.final_potential - 2.0) < 1e-6
        assert abs(res.gap) < 1e-6

    def test_four_vectors_reach_tight_frame(self):
        res = minimize_frame_potential(4, 2, OptimizerConfig(p=1, seed=13))
        assert abs(res.final_potential - 8.0) < 1e-6

    def test_three_vectors_recover_simplex(self):
        res = minimize_frame_potential(3, 2, OptimizerConfig(p=1, seed=14))
        assert abs(res.final_potential - 4.5) < 1e-6
        assert abs(coherence(res.vectors) - 0.5) < 1e-4

    def test_trajectory_non_increasing(self):
        res = minimize_frame_potential(5, 2, OptimizerConfig(p=2, seed=15))
        traj = np.array(res.trajectory)
        assert np.all(np.diff(traj) <= 0)
        assert res.iterations == len(res.trajectory) - 1

    def test_final_iterate_feasible(self):
        res = minimize_frame_potential(6, 3, OptimizerConfig(p=2, seed=16))
        assert np.max(np.abs(res.vectors.norms() - 1.0)) <= 1e-12

    def test_respects_lower_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, m + 1))
            p = int(rng.integers(1, 4))
            cfg = OptimizerConfig(p=p, seed=int(rng.integers(1 << 32)))
            res = minimize_frame_potential(m, n, cfg)
            assert res.final_potential >= res.bound - 1e-9
            assert res.gap == res.final_potential - res.bound

    def test_deterministic_given_seed(self):
        cfg = OptimizerConfig(p=1, seed=18)
        a = minimize_frame_potential(4, 2, cfg)
        b = minimize_frame_potential(4, 2, cfg)
        assert np.array_equal(a.vectors.vectors, b.vectors.vectors)
        assert a.trajectory == b.trajectory

    def test_rejects_m_below_n(self):
        with pytest.raises(InvalidConfigError):
            minimize_frame_potential(2, 3, OptimizerConfig(p=1))


class TestEvaluationBudget:
    """Inner-table calls per run: a timing-free guard on convergence speed."""

    @staticmethod
    def count_calls(monkeypatch, m, n, cfg):
        calls = [0]
        original = frames.inner_table

        def counted(x):
            calls[0] += len(x) if x.ndim == 3 else 1  # one per restart of a stack
            return original(x)

        monkeypatch.setattr(frames, "inner_table", counted)
        return minimize_frame_potential(m, n, cfg), calls[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sic_in_dimension_three_certified_within_budget(self, monkeypatch, seed):
        cfg = OptimizerConfig(p=2, seed=seed, grad_tol=1e-6)
        res, calls = self.count_calls(monkeypatch, 9, 3, cfg)
        assert calls <= 6000
        assert res.iterations < cfg.max_iters
        assert -1e-9 <= res.gap <= 1e-6 * res.bound

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sic_in_dimension_three_certified_to_relative_precision(self, monkeypatch, seed):
        cfg = OptimizerConfig(p=2, seed=seed, grad_tol=1e-6)
        res, calls = self.count_calls(monkeypatch, 9, 3, cfg)
        assert calls <= 1000
        assert res.stop_reason == "grad_tol"
        assert -1e-9 <= res.gap <= 1e-12 * res.bound

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sic_in_dimension_four_within_budget(self, monkeypatch, seed):
        cfg = OptimizerConfig(p=2, seed=seed, grad_tol=1e-6)
        res, calls = self.count_calls(monkeypatch, 16, 4, cfg)
        assert calls <= 400
        assert res.stop_reason == "grad_tol"

    @pytest.mark.parametrize(
        "m, n, cfg, reason",
        [
            (9, 3, OptimizerConfig(p=2, seed=1, grad_tol=1e-6, max_iters=3), "max_iters"),
            (3, 2, OptimizerConfig(p=1, seed=1, grad_tol=1e-300), "step_floor"),
        ],
    )
    def test_stop_reason(self, m, n, cfg, reason):
        res = minimize_frame_potential(m, n, cfg)
        assert res.stop_reason == reason
        assert (res.iterations == cfg.max_iters) == (reason == "max_iters")

    @pytest.mark.parametrize("m, n, seed", [(4, 2, 18), (4, 2, 19), (3, 2, 1)])
    def test_no_restart_stalls_at_the_float_floor(self, monkeypatch, m, n, seed):
        res, calls = self.count_calls(monkeypatch, m, n, OptimizerConfig(p=1, seed=seed))
        assert calls <= 2000
        assert abs(res.gap) < 1e-9


# Results of the optimizer from before its restarts ran in lockstep, at p=2 and
# grad_tol=1e-6: (m, n, seed) -> (final_potential.hex(), iterations, stop_reason).
# Bit-level values, taken on x86_64 with numpy 2.4.6 and OpenBLAS.
GOLDEN = {
    (4, 2, 1): ("0x1.5555555555557p+2", 12, "grad_tol"),
    (4, 2, 2): ("0x1.5555555555559p+2", 8, "grad_tol"),
    (4, 2, 3): ("0x1.5555555555559p+2", 10, "grad_tol"),
    (9, 3, 1): ("0x1.b000000000056p+3", 45, "grad_tol"),
    (9, 3, 2): ("0x1.b000000000022p+3", 52, "grad_tol"),
    (9, 3, 3): ("0x1.b000000000052p+3", 40, "grad_tol"),
    (16, 4, 1): ("0x1.99999999999a0p+4", 40, "grad_tol"),
    (16, 4, 2): ("0x1.99999999999a0p+4", 40, "grad_tol"),
    (16, 4, 3): ("0x1.99999999999a1p+4", 44, "grad_tol"),
}


def reference_descend(x, p, cfg):
    """One restart alone, its curvature pairs in a deque: the optimizer as it
    was before restarts shared a stack, kept as the reference it must match."""

    def tangent(x, grad):
        return grad - np.sum(np.conj(x) * grad, axis=1).real[:, np.newaxis] * x

    def flat(a):
        return a.view(np.float64).ravel()

    def two_loop(g, pairs):
        q, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        if not pairs:
            return frames.STEP_INIT * q
        q *= 1.0 / (pairs[-1][2] * (pairs[-1][1] @ pairs[-1][1]))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * (y @ q)) * s
        return q

    f = power_sum(inner_table(x), p)
    trajectory, pairs, x_old, g_old = [f], deque(maxlen=frames._MEMORY), None, None
    for _ in range(cfg.max_iters):
        rgrad = tangent(x, potential_gradient(VectorSet(vectors=x), p))
        g = flat(rgrad)
        if math.sqrt(g @ g) < cfg.grad_tol:
            return x, f, trajectory, "grad_tol"
        if x_old is not None:
            s, y = flat(tangent(x, x - x_old)), g - flat(tangent(x, g_old))
            if s @ y > 0:
                pairs.append((s, y, 1.0 / (s @ y)))
        d = two_loop(g, pairs)
        if g @ d >= 0:
            pairs.clear()
            d = two_loop(g, pairs)
        slope, d, step = g @ d, d.view(np.complex128).reshape(x.shape), 1.0
        while True:
            candidate = x + step * d
            candidate = candidate / np.linalg.norm(candidate, axis=1, keepdims=True)
            fc = power_sum(inner_table(candidate), p)
            if fc < f and fc <= f + frames.ARMIJO_C * step * slope:
                break
            step *= 0.5
            if step < frames._STEP_FLOOR:
                return x, f, trajectory, "step_floor"
        x_old, g_old, x, f = x, rgrad, candidate, fc
        trajectory.append(f)
    return x, f, trajectory, "max_iters"


class TestLockstepRestarts:
    """Restarts share one stack, but each keeps the arithmetic of a lone run."""

    @pytest.mark.parametrize("m, n, seed", sorted(GOLDEN))
    def test_golden_results(self, m, n, seed):
        res = minimize_frame_potential(m, n, OptimizerConfig(p=2, seed=seed, grad_tol=1e-6))
        outcome = (res.final_potential.hex(), res.iterations, res.stop_reason)
        assert outcome == GOLDEN[m, n, seed]

    @staticmethod
    def starts(m, n, cfg):
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
        return np.stack([random_unit_vectors(m, n, seed=c).vectors for c in children])

    @pytest.mark.parametrize(
        "m, n, cfg, reasons",
        [
            (9, 3, OptimizerConfig(p=2, seed=1, grad_tol=1e-6, max_iters=3), {"max_iters"}),
            (3, 2, OptimizerConfig(p=1, seed=1, grad_tol=1e-300), {"step_floor"}),
            (16, 4, OptimizerConfig(p=1, seed=3), {"grad_tol", "step_floor"}),
            (3, 2, OptimizerConfig(p=2, seed=4, max_iters=9),
             {"grad_tol", "step_floor", "max_iters"}),
            # Restarts 0 and 3 meet a pair with <s, y> <= 0, which is not kept.
            (4, 2, OptimizerConfig(p=3, seed=3, grad_tol=1e-6), {"grad_tol"}),
        ],
    )
    def test_each_restart_alone_matches_the_stack(self, m, n, cfg, reasons):
        x0 = self.starts(m, n, cfg)
        stacked = frames._descend(x0, cfg.p, cfg)
        assert {run[3] for run in stacked} == reasons
        for i, (x, f, trajectory, stop) in enumerate(stacked):
            for other in (frames._descend(x0[i:i + 1], cfg.p, cfg)[0],
                          reference_descend(x0[i], cfg.p, cfg)):
                assert x.tobytes() == other[0].tobytes()
                assert (f, trajectory, stop) == tuple(other[1:])
            assert type(f) is float and all(type(v) is float for v in trajectory)
            assert (len(trajectory) - 1 == cfg.max_iters) == (stop == "max_iters")

    def test_non_descent_direction_falls_back_to_steepest_descent(self, monkeypatch):
        """With every two-loop direction turned uphill, each restart drops its
        memory and steps along -g: in the stack exactly as alone, and downhill."""
        two_loop, uphill = frames._two_loop, []

        def ascent(g, s, y, rho):
            d = -two_loop(g, s, y, rho)
            uphill.append(bool((frames._dot(g, d) > 0).all()))
            return d

        monkeypatch.setattr(frames, "_two_loop", ascent)
        cfg = OptimizerConfig(p=1, seed=0, grad_tol=1e-7, max_iters=30)
        x0 = self.starts(4, 2, cfg)
        stacked = frames._descend(x0, cfg.p, cfg)
        assert {run[3] for run in stacked} == {"grad_tol", "step_floor", "max_iters"}
        assert uphill and all(uphill)
        for i, (x, f, trajectory, stop) in enumerate(stacked):
            alone = frames._descend(x0[i:i + 1], cfg.p, cfg)[0]
            assert x.tobytes() == alone[0].tobytes()
            assert (f, trajectory, stop) == tuple(alone[1:])
            assert all(b < a for a, b in zip(trajectory, trajectory[1:]))

    def test_dropped_memory_makes_a_fresh_start(self, monkeypatch):
        """One uphill direction, at iteration k: each restart's memory goes and it
        steps along -g, so from x_k on it runs as a new run started at x_k."""
        cfg, k = OptimizerConfig(p=2, seed=2, grad_tol=1e-6, max_iters=40), 6
        x0 = self.starts(4, 2, cfg)
        head = frames._descend(x0, cfg.p, replace(cfg, max_iters=k))
        assert {run[3] for run in head} == {"max_iters"}
        tail = frames._descend(np.stack([run[0] for run in head]), cfg.p,
                               replace(cfg, max_iters=cfg.max_iters - k))
        two_loop, calls = frames._two_loop, []

        def uphill_at_k(g, s, y, rho):
            calls.append(len(g))
            d = two_loop(g, s, y, rho)
            return -d if len(calls) == k + 1 else d

        monkeypatch.setattr(frames, "_two_loop", uphill_at_k)
        for (x, f, trajectory, stop), h, t in zip(frames._descend(x0, cfg.p, cfg), head, tail):
            assert x.tobytes() == t[0].tobytes()
            assert (f, trajectory, stop) == (t[1], h[2] + t[2][1:], t[3])
        assert calls[k] == len(x0)

    @pytest.mark.parametrize("m, restarts, size", [(4, 20, 16), (64, 20, 16), (100, 20, 6),
                                                   (300, 3, 1)])
    def test_stack_size(self, monkeypatch, m, restarts, size):
        """At most 16 restarts share a stack, and fewer once their inner-product
        tables would hold more than 2**16 entries in all."""
        sizes, descend = [], frames._descend
        monkeypatch.setattr(frames, "_descend", lambda x, p, cfg: sizes.append(len(x))
                            or descend(x, p, cfg))
        minimize_frame_potential(m, 2, OptimizerConfig(p=1, restarts=restarts, max_iters=1))
        assert max(sizes) == size and sum(sizes) == restarts

    def test_best_of_several_blocks(self):
        """More restarts than one block holds: the lowest potential wins, ties
        going to the lowest restart index, exactly as over lone runs."""
        cfg = OptimizerConfig(p=1, seed=5, restarts=2 * frames._BLOCK + 3)
        res = minimize_frame_potential(4, 2, cfg)
        x0 = self.starts(4, 2, cfg)
        lone = [frames._descend(x0[i:i + 1], cfg.p, cfg)[0] for i in range(cfg.restarts)]
        best = min(range(cfg.restarts), key=lambda i: (lone[i][1], i))
        assert res.vectors.vectors.tobytes() == lone[best][0].tobytes()
        assert res.trajectory == tuple(lone[best][2])


class TestOptimizeResultValidation:
    def test_rejects_negative_gap(self):
        vs = orthonormal_frame(2)
        with pytest.raises(NumericalError):
            OptimizeResult(
                vectors=vs,
                final_potential=1.0,
                bound=2.0,
                trajectory=(1.0,),
                stop_reason="grad_tol",
            )

    def test_rejects_non_unit_vectors(self):
        vs = VectorSet(vectors=2 * np.eye(2), field="real")
        with pytest.raises(ValueError):
            OptimizeResult(
                vectors=vs,
                final_potential=2.0,
                bound=2.0,
                trajectory=(2.0,),
                stop_reason="grad_tol",
            )
