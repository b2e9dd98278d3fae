"""Frame generators and the projected-gradient potential minimizer."""

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
from welchkit.kernels import VectorSet


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
            calls[0] += 1
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

    @pytest.mark.parametrize("m, n, seed", [(4, 2, 18), (4, 2, 19), (3, 2, 1)])
    def test_no_restart_stalls_at_the_float_floor(self, monkeypatch, m, n, seed):
        res, calls = self.count_calls(monkeypatch, m, n, OptimizerConfig(p=1, seed=seed))
        assert calls <= 2000
        assert abs(res.gap) < 1e-9


class TestOptimizeResultValidation:
    def test_rejects_negative_gap(self):
        vs = orthonormal_frame(2)
        with pytest.raises(NumericalError):
            OptimizeResult(
                vectors=vs,
                final_potential=1.0,
                bound=2.0,
                trajectory=(1.0,),
            )

    def test_rejects_non_unit_vectors(self):
        vs = VectorSet(vectors=2 * np.eye(2), field="real")
        with pytest.raises(ValueError):
            OptimizeResult(
                vectors=vs,
                final_potential=2.0,
                bound=2.0,
                trajectory=(2.0,),
            )
