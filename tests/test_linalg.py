"""Core numerics: eigensolver gates, the spectrum's trace and Frobenius norm,
numerical rank."""

import numpy as np
import pytest

from welchkit.errors import NumericalError
from welchkit.linalg import (
    HERM_RTOL,
    TRACE_IDENTITY_RTOL,
    EigenSpectrum,
    clamp_psd,
    hermitian_eigenvalues,
    numerical_rank,
)

from helpers import diagonal_spectrum


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2
    return h * scale


class TestHermitianEigenvalues:
    def test_identity_2x2(self):
        spec = hermitian_eigenvalues(np.eye(2))
        assert np.allclose(spec.values, [1.0, 1.0])
        assert spec.source_dim == 2
        assert not spec.clamp_applied

    def test_2x2_complex_offdiagonal(self):
        # Characteristic polynomial (2-lam)^2 - 1 = 0, roots 3 and 1.
        m = np.array([[2.0, 1j], [-1j, 2.0]])
        spec = hermitian_eigenvalues(m)
        assert np.allclose(spec.values, [3.0, 1.0], atol=1e-12)

    def test_all_ones_rank_one(self):
        # Gram of three equal unit vectors under the linear kernel.
        spec = hermitian_eigenvalues(np.ones((3, 3)))
        assert np.allclose(spec.values, [3.0, 0.0, 0.0], atol=1e-12)

    def test_diagonal_matrix_exact(self):
        d = np.diag([3.5, -1.25, 7.0, 0.0])
        spec = hermitian_eigenvalues(d)
        assert spec.values.tolist() == [7.0, 3.5, 0.0, -1.25]

    def test_sorted_descending(self):
        rng = np.random.default_rng(7)
        spec = hermitian_eigenvalues(random_hermitian(rng, 9))
        assert np.all(np.diff(spec.values) <= 0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21])
    def test_matches_numpy_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            h = random_hermitian(rng, n)
            got = hermitian_eigenvalues(h).values
            want = np.sort(np.linalg.eigvalsh(h))[::-1]
            assert np.allclose(got, want, atol=1e-10 * max(1.0, np.abs(want).max()))

    def test_trace_identities_hold(self):
        rng = np.random.default_rng(42)
        for n in (2, 4, 6, 10):
            h = random_hermitian(rng, n, scale=3.0)
            spec = hermitian_eigenvalues(h)
            # Both fields come from the entries, by the gates' own expressions.
            tr = float(np.trace(h).real)
            fro = float(np.sum(h.real**2 + h.imag**2))
            assert spec.trace == tr
            assert spec.frobenius_sq == fro
            assert spec.frobenius_sq == pytest.approx(np.sum(abs(h) ** 2), rel=1e-14)
            rtol = TRACE_IDENTITY_RTOL
            assert abs(spec.values.sum() - spec.trace) <= rtol * max(1.0, abs(tr))
            assert abs((spec.values**2).sum() - spec.frobenius_sq) <= rtol * max(1.0, fro)

    def test_not_square(self):
        with pytest.raises(NumericalError, match="matrix is 2x3, not square"):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_not_hermitian(self):
        with pytest.raises(NumericalError, match="Hermitian deviation"):
            hermitian_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_iteration_cap(self, monkeypatch):
        # LAPACK reports hitting its iteration cap as LinAlgError.
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        rng = np.random.default_rng(3)
        with pytest.raises(NumericalError, match="LAPACK eigvalsh failed"):
            hermitian_eigenvalues(random_hermitian(rng, 6))

    def test_trace_identity_gate(self, monkeypatch):
        # A spectrum that breaks sum(sigma) = tr G is rejected, not returned.
        true_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: true_eigvalsh(a) + 1e-6)
        rng = np.random.default_rng(3)
        with pytest.raises(NumericalError, match="sum of eigenvalues"):
            hermitian_eigenvalues(random_hermitian(rng, 6))

    def test_frobenius_identity_gate(self, monkeypatch):
        # Moving delta from the smallest eigenvalue to the largest keeps
        # sum(sigma) = tr G but breaks sum(sigma^2) = ||G||_F^2.
        true_eigvalsh, delta = np.linalg.eigvalsh, 1e-3

        def shifted(a):
            values = true_eigvalsh(a)
            values[0] -= delta
            values[-1] += delta
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        rng = np.random.default_rng(3)
        with pytest.raises(NumericalError, match="sum of squares"):
            hermitian_eigenvalues(random_hermitian(rng, 6))

    def test_1x1(self):
        spec = hermitian_eigenvalues(np.array([[4.0]]))
        assert spec.values.tolist() == [4.0]

    def test_zero_matrix(self):
        spec = hermitian_eigenvalues(np.zeros((4, 4)))
        assert spec.values.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_rejects_nonfinite(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            hermitian_eigenvalues(m)

    def test_deviation_within_tolerance_is_symmetrized(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 8)
        a[5, 2] += 0.5 * HERM_RTOL  # eigvalsh alone would read the lower triangle
        values = hermitian_eigenvalues(a).values
        assert values.tobytes() == np.linalg.eigvalsh(0.5 * (a + a.conj().T))[::-1].tobytes()
        assert values.tobytes() != np.linalg.eigvalsh(a)[::-1].tobytes()


class TestTrace:
    """EigenSpectrum.trace: Re tr(M) of the source matrix."""

    def test_identity(self):
        assert hermitian_eigenvalues(np.eye(2)).trace == 2.0

    def test_complex_diagonal_sum(self):
        m = np.array([[2.0, 1j], [-1j, 2.0]])
        assert hermitian_eigenvalues(m).trace == 4.0

    def test_not_square(self):
        with pytest.raises(NumericalError, match="matrix is 1x2, not square"):
            hermitian_eigenvalues(np.ones((1, 2)))


class TestFrobeniusNormSq:
    """EigenSpectrum.frobenius_sq: ||M||_F^2 of the source matrix."""

    def test_identity(self):
        assert hermitian_eigenvalues(np.eye(2)).frobenius_sq == 2.0

    def test_all_ones(self):
        assert hermitian_eigenvalues(np.ones((3, 3))).frobenius_sq == 9.0

    def test_complex_entries(self):
        m = np.array([[2.0, 1j], [-1j, 2.0]])
        assert hermitian_eigenvalues(m).frobenius_sq == 10.0

    def test_agrees_with_trace_of_m_mh(self):
        # ||H||_F^2 = tr(H H^H) for the Hermitian H = A A^H.
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        h = a @ a.conj().T
        via_trace = hermitian_eigenvalues(h @ h.conj().T).trace
        assert hermitian_eigenvalues(h).frobenius_sq == pytest.approx(via_trace, rel=1e-12)


class TestEigenSpectrum:
    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(np.eye(2), id="2-D"),
            pytest.param(np.array([1.0, 2.0]), id="increasing"),
            pytest.param(np.array([]), id="empty"),
            pytest.param(np.array([3.0, np.nan, 5.0]), id="nan-unsorted"),
            pytest.param(np.array([np.nan, -5.0]), id="nan-first"),
            pytest.param(np.array([np.nan]), id="nan-alone"),
            pytest.param(np.array([np.inf, 1.0]), id="inf"),
            pytest.param(np.array([1.0, -np.inf]), id="minus-inf"),
        ],
    )
    def test_rejects_malformed_values(self, values):
        with pytest.raises(ValueError, match="non-empty, non-increasing 1-D array"):
            EigenSpectrum(values, trace=0.0, frobenius_sq=0.0)


class TestNumericalRank:
    def test_rank_one_spectrum(self):
        spec = diagonal_spectrum(np.array([3.0, 0.0, 0.0]))
        assert numerical_rank(spec) == 1

    def test_full_rank_spectrum(self):
        spec = diagonal_spectrum(np.array([1.0, 1.0]))
        assert numerical_rank(spec) == 2

    def test_zero_matrix_rank_zero(self):
        spec = diagonal_spectrum(np.zeros(5))
        assert numerical_rank(spec) == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = np.sort(np.abs(rng.standard_normal(6)))[::-1]
            vals[4:] *= 1e-12
            spec = diagonal_spectrum(vals)
            base = numerical_rank(spec)
            for t in (1e-7, 0.5, 3.0, 1e9):
                scaled = diagonal_spectrum(vals * t)
                assert numerical_rank(scaled) == base

    def test_policy_threshold(self):
        spec = diagonal_spectrum(np.array([1.0, 1e-4, 1e-12]))
        assert numerical_rank(spec, rel_tol=1e-8) == 2
        assert numerical_rank(spec, rel_tol=1e-2) == 1


class TestClampPsd:
    def test_passthrough_when_nonnegative(self):
        spec = diagonal_spectrum(np.array([2.0, 1.0, 0.0]))
        out = clamp_psd(spec)
        assert out is spec

    def test_clamps_roundoff_negatives(self):
        spec = diagonal_spectrum(np.array([1.0, 1e-13, -1e-13]))
        out = clamp_psd(spec)
        assert out.clamp_applied
        assert out.values.tolist() == [1.0, 1e-13, 0.0]

    def test_clamp_keeps_source_trace_and_norm(self):
        # The fields describe the source matrix, so clamping leaves them alone.
        m = np.array([[1.0, 1.0], [1.0, 1.0]]) + np.diag([0.0, -1e-13])
        spec = hermitian_eigenvalues(m)
        assert spec.values[-1] < 0.0
        out = clamp_psd(spec)
        assert out.clamp_applied
        assert (out.trace, out.frobenius_sq) == (spec.trace, spec.frobenius_sq)

    def test_rejects_genuine_negatives(self):
        spec = diagonal_spectrum(np.array([1.0, -0.5]))
        with pytest.raises(NumericalError, match="below PSD floor"):
            clamp_psd(spec)
