"""Kernel evaluation and Gram matrix construction."""

import numpy as np
import pytest

from helpers import apply_map, random_unitary, random_vectors
from welchkit.errors import DimensionMismatchError
from welchkit.kernels import (
    GramMatrix,
    KernelSpec,
    VectorSet,
    eval_kernel,
    gram_matrix,
    inner_product,
)
from welchkit.linalg import hermitian_eigenvalues

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def all_variants():
    return [
        KernelSpec.homogeneous(1),
        KernelSpec.homogeneous(2),
        KernelSpec.homogeneous(3),
        KernelSpec.shifted(1, 1.0),
        KernelSpec.shifted(2, 0.5),
        KernelSpec.gaussian(0.5),
        KernelSpec.gaussian(2.0),
    ]


class TestInnerProduct:
    def test_same_basis_vector(self):
        assert inner_product(E1, E1) == 1.0

    def test_orthogonal_basis_vectors(self):
        assert inner_product(E1, E2) == 0.0

    def test_complex_conjugation_side(self):
        # conj(x)^T y = (1*1 + (-i)*(-i)) / 2 = (1 - 1) / 2 = 0
        x = np.array([1.0, 1.0j]) / np.sqrt(2)
        y = np.array([1.0, -1.0j]) / np.sqrt(2)
        assert inner_product(x, y) == 0.0

    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s = 0.7 - 1.3j
        lhs = inner_product(s * x, y)
        rhs = np.conj(s) * inner_product(x, y)
        assert abs(lhs - rhs) < 1e-12

    def test_self_inner_product_real_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v = inner_product(x, x)
            assert v.imag == 0.0
            assert v.real >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(np.ones(2), np.ones(3))


class TestEvalKernel:
    def test_homogeneous_unit_self(self):
        spec = KernelSpec.homogeneous(2)
        assert eval_kernel(spec, E1, E1) == 1.0

    def test_shifted_orthogonal(self):
        spec = KernelSpec.shifted(1, 1.0)
        assert eval_kernel(spec, E1, E2) == 1.0

    def test_homogeneous_cube_of_half(self):
        # Unit vectors with inner product exactly 0.5.
        x = E1
        y = np.array([0.5, np.sqrt(0.75)])
        spec = KernelSpec.homogeneous(3)
        assert abs(eval_kernel(spec, x, y) - 0.125) < 1e-15

    def test_gaussian_self_is_one(self):
        spec = KernelSpec.gaussian(3.7)
        assert eval_kernel(spec, E1, E1) == 1.0

    def test_gaussian_known_distance(self):
        # |e1 - e2|^2 = 2
        spec = KernelSpec.gaussian(0.5)
        got = eval_kernel(spec, E1, E2)
        assert abs(got - np.exp(-1.0)) < 1e-15

    def test_self_kernel_real_nonnegative(self):
        rng = np.random.default_rng(11)
        for spec in all_variants():
            for _ in range(10):
                x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                v = eval_kernel(spec, x, x)
                assert v.imag == 0.0
                assert v.real >= 0.0

    def test_conjugate_symmetry_all_variants(self):
        rng = np.random.default_rng(12)
        for spec in all_variants():
            for _ in range(25):
                x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                kxy = eval_kernel(spec, x, y)
                kyx = eval_kernel(spec, y, x)
                assert abs(kxy - np.conj(kyx)) <= 1e-14 * max(1.0, abs(kxy))

    def test_dimension_mismatch(self):
        for spec in (KernelSpec.homogeneous(2), KernelSpec.gaussian(1.0)):
            with pytest.raises(DimensionMismatchError):
                eval_kernel(spec, np.ones(2), np.ones(4))


class TestKernelSpecValidation:
    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            KernelSpec.homogeneous(0)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            KernelSpec.shifted(2, -0.1)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            KernelSpec.gaussian(0.0)

    def test_rejects_non_numeric_parameters(self):
        for bad in (None, True, "0.5", [0.5]):
            with pytest.raises(ValueError, match="parameter c"):
                KernelSpec.shifted(2, bad)
            with pytest.raises(ValueError, match="parameter gamma"):
                KernelSpec.gaussian(bad)

    def test_rejects_stray_parameters(self):
        with pytest.raises(ValueError):
            KernelSpec("homogeneous", p=2, gamma=1.0)
        with pytest.raises(ValueError):
            KernelSpec("gaussian", p=2, gamma=1.0)
        with pytest.raises(ValueError, match="homogeneous kernel takes no shift c"):
            KernelSpec("homogeneous", p=2, c=1.0)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            KernelSpec("sigmoid", p=1)

    def test_describe(self):
        assert KernelSpec.homogeneous(2).describe() == "homogeneous p=2"
        assert KernelSpec.shifted(2, 0.5).describe() == "shifted p=2 c=0.5"
        assert KernelSpec.gaussian(2.0).describe() == "gaussian gamma=2"


class TestVectorSet:
    def test_shape_and_counts(self):
        vs = VectorSet(vectors=np.eye(3), field="real")
        assert (vs.m, vs.n) == (3, 3)

    def test_real_field_rejects_imaginary(self):
        with pytest.raises(ValueError):
            VectorSet(vectors=np.array([[1.0 + 1e-30j]]), field="real")

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            VectorSet(vectors=np.eye(2), field="rational")

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            VectorSet(vectors=np.array([[np.inf, 0.0]]))

    def test_labels_must_match_count(self):
        with pytest.raises(ValueError):
            VectorSet(vectors=np.eye(2), labels=("a",))

    def test_storage_is_read_only(self):
        vs = VectorSet(vectors=np.eye(2))
        with pytest.raises(ValueError):
            vs.vectors[0, 0] = 5.0

    def test_callers_array_stays_writeable(self):
        # A complex128 array needs no conversion, so only a copy keeps it apart.
        a = np.ones((2, 2), dtype=np.complex128)
        vs = VectorSet(vectors=a)
        a[0, 0] = 5.0
        assert vs.vectors[0, 0] == 1.0

    def test_norms(self):
        vs = VectorSet(vectors=np.array([[3.0, 4.0], [0.0, 1.0]]), field="real")
        assert np.allclose(vs.norms(), [5.0, 1.0])


class TestGramMatrix:
    def test_orthonormal_basis_linear_kernel_identity(self):
        vs = VectorSet(vectors=np.eye(4), field="real")
        g = gram_matrix(KernelSpec.homogeneous(1), vs)
        assert np.array_equal(g.matrix, np.eye(4))

    def test_repeated_vector_all_ones(self):
        v = np.array([0.6, 0.8])
        vs = VectorSet(vectors=np.stack([v] * 5), field="real")
        g = gram_matrix(KernelSpec.homogeneous(1), vs)
        assert np.allclose(g.matrix, np.ones((5, 5)), atol=1e-15)

    def test_plane_simplex_gram(self):
        # Three unit vectors at pairwise angle 120 degrees: cos = -0.5.
        ang = 2 * np.pi / 3
        rows = [[np.cos(k * ang), np.sin(k * ang)] for k in range(3)]
        vs = VectorSet(vectors=np.array(rows), field="real")
        g = gram_matrix(KernelSpec.homogeneous(1), vs).matrix
        assert np.allclose(np.diag(g), 1.0, atol=1e-15)
        off = g[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5, atol=1e-15)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_scalar_oracle(self, field):
        # Table-based Gram vs eval_kernel entry by entry, norms from 0.1 to 1e3.
        rng = np.random.default_rng(25)
        base = random_vectors(rng, 9, 4, field=field, unit=True).vectors
        scales = np.logspace(-1, 3, 9)
        vs = VectorSet(vectors=base * scales[:, np.newaxis], field=field)
        for spec in all_variants() + [KernelSpec.gaussian(1e-6)]:
            g = gram_matrix(spec, vs).matrix
            for i in range(vs.m):
                for j in range(vs.m):
                    k = eval_kernel(spec, vs.vectors[i], vs.vectors[j])
                    assert abs(g[i, j] - k) <= 1e-12 * max(1.0, abs(k)), (spec, i, j)
            if spec.variant == "gaussian":
                assert np.all(np.diag(g) == 1.0)

    def test_exact_hermitian_symmetry(self):
        rng = np.random.default_rng(21)
        vs = random_vectors(rng, 8, 3)
        for spec in all_variants():
            g = gram_matrix(spec, vs).matrix
            assert np.array_equal(g, g.conj().T)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(22)
        vs = random_vectors(rng, 6, 4)
        u = random_unitary(rng, 4)
        moved = apply_map(u, vs)
        for spec in all_variants():
            g0 = gram_matrix(spec, vs).matrix
            g1 = gram_matrix(spec, moved).matrix
            assert np.max(np.abs(g0 - g1)) < 1e-10

    def test_psd_across_variants(self):
        # 200 random draws spread over every kernel variant.
        rng = np.random.default_rng(23)
        variants = all_variants()
        for trial in range(200):
            m = int(rng.integers(2, 31))
            n = int(rng.integers(1, 7))
            field = "complex" if trial % 2 == 0 else "real"
            vs = random_vectors(rng, m, n, field=field)
            spec = variants[trial % len(variants)]
            g = gram_matrix(spec, vs)
            vals = hermitian_eigenvalues(g.matrix).values
            assert vals[-1] >= -1e-9 * max(vals[0], 0.0)

    def test_unit_diagonal_for_homogeneous_on_unit_vectors(self):
        rng = np.random.default_rng(24)
        vs = random_vectors(rng, 10, 4, unit=True)
        for p in (1, 2, 3):
            g = gram_matrix(KernelSpec.homogeneous(p), vs).matrix
            assert np.max(np.abs(np.diag(g) - 1.0)) < 1e-12

    def test_spectrum_cached(self):
        vs = VectorSet(vectors=np.eye(3), field="real")
        g = gram_matrix(KernelSpec.homogeneous(1), vs)
        assert g.spectrum() is g.spectrum()

    def test_rank_of_identity_gram(self):
        vs = VectorSet(vectors=np.eye(5), field="real")
        assert gram_matrix(KernelSpec.homogeneous(1), vs).rank() == 5

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ValueError):
            GramMatrix(matrix=np.diag([1.0, -1.0]), kernel=KernelSpec.homogeneous(1))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="Gram matrix must be square"):
            GramMatrix(matrix=np.ones((2, 3)), kernel=KernelSpec.homogeneous(1))
