"""Feature maps: monomial order, symmetric embeddings, and D^H D = G."""

import numpy as np
import pytest

from helpers import pair_kernel, random_vectors
from welchkit.features import (
    BASIS_CAP,
    binomial,
    embedding_dim,
    feature_matrix,
    multinomial,
)
from welchkit.kernels import KernelSpec, VectorSet, gram_matrix


class TestBinomial:
    def test_small_values(self):
        assert binomial(2, 1) == 2
        assert binomial(4, 2) == 6
        assert binomial(0, 0) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial(2, 3)
        with pytest.raises(ValueError):
            binomial(2, -1)
        with pytest.raises(ValueError):
            binomial(2.0, 1)

    def test_overflow_past_int64(self):
        with pytest.raises(ValueError, match=r"C\(200, 100\) exceeds the 64-bit cap"):
            binomial(200, 100)
        # Rejected without computing a number of 2^61 digits.
        with pytest.raises(ValueError, match="exceeds the 64-bit cap"):
            binomial(2**62, 2**61)

    def test_multinomial(self):
        assert multinomial(2, (2, 0)) == 1
        assert multinomial(2, (1, 1)) == 2
        assert multinomial(3, (1, 1, 1)) == 6
        with pytest.raises(ValueError):
            multinomial(3, (1, 1))


def lex_descending_multi_indices(n, p):
    """Degree-p multi-indices over n variables, (p, 0, ..., 0) first."""
    if n == 1:
        return [(p,)]
    return [
        (a,) + rest
        for a in range(p, -1, -1)
        for rest in lex_descending_multi_indices(n - 1, p - a)
    ]


class TestMonomialBasis:
    """The monomial order and the basis cap, seen through the embedding."""

    def test_degree_one(self):
        x = np.array([2.0, 3.0 - 1.0j])
        fm = feature_matrix(KernelSpec.homogeneous(1), VectorSet([x]))
        assert np.array_equal(fm.matrix[:, 0], x)

    def test_degree_two(self):
        # phi((a, b)) = (a^2, sqrt(2) a b, b^2)
        a, b = 2.0, 3.0
        got = feature_matrix(KernelSpec.homogeneous(2), VectorSet([[a, b]])).matrix[:, 0]
        assert np.allclose(got, [a * a, np.sqrt(2) * a * b, b * b], rtol=1e-15, atol=0)

    def test_three_variables_degree_two_length(self):
        fm = feature_matrix(KernelSpec.homogeneous(2), VectorSet(np.ones((1, 3))))
        assert fm.matrix.shape == (6, 1)

    def test_lengths_match_dimension_formula(self):
        for n in range(1, 6):
            for p in range(1, 5):
                fm = feature_matrix(KernelSpec.homogeneous(p), VectorSet(np.ones((1, n))))
                assert fm.feature_dim == binomial(n + p - 1, p)
                assert fm.feature_dim == embedding_dim(KernelSpec.homogeneous(p), n)

    def test_lexicographic_descending(self):
        rng = np.random.default_rng(30)
        for n, p in ((2, 3), (3, 2), (4, 3)):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            want = [
                np.sqrt(multinomial(p, alpha)) * np.prod(x ** np.array(alpha))
                for alpha in lex_descending_multi_indices(n, p)
            ]
            got = feature_matrix(KernelSpec.homogeneous(p), VectorSet([x])).matrix[:, 0]
            assert np.allclose(got, want, rtol=1e-13, atol=0)

    def test_large_n_no_recursion_limit(self):
        ends = np.eye(1200)[[0, -1]]
        fm = feature_matrix(KernelSpec.homogeneous(1), VectorSet(ends))
        assert np.array_equal(fm.matrix, ends.T)

    def test_cap_enforced(self):
        assert binomial(100 + 5 - 1, 5) > BASIS_CAP == 10**6
        assert embedding_dim(KernelSpec.homogeneous(5), 100) == binomial(104, 5)
        with pytest.raises(ValueError, match="n=100, p=5 has 91962520"):
            feature_matrix(KernelSpec.homogeneous(5), VectorSet(np.ones((1, 100))))
        # The shifted map embeds n + 1 coordinates: the same basis from n = 99.
        with pytest.raises(ValueError, match="n=100, p=5 has 91962520"):
            feature_matrix(KernelSpec.shifted(5, 1.0), VectorSet(np.ones((1, 99))))

    def test_weights_overflow_a_float(self):
        # C(1100, 550) is about 1e330, past the largest double.
        with pytest.raises(ValueError, match="multinomial weights"):
            feature_matrix(KernelSpec.homogeneous(1100), VectorSet(np.eye(2)))

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            feature_matrix(KernelSpec.homogeneous(0), VectorSet([np.ones(2)]))
        with pytest.raises(ValueError):
            feature_matrix(KernelSpec.homogeneous(2), VectorSet([np.ones(0)]))


class TestEmbedHomogeneous:
    """The homogeneous map phi, column by column of feature_matrix."""

    def test_basis_vector_survives_single_monomial(self):
        got = feature_matrix(KernelSpec.homogeneous(2), VectorSet([[1.0, 0.0]])).matrix[:, 0]
        assert np.allclose(got, [1.0, 0.0, 0.0])

    def test_degree_two_closed_form(self):
        # (a, b) -> (a^2, sqrt(2) a b, b^2)
        a, b = 2.0, 3.0
        got = feature_matrix(KernelSpec.homogeneous(2), VectorSet([[a, b]])).matrix[:, 0]
        want = np.array([a**2, np.sqrt(2) * a * b, b**2])
        assert np.allclose(got, want, atol=1e-14)

    def test_matches_kernel_n4_p3(self):
        rng = np.random.default_rng(31)
        spec = KernelSpec.homogeneous(3)
        for _ in range(20):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            phi = feature_matrix(spec, VectorSet([x, y])).matrix
            lhs = np.vdot(phi[:, 0], phi[:, 1])
            k = pair_kernel(spec, x, y)
            assert abs(lhs - k) < 1e-10 * max(1.0, abs(k))

    def test_length_is_dimension_formula(self):
        for n in (1, 2, 4):
            for p in (1, 3):
                x = np.arange(1, n + 1, dtype=float)
                fm = feature_matrix(KernelSpec.homogeneous(p), VectorSet([x]))
                assert fm.matrix.shape == (binomial(n + p - 1, p), 1)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            feature_matrix(KernelSpec.homogeneous(2), VectorSet([[np.inf, 1.0]]))


class TestEmbedShifted:
    """The shifted map: phi of (x, sqrt(c)), column by column of feature_matrix."""

    def test_zero_shift_appends_zero(self):
        z = 0.3 + 0.4j
        got = feature_matrix(KernelSpec.shifted(1, 0.0), VectorSet([[z]])).matrix[:, 0]
        assert np.allclose(got, [z, 0.0])

    def test_unit_shift_appends_one(self):
        z = 0.3 + 0.4j
        got = feature_matrix(KernelSpec.shifted(1, 1.0), VectorSet([[z]])).matrix[:, 0]
        assert np.allclose(got, [z, 1.0])

    def test_matches_kernel_n3_p2(self):
        rng = np.random.default_rng(32)
        spec = KernelSpec.shifted(2, 0.7)
        for _ in range(20):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            phi = feature_matrix(spec, VectorSet([x, y])).matrix
            lhs = np.vdot(phi[:, 0], phi[:, 1])
            k = pair_kernel(spec, x, y)
            assert abs(lhs - k) < 1e-10 * max(1.0, abs(k))

    def test_length_is_augmented_dimension_formula(self):
        fm = feature_matrix(KernelSpec.shifted(2, 0.5), VectorSet([[1.0, 2.0, 3.0]]))
        assert fm.matrix.shape == (binomial(5, 2), 1)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            feature_matrix(KernelSpec.shifted(1, -0.5), VectorSet([np.ones(2)]))

    def test_rejects_non_finite_shift(self):
        with pytest.raises(ValueError):
            feature_matrix(KernelSpec.shifted(2, np.nan), VectorSet([np.ones(2)]))


class TestKernelMapEquivalence:
    def test_thousand_random_pairs(self):
        # Both polynomial variants, n <= 6, p <= 4.
        rng = np.random.default_rng(33)
        for trial in range(1000):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, 5))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if trial % 2 == 0:
                spec = KernelSpec.homogeneous(p)
            else:
                spec = KernelSpec.shifted(p, float(rng.uniform(0.0, 2.0)))
            fx, fy = feature_matrix(spec, VectorSet([x, y])).matrix.T
            k = pair_kernel(spec, x, y)
            assert abs(np.vdot(fx, fy) - k) <= 1e-10 * max(1.0, abs(k))

    def test_norm_consistency(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            p = int(rng.integers(1, 5))
            c = float(rng.uniform(0.0, 2.0))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for spec in (KernelSpec.homogeneous(p), KernelSpec.shifted(p, c)):
                phi = feature_matrix(spec, VectorSet([x])).matrix[:, 0]
                nrm = float(np.vdot(phi, phi).real)
                k = pair_kernel(spec, x, x).real
                assert abs(nrm - k) <= 1e-12 * max(1.0, k)


class TestEmbeddingDim:
    def test_polynomial_dimensions(self):
        assert embedding_dim(KernelSpec.homogeneous(2), 3) == 6
        assert embedding_dim(KernelSpec.shifted(2, 1.0), 2) == 6
        assert embedding_dim(KernelSpec.homogeneous(1), 7) == 7

    def test_gaussian_unsupported(self):
        with pytest.raises(ValueError, match="no finite-dimensional exact feature map"):
            embedding_dim(KernelSpec.gaussian(1.0), 3)


class TestFeatureMatrix:
    def test_orthonormal_basis_identity(self):
        vs = VectorSet(vectors=np.eye(3), field="real")
        fm = feature_matrix(KernelSpec.homogeneous(1), vs)
        assert (fm.feature_dim, fm.m) == (3, 3)
        assert np.array_equal(fm.matrix, np.eye(3))
        assert np.array_equal(fm.reconstructed_gram(), np.eye(3))

    def test_reproduces_gram_for_polynomial_variants(self):
        rng = np.random.default_rng(35)
        vs = random_vectors(rng, 7, 3)
        for spec in (
            KernelSpec.homogeneous(1),
            KernelSpec.homogeneous(2),
            KernelSpec.shifted(2, 1.0),
            KernelSpec.shifted(3, 0.5),
        ):
            fm = feature_matrix(spec, vs)
            g = gram_matrix(spec, vs).matrix
            scale = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(fm.reconstructed_gram() - g)) < 1e-10 * scale
            assert fm.feature_dim == embedding_dim(spec, vs.n)

    def test_three_unit_vectors_generic_rank(self):
        rng = np.random.default_rng(36)
        vs = random_vectors(rng, 3, 2, unit=True)
        fm = feature_matrix(KernelSpec.homogeneous(2), vs)
        assert fm.matrix.shape == (3, 3)
        # The eigensolve takes the mirrored Gram, which D^H D matches within 1e-10.
        assert gram_matrix(KernelSpec.homogeneous(2), vs).rank() == 3

    def test_rank_ceiling_random_sets(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            m = int(rng.integers(2, 15))
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, 4))
            spec = (
                KernelSpec.homogeneous(p)
                if rng.integers(2) == 0
                else KernelSpec.shifted(p, float(rng.uniform(0, 2)))
            )
            vs = random_vectors(rng, m, n)
            g = gram_matrix(spec, vs)
            assert g.rank() <= embedding_dim(spec, n)

    def test_generic_rank_saturates_with_gap(self):
        # m >= dim + spare rows: rank hits the formula with a clean spectral gap.
        rng = np.random.default_rng(38)
        for trial in range(50):
            if trial % 2 == 0:
                n, p, spec = 2, 2, KernelSpec.homogeneous(2)
            else:
                n, p, spec = 2, 1, KernelSpec.shifted(1, 1.0)
            dim = embedding_dim(spec, n)
            vs = random_vectors(rng, dim + 5, n)
            g = gram_matrix(spec, vs)
            vals = g.spectrum().values
            assert g.rank() == dim
            assert vals[dim] <= 1e-6 * vals[dim - 1]

    def test_forty_vectors_dimension_six(self):
        rng = np.random.default_rng(39)
        vs = random_vectors(rng, 40, 3)
        g = gram_matrix(KernelSpec.homogeneous(2), vs)
        assert g.rank() == 6

    def test_gaussian_rejected(self):
        vs = VectorSet(vectors=np.eye(2), field="real")
        with pytest.raises(ValueError, match="no finite-dimensional exact feature map"):
            feature_matrix(KernelSpec.gaussian(1.0), vs)
