"""Kernel evaluation and Gram matrix construction."""

import json

import numpy as np
import pytest

from helpers import apply_map, pair_kernel, random_unitary, random_vectors
from welchkit import cli, kernels
from welchkit.bounds import gram_rank_report
from welchkit.errors import NumericalError
from welchkit.features import FeatureMatrix
from welchkit.frames import simplex_frame
from welchkit.kernels import GramMatrix, KernelSpec, VectorSet, gram_matrix, inner_table
from welchkit.linalg import hermitian_eigenvalues, numerical_rank
from welchkit.rank_scan import rank_scan
from welchkit.serialize import read_vector_set, vector_set_to_dict, write_vector_set

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


def pair_table(x, y):
    """inner_table of the two-row array [x; y]: T[0, 1] = <x, y>."""
    return inner_table(np.array([x, y], dtype=np.complex128))


def pair_gram(spec, x, y):
    """The Gram matrix of the two-vector set [x, y]: G[0, 1] = k(x, y)."""
    return gram_matrix(spec, VectorSet([x, y])).matrix


class TestInnerProduct:
    """The <x, y> = x^H y convention, read from inner_table."""

    def test_same_basis_vector(self):
        assert pair_table(E1, E1)[0, 1] == 1.0

    def test_orthogonal_basis_vectors(self):
        assert pair_table(E1, E2)[0, 1] == 0.0

    def test_complex_conjugation_side(self):
        # conj(x)^T y = 1*1 + (-i)*(-i) = 1 - 1 = 0, where x^T y would be 2.  Entries
        # of modulus 1 keep every product exact: BLAS may fuse the multiply-adds.
        x = np.array([1.0, 1.0j])
        y = np.array([1.0, -1.0j])
        assert pair_table(x, y)[0, 1] == 0.0

    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s = 0.7 - 1.3j
        lhs = pair_table(s * x, y)[0, 1]
        rhs = np.conj(s) * pair_table(x, y)[0, 1]
        assert abs(lhs - rhs) < 1e-12

    def test_self_inner_product_real_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            # The table's own diagonal may carry a rounding-sized imaginary part;
            # the Gram of the linear kernel stores it real.
            v = gram_matrix(KernelSpec.homogeneous(1), VectorSet([x])).matrix[0, 0]
            assert v.imag == 0.0
            assert v.real >= 0.0


class TestEvalKernel:
    """Known kernel values, read from the Gram matrices of two-vector sets."""

    def test_homogeneous_unit_self(self):
        spec = KernelSpec.homogeneous(2)
        assert np.all(pair_gram(spec, E1, E1) == 1.0)

    def test_shifted_orthogonal(self):
        spec = KernelSpec.shifted(1, 1.0)
        assert pair_gram(spec, E1, E2)[0, 1] == 1.0

    def test_homogeneous_cube_of_half(self):
        # Unit vectors with inner product exactly 0.5.
        x = E1
        y = np.array([0.5, np.sqrt(0.75)])
        spec = KernelSpec.homogeneous(3)
        assert abs(pair_gram(spec, x, y)[0, 1] - 0.125) < 1e-15

    def test_gaussian_self_is_one(self):
        spec = KernelSpec.gaussian(3.7)
        assert np.all(pair_gram(spec, E1, E1) == 1.0)

    def test_gaussian_known_distance(self):
        # |e1 - e2|^2 = 2
        spec = KernelSpec.gaussian(0.5)
        got = pair_gram(spec, E1, E2)[0, 1]
        assert abs(got - np.exp(-1.0)) < 1e-15

    def test_self_kernel_real_nonnegative(self):
        rng = np.random.default_rng(11)
        for spec in all_variants():
            for _ in range(10):
                x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                v = gram_matrix(spec, VectorSet([x])).matrix[0, 0]
                assert v.imag == 0.0
                assert v.real >= 0.0

    def test_conjugate_symmetry_all_variants(self):
        # G[0, 1] is computed, not mirrored, in both orders of the pair.
        rng = np.random.default_rng(12)
        for spec in all_variants():
            for _ in range(25):
                x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                kxy = pair_gram(spec, x, y)[0, 1]
                kyx = pair_gram(spec, y, x)[0, 1]
                assert abs(kxy - np.conj(kyx)) <= 1e-14 * max(1.0, abs(kxy))


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
        for bad in (True, "0.5", [0.5]):
            with pytest.raises(ValueError, match="parameter c"):
                KernelSpec.shifted(2, bad)
        for bad in (None, True, "0.5", [0.5]):
            with pytest.raises(ValueError, match="parameter gamma"):
                KernelSpec.gaussian(bad)

    def test_absent_shift_is_zero(self):
        assert KernelSpec("shifted", p=2).c == KernelSpec.shifted(2, None).c == 0.0
        assert KernelSpec("shifted", p=2) == KernelSpec.shifted(2, 0)

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

    @staticmethod
    def check_file(tmp_path, capsys, name, doc):
        """Exit code, stdout and stderr of `welch check` on doc written to name."""
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        code = cli.main(["check", "--in", str(path), "--inequality", "power-sum", "--p", "2"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @classmethod
    def assert_labels_rejected(cls, tmp_path, capsys, labels):
        doc = {**vector_set_to_dict(simplex_frame(2)), "labels": labels}
        code, out, err = cls.check_file(tmp_path, capsys, "set.json", doc)
        assert (code, out) == (2, "")
        assert "labels must be a list of m strings" in err

    # A file's labels are checked on reading, then dropped: a VectorSet has none.
    def test_labels_must_match_count(self, tmp_path, capsys):
        self.assert_labels_rejected(tmp_path, capsys, ["a", "b"])

    @pytest.mark.parametrize("labels", [None, "abc", {"0": "a"}, ["a", "b", 3], ["a", None, "c"]])
    def test_labels_must_be_a_list_of_strings(self, tmp_path, capsys, labels):
        self.assert_labels_rejected(tmp_path, capsys, labels)

    def test_labelled_file_reads_as_the_unlabelled_one(self, tmp_path, capsys):
        doc = vector_set_to_dict(random_vectors(np.random.default_rng(7), 3, 2, unit=True))
        plain = self.check_file(tmp_path, capsys, "plain.json", doc)
        labelled = self.check_file(tmp_path, capsys, "labelled.json",
                                   {**doc, "labels": ["a", "", 'q"\u00e9']})
        assert plain == labelled and plain[0] == 0
        back = read_vector_set(str(tmp_path / "labelled.json"))
        plain_back = read_vector_set(str(tmp_path / "plain.json"))
        assert back.vectors.tobytes() == plain_back.vectors.tobytes()
        assert not hasattr(back, "labels")

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
        # Table-based Gram vs the per-pair oracle entry by entry, norms from 0.1 to 1e3.
        rng = np.random.default_rng(25)
        base = random_vectors(rng, 9, 4, field=field, unit=True).vectors
        scales = np.logspace(-1, 3, 9)
        vs = VectorSet(vectors=base * scales[:, np.newaxis], field=field)
        for spec in all_variants() + [KernelSpec.gaussian(1e-6)]:
            g = gram_matrix(spec, vs).matrix
            for i in range(vs.m):
                for j in range(vs.m):
                    k = pair_kernel(spec, vs.vectors[i], vs.vectors[j])
                    assert abs(g[i, j] - k) <= 1e-12 * max(1.0, abs(k)), (spec, i, j)
            if spec.variant == "gaussian":
                assert np.all(np.diag(g) == 1.0)

    def test_exact_hermitian_symmetry(self):
        rng = np.random.default_rng(21)
        vs = random_vectors(rng, 8, 3)
        for spec in all_variants():
            g = gram_matrix(spec, vs).matrix
            assert np.array_equal(g, g.conj().T)

    @pytest.mark.parametrize(
        "spec, m, n",
        [
            # m=500 n=8: the inner table is one blocked zgemm.
            pytest.param(KernelSpec.homogeneous(2), 500, 8, id="homogeneous-500x8"),
            pytest.param(KernelSpec.shifted(3, 0.5), 60, 4, id="shifted-60x4"),
            # 13 rows per block of _GAUSSIAN_BLOCK entries: eight row blocks.
            pytest.param(KernelSpec.gaussian(0.5), 100, 3, id="gaussian-100x3"),
        ],
    )
    def test_gram_is_exactly_hermitian(self, spec, m, n):
        # GramMatrix rejects anything else, so the eigensolve can take G as it is.
        vs = random_vectors(np.random.default_rng(m + n), m, n)
        g = gram_matrix(spec, vs)
        assert np.array_equal(g.matrix, g.matrix.conj().T)

    @pytest.mark.parametrize(
        "spec, m, n",
        [
            pytest.param(KernelSpec.homogeneous(1), 6, 8, id="homogeneous"),
            pytest.param(KernelSpec.shifted(2, 1.0), 10, 4, id="shifted"),
            pytest.param(KernelSpec.gaussian(0.5), 40, 3, id="gaussian"),
        ],
    )
    def test_spectrum_is_bare_eigvalsh(self, spec, m, n):
        vs = random_vectors(np.random.default_rng(m), m, n)
        g = gram_matrix(spec, vs)
        spectrum = g.spectrum()
        assert not spectrum.clamp_applied
        assert spectrum.values.tobytes() == np.linalg.eigvalsh(g.matrix)[::-1].tobytes()

    @pytest.mark.parametrize(
        "spec", [KernelSpec.homogeneous(2000), KernelSpec.shifted(2000, 1.0)],
        ids=["homogeneous", "shifted"],
    )
    def test_overflowing_gram_is_a_numerical_error(self, spec):
        # 3^4000 is past float range; a user-given non-finite Gram stays a ValueError.
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match=spec.describe()):
            gram_matrix(spec, VectorSet([[2, 0], [0, 3]]))

    def test_rejects_one_ulp_asymmetry(self):
        g = gram_matrix(KernelSpec.homogeneous(1), random_vectors(np.random.default_rng(4), 5, 3))
        a = np.array(g.matrix)
        a[3, 1] = complex(np.nextafter(a[3, 1].real, np.inf), a[3, 1].imag)
        with pytest.raises(ValueError, match="Gram matrix must be exactly Hermitian"):
            GramMatrix(a, g.kernel)

    def test_rejects_tiny_imaginary_diagonal(self):
        a = np.eye(3, dtype=np.complex128)
        a[2, 2] += 1e-300j
        with pytest.raises(ValueError, match="Gram matrix must be exactly Hermitian"):
            GramMatrix(a, KernelSpec.homogeneous(1))

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

    def test_rank_of_identity_gram(self):
        vs = VectorSet(vectors=np.eye(5), field="real")
        assert numerical_rank(gram_matrix(KernelSpec.homogeneous(1), vs).spectrum()) == 5

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ValueError):
            GramMatrix(matrix=np.diag([1.0, -1.0]), kernel=KernelSpec.homogeneous(1))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="Gram matrix must be square"):
            GramMatrix(matrix=np.ones((2, 3)), kernel=KernelSpec.homogeneous(1))


class TestOneEigensolvePerGram:
    """Each caller asks a Gram for its spectrum once and takes the rank from it."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []
        solve = kernels.hermitian_eigenvalues

        def counted(a):
            calls.append(a.shape)
            return solve(a)

        monkeypatch.setattr(kernels, "hermitian_eigenvalues", counted)
        return calls

    def test_gram_rank_report(self, eig_calls):
        vs = random_vectors(np.random.default_rng(5), 8, 3)
        report = gram_rank_report(gram_matrix(KernelSpec.homogeneous(2), vs))
        assert report.r == 6
        assert eig_calls == [(8, 8)]

    def test_embed_check(self, eig_calls, tmp_path, capsys):
        path = tmp_path / "set.json"
        write_vector_set(str(path), random_vectors(np.random.default_rng(6), 7, 2))
        assert cli.main(["embed-check", "--in", str(path), "--p", "2"]) == 0
        assert "rank=3" in capsys.readouterr().out
        assert eig_calls == [(7, 7)]

    def test_failing_embed_check_does_not_eigensolve(self, eig_calls, tmp_path, capsys,
                                                      monkeypatch):
        path = tmp_path / "set.json"
        write_vector_set(str(path), simplex_frame(2))
        exact = cli.feature_matrix

        def perturbed(spec, vs):
            d = exact(spec, vs).matrix.copy()
            d[np.unravel_index(np.argmax(np.abs(d)), d.shape)] *= 1.0 + 1e-6
            return FeatureMatrix(d)

        monkeypatch.setattr(cli, "feature_matrix", perturbed)
        assert cli.main(["embed-check", "--in", str(path), "--p", "2", "--c", "1"]) == 4
        assert "does not reproduce the Gram" in capsys.readouterr().err
        assert eig_calls == []

    def test_rank_scan(self, eig_calls):
        family = (KernelSpec.homogeneous(1), KernelSpec.shifted(1, 1.0), KernelSpec.gaussian(0.5))
        rank_scan(family, n=2, m=5, trials=2, seed=3)
        assert eig_calls == [(5, 5)] * 6


def row_loop_upper(gamma, x):
    """The gaussian table's upper triangle as the one-row-at-a-time loop built it."""
    m = x.shape[0]
    k = np.eye(m)
    for i in range(m - 1):
        d = x[i + 1:] - x[i]
        k[i, i + 1:] = np.exp(-gamma * np.sum(d.real**2 + d.imag**2, axis=1))
    return np.triu(k, 1)


class TestGaussianTable:
    """The broadcast table against the row loop it replaced, bit for bit."""

    @pytest.mark.parametrize("m, n", [(500, 8), (100, 3), (64, 4), (40, 3), (7, 1), (2000, 2)])
    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_upper_triangle_matches_row_loop(self, m, n, field):
        x = random_vectors(np.random.default_rng(m + n), m, n, field=field).vectors
        table = kernels._gaussian_table(0.5, x)
        assert np.array_equal(np.triu(table, 1), row_loop_upper(0.5, x))
        assert np.array_equal(table.diagonal(), np.ones(m))

    @pytest.mark.parametrize("rows", [1, 3, 7, 39])
    def test_row_blocks_that_do_not_divide_m(self, monkeypatch, rows):
        m, n = 40, 3
        x = random_vectors(np.random.default_rng(6), m, n).vectors
        whole = kernels._gaussian_table(2.0, x)
        monkeypatch.setattr(kernels, "_GAUSSIAN_BLOCK", rows * m * n)
        blocked = kernels._gaussian_table(2.0, x)
        assert np.array_equal(blocked, whole)
        assert np.array_equal(np.triu(blocked, 1), row_loop_upper(2.0, x))

    def test_block_smaller_than_one_row(self, monkeypatch):
        monkeypatch.setattr(kernels, "_GAUSSIAN_BLOCK", 1)
        x = random_vectors(np.random.default_rng(8), 9, 2).vectors
        assert np.array_equal(np.triu(kernels._gaussian_table(0.5, x), 1),
                              row_loop_upper(0.5, x))

    def test_long_vectors_close_together(self):
        # Norms about 1e8, differences about 1e-4: |x_i|^2 + |x_j|^2 - 2 Re T[i, j]
        # would lose every digit, the direct difference keeps them.
        rng = np.random.default_rng(9)
        base = 1e8 * random_vectors(rng, 1, 3, unit=True).vectors
        x = base + 1e-4 * random_vectors(rng, 6, 3).vectors
        gamma = 1e7
        g = gram_matrix(KernelSpec.gaussian(gamma), VectorSet(x)).matrix
        dist_sq = np.zeros((6, 6))
        for i in range(6):
            for j in range(6):
                d = x[i] - x[j]
                dist_sq[i, j] = np.vdot(d, d).real
                want = np.exp(-gamma * dist_sq[i, j])
                assert 1e-3 < want < 1.0 or i == j
                assert abs(g[i, j] - want) <= 1e-14 * want, (i, j)
        norms_sq = np.sum(np.abs(x) ** 2, axis=1)
        expanded = norms_sq[:, None] + norms_sq[None, :] - 2 * (np.conj(x) @ x.T).real
        assert np.max(np.abs(expanded - dist_sq)) > 100 * np.max(dist_sq)
