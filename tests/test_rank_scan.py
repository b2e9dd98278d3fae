"""Epsilon ranks and kernel-family rank scans."""

import numpy as np
import pytest

from helpers import random_vectors
from welchkit.features import embedding_dim
from welchkit.kernels import KernelSpec, VectorSet, gram_matrix
from welchkit.linalg import RANK_RTOL, numerical_rank
from welchkit.rank_scan import (
    CSV_HEADER,
    rank_scan,
    scan_csv,
    scan_summary_dict,
)
from welchkit.serialize import format_float


def identity_gram(n):
    vs = VectorSet(vectors=np.eye(n), field="real")
    return gram_matrix(KernelSpec.homogeneous(1), vs)


def ranks(g, thresholds):
    """numerical_rank of the Gram spectrum at each threshold."""
    return [numerical_rank(g.spectrum(), eps) for eps in thresholds]


class TestEpsilonRankProfile:
    def test_identity_full_rank_at_every_threshold(self):
        assert ranks(identity_gram(5), (1e-2, 1e-4, 1e-8)) == [5, 5, 5]

    def test_all_ones_rank_one(self):
        v = np.array([1.0, 0.0])
        vs = VectorSet(vectors=np.stack([v] * 6), field="real")
        g = gram_matrix(KernelSpec.homogeneous(1), vs)
        assert ranks(g, (RANK_RTOL,)) == [1]

    def test_gaussian_profile_monotone(self):
        rng = np.random.default_rng(91)
        vs = random_vectors(rng, 30, 2, unit=True)
        g = gram_matrix(KernelSpec.gaussian(1.0), vs)
        got = ranks(g, (1e-2, 1e-4, 1e-8))
        assert got[0] <= got[1] <= got[2]
        assert g.spectrum().values.shape == (30,)
        with pytest.raises(ValueError, match="no finite-dimensional exact feature map"):
            embedding_dim(g.kernel, 2)

    def test_polynomial_ceiling_metadata(self):
        rng = np.random.default_rng(92)
        vs = random_vectors(rng, 8, 3)
        g = gram_matrix(KernelSpec.homogeneous(2), vs)
        assert embedding_dim(g.kernel, 3) == 6
        assert ranks(g, (RANK_RTOL,)) == [6]

    def test_rejects_bad_thresholds(self):
        spectrum = identity_gram(2).spectrum()
        for bad in (-1.0, float("nan"), np.inf, 10**400, True, "1e-8", None):
            with pytest.raises(ValueError, match="rel_tol"):
                numerical_rank(spectrum, bad)


class TestPolynomialCeiling:
    def test_rank_saturates_with_headroom(self):
        # m = dim + 5 generic vectors: the rank hits the ceiling every time.
        rng = np.random.default_rng(93)
        cases = [
            (KernelSpec.homogeneous(2), 2, 3),
            (KernelSpec.shifted(1, 1.0), 2, 3),
        ]
        for trial in range(50):
            spec, n, dim = cases[trial % len(cases)]
            vs = random_vectors(rng, dim + 5, n)
            assert embedding_dim(spec, n) == dim
            assert ranks(gram_matrix(spec, vs), (RANK_RTOL,)) == [dim]


class TestRankScan:
    def test_homogeneous_family_median_ranks(self):
        family = [KernelSpec.homogeneous(p) for p in (1, 2, 3)]
        result = rank_scan(family, n=2, m=30, trials=20, seed=1001)
        medians = [s.median_rank for s in result.summaries]
        assert medians == [2.0, 3.0, 4.0]
        assert all(s.saturated for s in result.summaries)

    def test_shifted_kernel_augmented_dimension(self):
        result = rank_scan(
            [KernelSpec.shifted(2, 1.0)], n=2, m=30, trials=5, seed=1002
        )
        (summary,) = result.summaries
        assert summary.median_rank == 6.0
        assert summary.theoretical_dim == 6
        assert summary.saturated

    def test_gaussian_scan_reports_without_ceiling(self):
        family = [KernelSpec.gaussian(0.1), KernelSpec.gaussian(10.0)]
        result = rank_scan(family, n=2, m=20, trials=5, seed=1003)
        for summary in result.summaries:
            assert summary.theoretical_dim is None
            assert summary.saturated is None
        assert sum(len(s.ranks) for s in result.summaries) == 10

    def test_deterministic_outputs(self):
        family = [KernelSpec.homogeneous(1), KernelSpec.gaussian(0.5)]
        a = rank_scan(family, n=2, m=8, trials=4, seed=7)
        b = rank_scan(family, n=2, m=8, trials=4, seed=7)
        assert scan_csv(a) == scan_csv(b)
        assert scan_summary_dict(a) == scan_summary_dict(b)

    def test_rejects_m_that_cannot_bind_ceiling(self):
        with pytest.raises(ValueError, match="widest feature dimension 4; need m > 4"):
            rank_scan([KernelSpec.homogeneous(3)], n=2, m=4, trials=2, seed=0)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError, match="kernel family is empty"):
            rank_scan([], n=2, m=8, trials=2, seed=0)
        with pytest.raises(ValueError, match="trials must be an integer in"):
            rank_scan([KernelSpec.homogeneous(1)], n=2, m=8, trials=0, seed=0)
        with pytest.raises(ValueError, match="epsilon must lie in"):
            rank_scan([KernelSpec.homogeneous(1)], n=2, m=8, trials=2, seed=0, epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            rank_scan([KernelSpec.homogeneous(1)], n=2, m=8, trials=2, seed=0, epsilon=np.inf)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            rank_scan([KernelSpec.homogeneous(1)], n=2, m=8, trials=2, seed=0, epsilon=10**400)


class TestScanSerialization:
    def test_csv_layout(self):
        result = rank_scan([KernelSpec.homogeneous(1)], n=2, m=6, trials=3, seed=5)
        text = scan_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert first[0] == "homogeneous p=1"
        assert first[1] == "homogeneous"
        assert first[2] == "1"
        assert first[3] == "" and first[4] == ""
        assert first[5] == "0"
        assert first[6] == format_float(RANK_RTOL)
        assert first[7] == "2"
        assert first[8] == "2"

    def test_summary_dict_shape(self):
        result = rank_scan(
            [KernelSpec.shifted(1, 0.5), KernelSpec.gaussian(2.0)],
            n=2,
            m=8,
            trials=3,
            seed=6,
        )
        doc = scan_summary_dict(result)
        assert doc["n"] == 2 and doc["m"] == 8 and doc["trials"] == 3
        assert doc["seed"] == 6 and doc["epsilon"] == RANK_RTOL
        assert [k["variant"] for k in doc["kernels"]] == ["shifted", "gaussian"]
        assert doc["kernels"][0]["theoretical_dim"] == 3
        assert doc["kernels"][1]["saturated"] is None

    def test_csv_and_json_agree_on_kernel_columns(self):
        kernels = [
            KernelSpec.homogeneous(2),
            KernelSpec.shifted(2, 1),  # c given as an int
            KernelSpec.gaussian(0.5),
        ]
        result = rank_scan(kernels, n=2, m=8, trials=2, seed=7)
        rows = [line.split(",") for line in scan_csv(result).strip().split("\n")[1:]]
        entries = scan_summary_dict(result)["kernels"]
        assert len(rows) == 2 * len(kernels)

        def cell(value, fmt):
            return "" if value is None else fmt(value)

        for i, row in enumerate(rows):
            spec, entry = kernels[i % len(kernels)], entries[i % len(kernels)]
            assert row[:5] == [
                spec.describe(),
                spec.variant,
                cell(spec.p, str),
                cell(spec.c, format_float),
                cell(spec.gamma, format_float),
            ]
            assert [entry[k] for k in CSV_HEADER[:5]] == [
                spec.describe(), spec.variant, spec.p, spec.c, spec.gamma
            ]
        assert rows[1][:5] == ["shifted p=2 c=1", "shifted", "2", "1.0", ""]
        assert type(entries[1]["c"]) is float and entries[1]["c"] == 1.0
        assert rows[2][:5] == ["gaussian gamma=0.5", "gaussian", "", "", "0.5"]
        assert entries[0]["c"] is None and entries[2]["p"] is None
