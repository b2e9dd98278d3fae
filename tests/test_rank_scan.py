"""Epsilon-rank profiles and kernel-family rank scans."""

import numpy as np
import pytest

from helpers import random_vectors
from welchkit.errors import InvalidScanError
from welchkit.kernels import KernelSpec, VectorSet, gram_matrix
from welchkit.rank_scan import (
    CSV_HEADER,
    DEFAULT_EPSILON,
    RankProfile,
    epsilon_rank_profile,
    rank_scan,
    scan_csv,
    scan_summary_dict,
)
from welchkit.serialize import format_float


def identity_gram(n):
    vs = VectorSet(vectors=np.eye(n), field="real")
    return gram_matrix(KernelSpec.linear(), vs)


class TestEpsilonRankProfile:
    def test_identity_full_rank_at_every_threshold(self):
        profile = epsilon_rank_profile(identity_gram(5), (1e-2, 1e-4, 1e-8))
        assert profile.ranks == (5, 5, 5)
        assert profile.thresholds == (1e-2, 1e-4, 1e-8)

    def test_all_ones_rank_one(self):
        v = np.array([1.0, 0.0])
        vs = VectorSet(vectors=np.stack([v] * 6), field="real")
        g = gram_matrix(KernelSpec.linear(), vs)
        assert epsilon_rank_profile(g).ranks == (1,)

    def test_gaussian_profile_monotone(self):
        rng = np.random.default_rng(91)
        vs = random_vectors(rng, 30, 2, unit=True)
        g = gram_matrix(KernelSpec.gaussian(1.0), vs)
        profile = epsilon_rank_profile(g, (1e-2, 1e-4, 1e-8))
        assert profile.ranks[0] <= profile.ranks[1] <= profile.ranks[2]
        assert profile.spectrum.values.shape == (30,)
        assert profile.theoretical_dim is None

    def test_polynomial_ceiling_metadata(self):
        rng = np.random.default_rng(92)
        vs = random_vectors(rng, 8, 3)
        g = gram_matrix(KernelSpec.homogeneous(2), vs)
        with_n = epsilon_rank_profile(g, n=3)
        assert with_n.theoretical_dim == 6
        without_n = epsilon_rank_profile(g)
        assert without_n.theoretical_dim is None

    def test_rejects_bad_thresholds(self):
        g = identity_gram(2)
        with pytest.raises(ValueError):
            epsilon_rank_profile(g, (1e-8, 1e-4))
        with pytest.raises(ValueError):
            epsilon_rank_profile(g, (0.0,))
        with pytest.raises(ValueError):
            epsilon_rank_profile(g, ())

    def test_profile_invariant_validation(self):
        g = identity_gram(2)
        base = epsilon_rank_profile(g, (1e-2, 1e-8))
        with pytest.raises(ValueError):
            RankProfile(
                kernel=base.kernel,
                m=base.m,
                n=None,
                thresholds=(1e-2, 1e-8),
                ranks=(2, 1),
                theoretical_dim=None,
                spectrum=base.spectrum,
            )


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
            profile = epsilon_rank_profile(gram_matrix(spec, vs), n=n)
            assert profile.theoretical_dim == dim
            assert profile.ranks[0] == dim


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
        assert len(result.rows) == 10

    def test_deterministic_outputs(self):
        family = [KernelSpec.homogeneous(1), KernelSpec.gaussian(0.5)]
        a = rank_scan(family, n=2, m=8, trials=4, seed=7)
        b = rank_scan(family, n=2, m=8, trials=4, seed=7)
        assert scan_csv(a) == scan_csv(b)
        assert scan_summary_dict(a) == scan_summary_dict(b)

    def test_rejects_m_that_cannot_bind_ceiling(self):
        with pytest.raises(InvalidScanError):
            rank_scan([KernelSpec.homogeneous(3)], n=2, m=4, trials=2, seed=0)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(InvalidScanError):
            rank_scan([], n=2, m=8, trials=2, seed=0)
        with pytest.raises(InvalidScanError):
            rank_scan([KernelSpec.linear()], n=2, m=8, trials=0, seed=0)
        with pytest.raises(InvalidScanError):
            rank_scan([KernelSpec.linear()], n=2, m=8, trials=2, seed=0, epsilon=0.0)
        with pytest.raises(InvalidScanError):
            rank_scan([KernelSpec.linear()], n=2, m=8, trials=2, seed=0, epsilon=np.inf)


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
        assert first[6] == format_float(DEFAULT_EPSILON)
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
        assert doc["seed"] == 6 and doc["epsilon"] == DEFAULT_EPSILON
        assert [k["variant"] for k in doc["kernels"]] == ["shifted", "gaussian"]
        assert doc["kernels"][0]["theoretical_dim"] == 3
        assert doc["kernels"][1]["saturated"] is None
