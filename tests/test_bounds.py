"""Inequality reports: coherence, power sums, rank form, shifted variants."""

import numpy as np
import pytest

from helpers import apply_map, random_unitary, random_vectors
from welchkit.bounds import (
    BoundReport,
    coherence,
    coherence_report,
    generalized_report,
    gram_rank_report,
    power_sum_report,
    shifted_report,
    shifted_unit_report,
    sum_power_lhs,
    welch_coherence_bound,
    welch_sum_bound,
)
from welchkit.errors import (
    AllZeroVectorsError,
    NotUnitNormError,
    TooFewVectorsError,
)
from welchkit.features import binomial
from welchkit.kernels import KernelSpec, VectorSet, gram_matrix


def plane_simplex():
    """Three unit vectors in the real plane at pairwise angle 120 degrees."""
    ang = 2 * np.pi / 3
    rows = [[np.cos(k * ang), np.sin(k * ang)] for k in range(3)]
    return VectorSet(vectors=np.array(rows), field="real")


def orthonormal(n):
    return VectorSet(vectors=np.eye(n), field="real")


class TestCoherence:
    def test_orthonormal_zero(self):
        assert coherence(orthonormal(4)) == 0.0

    def test_repeated_vector_one(self):
        v = np.array([0.6, 0.8])
        vs = VectorSet(vectors=np.stack([v, v]), field="real")
        assert abs(coherence(vs) - 1.0) < 1e-15

    def test_plane_simplex_half(self):
        assert abs(coherence(plane_simplex()) - 0.5) < 1e-15

    def test_single_vector_rejected(self):
        with pytest.raises(TooFewVectorsError):
            coherence(VectorSet(vectors=np.eye(1), field="real"))


class TestWelchCoherenceBound:
    def test_three_vectors_in_plane(self):
        b = welch_coherence_bound(3, 2, 1)
        assert b.value == 0.5
        assert not b.vacuous

    def test_vacuous_at_m_equal_dim(self):
        b = welch_coherence_bound(2, 2, 1)
        assert b.value == 0.0
        assert b.vacuous

    def test_seven_vectors_in_plane(self):
        b = welch_coherence_bound(7, 2, 1)
        assert abs(b.value - 0.6454972243679028) < 1e-15

    def test_vacuous_for_higher_degree(self):
        # C(n+p-1, p) = C(3, 2) = 3 >= m
        assert welch_coherence_bound(3, 2, 2).vacuous

    def test_rejects_single_vector(self):
        with pytest.raises(TooFewVectorsError):
            welch_coherence_bound(1, 2, 1)

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            welch_coherence_bound(3, 2, 0)


class TestSumPowerLhs:
    def test_orthonormal_counts_diagonal(self):
        for p in (1, 2, 3):
            assert sum_power_lhs(orthonormal(4), p) == 4.0

    def test_repeated_vector_m_squared(self):
        v = np.array([1.0, 0.0])
        vs = VectorSet(vectors=np.stack([v] * 5), field="real")
        assert abs(sum_power_lhs(vs, 2) - 25.0) < 1e-12

    def test_plane_simplex(self):
        # 3 diagonal ones + 6 off-diagonal 0.25 terms
        assert abs(sum_power_lhs(plane_simplex(), 1) - 4.5) < 1e-12


class TestWelchSumBound:
    def test_plane_values(self):
        assert welch_sum_bound(3, 2, 1) == 4.5

    def test_orthonormal_feasible_value(self):
        assert welch_sum_bound(6, 6, 1) == 6.0

    def test_higher_degree(self):
        assert welch_sum_bound(10, 3, 2) == pytest.approx(100 / 6, rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            welch_sum_bound(0, 2, 1)
        with pytest.raises(ValueError):
            welch_sum_bound(2, 2, 0)


class TestPowerSumReport:
    def test_simplex_tight(self):
        rep = power_sum_report(plane_simplex(), 1)
        assert rep.inequality_id == "power-sum"
        assert rep.holds and rep.tight
        assert abs(rep.lhs - 4.5) < 1e-12
        assert rep.rhs == 4.5
        assert (rep.m, rep.n, rep.p) == (3, 2, 1)

    def test_random_unit_sets_hold(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, 4))
            vs = random_vectors(rng, m, n, unit=True)
            assert power_sum_report(vs, p).holds

    def test_rejects_non_unit(self):
        vs = VectorSet(vectors=2 * np.eye(2), field="real")
        with pytest.raises(NotUnitNormError):
            power_sum_report(vs, 1)


class TestGramRankReport:
    def test_identity_gram_tight(self):
        g = gram_matrix(KernelSpec.linear(), orthonormal(4))
        rep = gram_rank_report(g)
        assert rep.inequality_id == "gram-rank"
        assert rep.lhs == 4.0 and rep.rhs == 4.0
        assert rep.r == 4
        assert rep.tight

    def test_all_ones_gram_tight(self):
        v = np.array([1.0, 0.0])
        vs = VectorSet(vectors=np.stack([v] * 5), field="real")
        rep = gram_rank_report(gram_matrix(KernelSpec.linear(), vs))
        assert rep.r == 1
        assert abs(rep.lhs - 25.0) < 1e-9
        assert abs(rep.rhs - 25.0) < 1e-9
        assert rep.tight

    def test_random_set_holds(self):
        rng = np.random.default_rng(52)
        vs = random_vectors(rng, 10, 3)
        rep = gram_rank_report(gram_matrix(KernelSpec.homogeneous(2), vs))
        assert rep.holds
        assert rep.slack >= -1e-9 * max(1.0, abs(rep.rhs))
        assert rep.p == 2 and rep.c is None
        assert rep.r <= 6

    def test_holds_across_kernel_variants(self):
        rng = np.random.default_rng(53)
        specs = [
            KernelSpec.homogeneous(3),
            KernelSpec.shifted(2, 1.0),
            KernelSpec.gaussian(0.5),
        ]
        for _ in range(20):
            vs = random_vectors(rng, 8, 3)
            for spec in specs:
                assert gram_rank_report(gram_matrix(spec, vs)).holds

    def test_rank_form_at_least_as_strong_as_dimension_form(self):
        # With unit vectors and the degree-p kernel, rhs = m^2 / r and
        # r <= C(n+p-1, p), so this rhs dominates the dimension-based one;
        # they agree exactly when the rank saturates.
        rng = np.random.default_rng(54)
        for _ in range(100):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            vs = random_vectors(rng, m, n, unit=True)
            rep = gram_rank_report(gram_matrix(KernelSpec.homogeneous(p), vs))
            dim_rhs = welch_sum_bound(m, n, p)
            assert rep.rhs >= dim_rhs - 1e-9 * max(1.0, dim_rhs)
            if rep.r == binomial(n + p - 1, p):
                assert rep.rhs == pytest.approx(dim_rhs, rel=1e-10)

    def test_tight_iff_equal_nonzero_eigenvalues(self):
        cases = [
            gram_matrix(KernelSpec.linear(), orthonormal(3)),
            gram_matrix(KernelSpec.linear(), plane_simplex()),
            gram_matrix(
                KernelSpec.linear(),
                VectorSet(
                    vectors=np.array([[np.sqrt(2), 0.0], [0.0, 1.0]]),
                    field="real",
                ),
            ),
        ]
        rng = np.random.default_rng(55)
        for _ in range(10):
            vs = random_vectors(rng, 6, 3, unit=True)
            cases.append(gram_matrix(KernelSpec.homogeneous(2), vs))
        for g in cases:
            rep = gram_rank_report(g)
            vals = g.spectrum().values
            nz = vals[vals > 1e-8 * vals[0]] if vals[0] > 0 else vals[:0]
            equal_nonzero = nz.size > 0 and (nz[0] - nz[-1]) <= 1e-8 * nz[0]
            assert rep.tight == equal_nonzero


class TestGeneralizedReport:
    def test_unit_sets_match_power_sum_scaled(self):
        rng = np.random.default_rng(56)
        vs = random_vectors(rng, 7, 3, unit=True)
        for p in (1, 2, 3):
            gen = generalized_report(vs, p)
            ps = power_sum_report(vs, p)
            assert gen.lhs == pytest.approx(ps.lhs / vs.m**2, rel=1e-12)
            assert gen.rhs == pytest.approx(ps.rhs / vs.m**2, rel=1e-12)

    def test_single_scaled_vector(self):
        vs = VectorSet(vectors=np.array([[2.0, 0.0]]), field="real")
        rep = generalized_report(vs, 1)
        assert rep.lhs == pytest.approx(1.0, rel=1e-12)
        assert rep.rhs == 0.5
        assert rep.holds

    def test_random_non_unit_sets_hold(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, 4))
            vs = random_vectors(rng, m, n)
            assert generalized_report(vs, p).holds

    def test_scale_invariance(self):
        rng = np.random.default_rng(58)
        vs = random_vectors(rng, 6, 3)
        base = generalized_report(vs, 2).lhs
        for t in (1e-200, 0.1, 3.0, 17.0, 1e200):
            scaled = VectorSet(vectors=t * vs.vectors)
            got = generalized_report(scaled, 2).lhs
            assert abs(got - base) < 1e-12 * base

    def test_all_zero_vectors_rejected(self):
        vs = VectorSet(vectors=np.zeros((3, 2)), field="real")
        with pytest.raises(AllZeroVectorsError):
            generalized_report(vs, 1)


class TestShiftedReport:
    def test_repeated_unit_vector_closed_form(self):
        v = np.array([0.0, 1.0])
        m, p, c = 3, 2, 0.5
        vs = VectorSet(vectors=np.stack([v] * m), field="real")
        rep = shifted_report(vs, p, c)
        want_lhs = m**2 * (1 + c) ** (2 * p)
        assert rep.lhs == pytest.approx(want_lhs, rel=1e-12)
        assert rep.rhs == pytest.approx(want_lhs / binomial(4, 2), rel=1e-12)
        assert rep.holds
        assert rep.rhs_unit == pytest.approx(rep.rhs, rel=1e-12)

    def test_zero_shift_weaker_than_power_sum_bound(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            vs = random_vectors(rng, m, n, unit=True)
            rep = shifted_report(vs, p, 0.0)
            assert rep.rhs == pytest.approx(
                m**2 / binomial(n + p, p), rel=1e-10
            )
            assert rep.rhs <= welch_sum_bound(m, n, p) + 1e-12

    def test_four_unit_vectors_known_rhs(self):
        rng = np.random.default_rng(60)
        vs = random_vectors(rng, 4, 2, unit=True)
        rep = shifted_report(vs, 1, 1.0)
        assert abs(rep.rhs - 64.0 / 3.0) < 1e-12

    def test_non_unit_set_has_no_unit_metadata(self):
        vs = VectorSet(vectors=2 * np.eye(2), field="real")
        rep = shifted_report(vs, 1, 1.0)
        assert rep.rhs_unit is None
        assert rep.holds

    def test_random_sets_hold(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            c = float(rng.uniform(0.0, 2.0))
            vs = random_vectors(rng, m, n)
            assert shifted_report(vs, p, c).holds

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            shifted_report(orthonormal(2), 1, -1.0)


class TestShiftedUnitReport:
    def test_matches_general_form_on_unit_sets(self):
        rng = np.random.default_rng(62)
        vs = random_vectors(rng, 5, 3, unit=True)
        a = shifted_unit_report(vs, 2, 1.0)
        b = shifted_report(vs, 2, 1.0)
        assert a.lhs == b.lhs
        assert a.rhs == pytest.approx(b.rhs, rel=1e-10)
        assert a.inequality_id == "shifted-unit"
        assert a.holds

    def test_rejects_non_unit(self):
        vs = VectorSet(vectors=2 * np.eye(2), field="real")
        with pytest.raises(NotUnitNormError):
            shifted_unit_report(vs, 1, 0.5)


class TestCoherenceReport:
    def test_simplex_equality(self):
        rep = coherence_report(plane_simplex(), 1)
        assert rep.inequality_id == "coherence"
        assert abs(rep.lhs - 0.5) < 1e-12
        assert rep.rhs == 0.5
        assert rep.tight and not rep.vacuous

    def test_orthonormal_vacuous(self):
        rep = coherence_report(orthonormal(3), 1)
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.vacuous and rep.tight and rep.holds

    def test_random_overcomplete_unit_sets_hold(self):
        rng = np.random.default_rng(63)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n + 1, 15))
            vs = random_vectors(rng, m, n, unit=True)
            assert coherence_report(vs, 1).holds

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnitNormError):
            coherence_report(
                VectorSet(vectors=2 * np.eye(3), field="real"), 1
            )


class TestChainConsistency:
    def test_coherence_dominates_power_sum(self):
        # m(m-1) mu^(2p) + m >= sum-power lhs >= dimension bound.
        rng = np.random.default_rng(64)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(2, 12))
            p = int(rng.integers(1, 4))
            vs = random_vectors(rng, m, n, unit=True)
            mu = coherence(vs)
            s = sum_power_lhs(vs, p)
            upper = m * (m - 1) * mu ** (2 * p) + m
            assert upper >= s - 1e-9 * max(1.0, s)
            lower = welch_sum_bound(m, n, p)
            assert s >= lower - 1e-9 * max(1.0, lower)


class TestInvarianceUnderUnitaries:
    def test_reports_stable_under_common_rotation(self):
        rng = np.random.default_rng(65)
        vs = random_vectors(rng, 6, 3, unit=True)
        u = random_unitary(rng, 3)
        moved = apply_map(u, vs)
        pairs = [
            (coherence_report(vs, 1), coherence_report(moved, 1)),
            (power_sum_report(vs, 2), power_sum_report(moved, 2)),
            (generalized_report(vs, 2), generalized_report(moved, 2)),
            (shifted_report(vs, 2, 0.5), shifted_report(moved, 2, 0.5)),
            (
                gram_rank_report(gram_matrix(KernelSpec.homogeneous(2), vs)),
                gram_rank_report(gram_matrix(KernelSpec.homogeneous(2), moved)),
            ),
        ]
        for a, b in pairs:
            assert abs(a.lhs - b.lhs) < 1e-10 * max(1.0, abs(a.lhs))
            assert abs(a.rhs - b.rhs) < 1e-10 * max(1.0, abs(a.rhs))


class TestBoundReportValidation:
    def test_rejects_inconsistent_slack(self):
        with pytest.raises(ValueError):
            BoundReport(
                inequality_id="power-sum",
                lhs=2.0,
                rhs=1.0,
                slack=0.5,
                holds=True,
                tight=False,
            )

    def test_rejects_tight_without_holds(self):
        with pytest.raises(ValueError):
            BoundReport(
                inequality_id="power-sum",
                lhs=0.0,
                rhs=2.0,
                slack=-2.0,
                holds=False,
                tight=True,
            )

    def test_to_dict_field_order(self):
        rep = power_sum_report(plane_simplex(), 1)
        keys = list(rep.to_dict().keys())
        assert keys == [
            "inequality_id",
            "lhs",
            "rhs",
            "slack",
            "holds",
            "tight",
            "m",
            "n",
            "p",
            "c",
            "r",
            "vacuous",
            "rhs_unit",
        ]
