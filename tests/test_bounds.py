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
    welch_coherence_bound,
    welch_sum_bound,
)
from welchkit.errors import NumericalError
from welchkit.features import binomial
from welchkit.frames import random_unit_vectors
from welchkit.kernels import KernelSpec, VectorSet, gram_matrix, inner_table, power_sum


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
        with pytest.raises(NumericalError, match="coherence needs at least two vectors"):
            coherence(VectorSet(vectors=np.eye(1), field="real"))


class TestWelchCoherenceBound:
    def test_three_vectors_in_plane(self):
        b = welch_coherence_bound(3, 2, 1)
        assert b == 0.5

    def test_vacuous_at_m_equal_dim(self):
        b = welch_coherence_bound(2, 2, 1)
        assert b == 0.0
        assert type(b) is float

    def test_seven_vectors_in_plane(self):
        b = welch_coherence_bound(7, 2, 1)
        assert abs(b - 0.6454972243679028) < 1e-15

    def test_vacuous_for_higher_degree(self):
        # C(n+p-1, p) = C(3, 2) = 3 >= m
        assert welch_coherence_bound(3, 2, 2) == 0.0

    def test_rejects_single_vector(self):
        with pytest.raises(NumericalError, match="coherence bound needs m >= 2"):
            welch_coherence_bound(1, 2, 1)

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError, match="kernel degree p"):
            welch_coherence_bound(3, 2, 0)


class TestSumPowerLhs:
    """The power-sum lhs: power_sum of the inner-product table."""

    def test_orthonormal_counts_diagonal(self):
        for p in (1, 2, 3):
            assert power_sum(inner_table(orthonormal(4).vectors), p) == 4.0

    def test_repeated_vector_m_squared(self):
        v = np.array([1.0, 0.0])
        vs = VectorSet(vectors=np.stack([v] * 5), field="real")
        assert abs(power_sum(inner_table(vs.vectors), 2) - 25.0) < 1e-12

    def test_plane_simplex(self):
        # 3 diagonal ones + 6 off-diagonal 0.25 terms
        assert abs(power_sum(inner_table(plane_simplex().vectors), 1) - 4.5) < 1e-12


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
        with pytest.raises(NumericalError, match="vector 0 has norm 2, outside 1"):
            power_sum_report(vs, 1)


class TestGramRankReport:
    def test_identity_gram_tight(self):
        g = gram_matrix(KernelSpec.homogeneous(1), orthonormal(4))
        rep = gram_rank_report(g)
        assert rep.inequality_id == "gram-rank"
        assert rep.lhs == 4.0 and rep.rhs == 4.0
        assert rep.r == 4
        assert rep.tight

    def test_all_ones_gram_tight(self):
        v = np.array([1.0, 0.0])
        vs = VectorSet(vectors=np.stack([v] * 5), field="real")
        rep = gram_rank_report(gram_matrix(KernelSpec.homogeneous(1), vs))
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
            gram_matrix(KernelSpec.homogeneous(1), orthonormal(3)),
            gram_matrix(KernelSpec.homogeneous(1), plane_simplex()),
            gram_matrix(
                KernelSpec.homogeneous(1),
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
        with pytest.raises(NumericalError, match="every vector is zero"):
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

    @pytest.mark.parametrize("p, c", [(30, 0.0), (60, 0.5)])
    def test_norms_within_metadata_tolerance_pass_the_cross_check(self, p, c):
        """Norms 1 + 9e-13 are within 1e-12 of 1 and may move the general rhs
        by up to (1 + 1e-12)^(4p) - 1 of rhs_unit: more than 1e-10 here."""
        vs = VectorSet(random_unit_vectors(300, 2, seed=1).vectors * (1 + 9e-13))
        rep = shifted_report(vs, p, c)
        assert rep.holds
        gap = abs(rep.rhs - rep.rhs_unit)
        assert 1e-10 * rep.rhs_unit < gap <= ((1 + 1e-12) ** (4 * p) - 1) * rep.rhs_unit

    def test_cross_check_tolerance_does_not_overflow_at_huge_degree(self):
        """(1 + 1e-12)^(4p) is past float range at p = 1e15; the report still holds."""
        rep = shifted_report(VectorSet(vectors=np.array([[1.0], [-1.0]])), 10**15, 0.0)
        assert rep.holds and rep.rhs_unit == rep.rhs

    def test_overflowing_rhs_is_a_numerical_error(self):
        """A norm of 1 + 1e-13 to the power 10^17 is past float range."""
        vs = VectorSet(np.array([[1 + 1e-13], [1.0]]))
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="not finite"):
            shifted_report(vs, 10**17, 0.0)


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
        with pytest.raises(NumericalError, match="vector 0 has norm 2, outside 1"):
            shifted_unit_report(vs, 1, 0.5)

    @pytest.mark.parametrize(
        "report, vs, p, c",
        [
            # (1 + c)^(2p) = 2^1200 in the unit form.
            (shifted_unit_report, random_unit_vectors(4, 2, seed=1), 600, 1.0),
            (shifted_report, random_unit_vectors(4, 2, seed=1), 600, 1.0),
            # (sum_i |x_i|^4)^2 = 4e400 in the trace form.
            (shifted_report, VectorSet(vectors=1e50 * np.eye(2)), 2, 0.0),
        ],
        ids=["unit-form", "shifted-unit-norms", "shifted-trace-form"],
    )
    def test_rhs_beyond_float_range_is_numerical_error(self, report, vs, p, c):
        """A NumericalError, not a bare OverflowError.  numpy's own overflow
        in the lhs is silenced so that the rhs is reached."""
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="float range"):
            report(vs, p, c)


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
        with pytest.raises(NumericalError, match="vector 0 has norm 2, outside 1"):
            coherence_report(
                VectorSet(vectors=2 * np.eye(3), field="real"), 1
            )

    def test_bad_degree_reported_before_bad_norms(self):
        with pytest.raises(ValueError, match="kernel degree p"):
            coherence_report(VectorSet(vectors=2 * np.eye(3), field="real"), 0)

    def test_single_vector_fails_in_the_bound(self):
        with pytest.raises(NumericalError, match="coherence bound needs m >= 2"):
            coherence_report(orthonormal(1), 1)

    def test_numpy_degree_stored_as_int(self):
        assert type(coherence_report(plane_simplex(), np.int64(1)).p) is int


OMEGA = np.exp(2j * np.pi / 3)


def tetrahedron_sic():
    """SIC in C^2: four unit vectors with |<x_i, x_j>|^2 = 1/3, a 2-design."""
    rows = [[1.0, 0.0]] + [[1 / np.sqrt(3), np.sqrt(2 / 3) * OMEGA**k] for k in range(3)]
    return VectorSet(vectors=np.array(rows))


def octahedron_mubs():
    """The three mutually unbiased bases of C^2: six vectors, a 3-design."""
    s = 1 / np.sqrt(2)
    rows = [[1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]]
    return VectorSet(vectors=np.array(rows, dtype=complex))


def qutrit_mubs():
    """The four mutually unbiased bases of C^3: the standard basis and
    (omega^(a k^2 + b k))_k / sqrt(3) for a, b in {0, 1, 2}; a 2-design."""
    k = np.arange(3)
    rows = [OMEGA ** (a * k**2 + b * k) / np.sqrt(3) for a in range(3) for b in range(3)]
    return VectorSet(vectors=np.vstack([np.eye(3), rows]))


def homogeneous_gram_rank_report(vs, p):
    return gram_rank_report(gram_matrix(KernelSpec.homogeneous(p), vs))


class TestExactDesigns:
    """A complex projective t-design meets the degree-p bounds for p <= t and
    misses them by a clear margin at p = t + 1."""

    @pytest.mark.parametrize(
        "design, strength",
        [
            pytest.param(tetrahedron_sic, 2, id="tetrahedron-sic"),
            pytest.param(octahedron_mubs, 3, id="octahedron-mubs"),
            pytest.param(qutrit_mubs, 2, id="qutrit-mubs"),
        ],
    )
    @pytest.mark.parametrize(
        "report",
        [
            pytest.param(power_sum_report, id="power-sum"),
            pytest.param(generalized_report, id="generalized"),
            pytest.param(homogeneous_gram_rank_report, id="gram-rank"),
        ],
    )
    def test_tight_exactly_up_to_design_strength(self, design, strength, report):
        vs = design()
        for p in range(1, strength + 1):
            rep = report(vs, p)
            assert rep.tight, p
            assert abs(rep.slack) <= 1e-12 * rep.rhs, p
        rep = report(vs, strength + 1)
        assert rep.holds and not rep.tight
        assert rep.slack >= 0.01 * rep.rhs


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
            s = power_sum(inner_table(vs.vectors), p)
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
    # holds: slack >= -1e-9 max(1, |rhs|); tight: holds and |slack| <= 1e-6 max(1, |rhs|).
    @pytest.mark.parametrize(
        "lhs, rhs, holds, tight",
        [
            pytest.param(-1e-9, 0.0, True, True, id="holds-edge"),
            pytest.param(np.nextafter(-1e-9, -1.0), 0.0, False, False,
                         id="just-below-holds-edge"),
            pytest.param(1e-6, 0.0, True, True, id="tight-edge"),
            pytest.param(np.nextafter(1e-6, 1.0), 0.0, True, False,
                         id="just-past-tight-edge"),
            pytest.param(1e6 - 5e-4, 1e6, True, True, id="relative-holds"),
            pytest.param(1e6 - 2e-3, 1e6, False, False, id="relative-violated"),
            pytest.param(1e6 + 2.0, 1e6, True, False, id="relative-loose"),
        ],
    )
    def test_derives_verdicts(self, lhs, rhs, holds, tight):
        rep = BoundReport("power-sum", lhs, rhs)
        assert rep.slack == lhs - rhs
        assert (rep.holds, rep.tight) == (holds, tight)
        assert type(rep.lhs) is float and type(rep.holds) is bool

    @pytest.mark.parametrize(
        "lhs, rhs", [(np.nan, 1.0), (np.inf, 1.0), (1.0, -np.inf)]
    )
    def test_non_finite_side_raises(self, lhs, rhs):
        with pytest.raises(NumericalError, match="is not finite"):
            BoundReport("power-sum", lhs, rhs)

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
