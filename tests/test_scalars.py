"""The one scalar-validation boundary: errors.check_int and errors.check_real."""

import math
from fractions import Fraction

import numpy as np
import pytest

from welchkit.bounds import welch_coherence_bound, welch_sum_bound
from welchkit.errors import INT64_MAX, InvalidConfigError, check_int, check_real
from welchkit.features import binomial
from welchkit.frames import (
    OptimizerConfig,
    minimize_frame_potential,
    orthonormal_frame,
    potential_gradient,
    random_unit_vectors,
    simplex_frame,
)
from welchkit.kernels import KernelSpec, gram_matrix
from welchkit.linalg import clamp_psd, numerical_rank


class TestCheckInt:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integral_returns_plain_int(self, value):
        got = check_int("k", value, 1)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize(
        "value", [True, 3.0, "3", None, Fraction(3, 1), np.float64(3.0), [3]]
    )
    def test_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="k must be an integer, got"):
            check_int("k", value, 1)

    @pytest.mark.parametrize("value, lo, hi", [(0, 1, 5), (6, 1, 5), (INT64_MAX + 1, 0, INT64_MAX)])
    def test_rejects_out_of_range(self, value, lo, hi):
        with pytest.raises(ValueError, match=r"k must be an integer in \["):
            check_int("k", value, lo, hi)

    def test_caller_error_class(self):
        with pytest.raises(InvalidConfigError):
            check_int("k", 0, 1, error=InvalidConfigError)

    def test_long_values_are_cut_in_the_message(self):
        with pytest.raises(ValueError) as info:
            check_int("k", 10**400, 1)
        assert len(str(info.value)) < 100


class TestCheckReal:
    @pytest.mark.parametrize(
        "value", [0.5, np.float32(0.5), np.float64(0.5), Fraction(1, 2), np.longdouble(0.5)]
    )
    def test_real_returns_plain_float(self, value):
        got = check_real("x", value, 0)
        assert got == 0.5 and type(got) is float

    def test_int_becomes_float(self):
        got = check_real("x", 2, 0)
        assert got == 2.0 and type(got) is float

    @pytest.mark.parametrize("value", [True, "0.5", None, 1j, [0.5]])
    def test_rejects_non_reals(self, value):
        with pytest.raises(ValueError, match="x must be a real number"):
            check_real("x", value, 0)

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, 10**400, -(10**400), Fraction(10**400),
         np.float32("nan")],
    )
    def test_rejects_non_finite_without_overflow(self, value):
        with pytest.raises(ValueError, match="x must be finite"):
            check_real("x", value, -math.inf)

    def test_closed_and_open_ends(self):
        assert check_real("x", 0.0, 0.0, 1.0) == 0.0
        assert check_real("x", 1.0, 0.0, 1.0) == 1.0
        for value in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"x must lie in \(0, 1\)"):
                check_real("x", value, 0.0, 1.0, exclusive=True)


CFG = OptimizerConfig(p=1, max_iters=5, restarts=1)
VS = random_unit_vectors(4, 2, seed=5)
SPECTRUM = gram_matrix(KernelSpec.homogeneous(1), VS).spectrum()

# Each of these ended in a bare TypeError or OverflowError, or was accepted,
# before every scalar went through check_int/check_real.
PROBES = [
    pytest.param(lambda: minimize_frame_potential(4.0, 2, CFG), InvalidConfigError,
                 r"\bm must be an integer", id="minimize-float-m"),
    pytest.param(lambda: random_unit_vectors(3.0, 2), ValueError,
                 r"\bm must be an integer", id="random-float-m"),
    pytest.param(lambda: simplex_frame(2.0), ValueError,
                 r"\bn must be an integer", id="simplex-float-n"),
    pytest.param(lambda: orthonormal_frame(2.0), ValueError,
                 r"\bn must be an integer", id="orthonormal-float-n"),
    pytest.param(lambda: welch_sum_bound(4.5, 2, 2), ValueError,
                 r"\bm must be an integer", id="sum-bound-float-m"),
    pytest.param(lambda: welch_coherence_bound(4.5, 2, 2), ValueError,
                 r"\bm must be an integer", id="coherence-bound-float-m"),
    pytest.param(lambda: OptimizerConfig(p=1, grad_tol=None), InvalidConfigError,
                 "grad_tol", id="config-none-grad-tol"),
    pytest.param(lambda: KernelSpec.shifted(2, 10**400), ValueError,
                 "parameter c", id="shifted-huge-c"),
    pytest.param(lambda: KernelSpec.gaussian(10**400), ValueError,
                 "parameter gamma", id="gaussian-huge-gamma"),
    pytest.param(lambda: welch_sum_bound(True, 2, 2), ValueError,
                 r"\bm must be an integer", id="sum-bound-bool-m"),
    pytest.param(lambda: potential_gradient(VS, 2.0), ValueError,
                 "degree p", id="gradient-float-p"),
    pytest.param(lambda: numerical_rank(SPECTRUM, float("nan")), ValueError,
                 "rel_tol", id="rank-nan-tol"),
    pytest.param(lambda: numerical_rank(SPECTRUM, -1.0), ValueError,
                 "rel_tol", id="rank-negative-tol"),
    pytest.param(lambda: clamp_psd(SPECTRUM, float("nan")), ValueError,
                 "rtol", id="clamp-nan-tol"),
]


@pytest.mark.parametrize("call, error, needle", PROBES)
def test_malformed_scalar_raises_documented_error(call, error, needle):
    with pytest.raises(error, match=needle):
        call()


def test_numpy_integers_accepted_everywhere():
    two = np.int64(2)
    assert KernelSpec.homogeneous(two) == KernelSpec.homogeneous(2)
    assert type(KernelSpec.homogeneous(two).p) is int
    assert binomial(np.int64(4), two) == 6
    assert welch_sum_bound(np.int64(3), two, np.int64(1)) == 4.5
    assert welch_coherence_bound(np.int64(3), two, np.int64(1)).value == 0.5
    cfg = OptimizerConfig(p=np.int64(1), max_iters=np.int64(5), restarts=np.int64(1))
    assert cfg == CFG
    assert minimize_frame_potential(np.int64(4), two, cfg).bound == 8.0
