"""The one validation boundary: errors.check_int and errors.check_real for
scalars, errors.check_array for vectors and matrices."""

import importlib
import math
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import welchkit
from welchkit.bounds import gram_rank_report, welch_coherence_bound, welch_sum_bound
from welchkit.errors import INT64_MAX, check_array, check_int, check_real
from welchkit.features import FeatureMatrix, binomial
from welchkit.frames import (
    OptimizerConfig,
    minimize_frame_potential,
    orthonormal_frame,
    random_unit_vectors,
    simplex_frame,
)
from welchkit.kernels import GramMatrix, KernelSpec, VectorSet, gram_matrix
from welchkit.linalg import numerical_rank


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


def _with_first(entry):
    """The good array with its first entry replaced."""
    def make(good):
        bad = good.astype(object if isinstance(entry, str) else np.complex128)
        bad[(0,) * bad.ndim] = entry
        return bad
    return make


class _ArrayRaisesTypeError:
    """An array-like whose conversion fails with TypeError, not ValueError."""

    def __array__(self, *args, **kwargs):
        raise TypeError("no array here")


# Each row turns a valid vector or matrix into one that check_array refuses.
MALFORMED_ARRAYS = [
    pytest.param(lambda good: good[np.newaxis], id="wrong-ndim"),
    pytest.param(lambda good: good[:0], id="empty-axis"),
    pytest.param(_with_first(complex(math.nan, 0.0)), id="nan-real"),
    pytest.param(_with_first(complex(math.inf, 0.0)), id="inf-real"),
    pytest.param(_with_first(complex(0.0, math.nan)), id="nan-imag"),
    pytest.param(_with_first(complex(1.0, -math.inf)), id="inf-imag"),
    pytest.param(_with_first("x"), id="non-numeric-string"),
    pytest.param(lambda good: np.array([object()] * good.size).reshape(good.shape),
                 id="non-numeric-object"),
    pytest.param(lambda good: good.real.astype(str), id="numeric-strings"),
    pytest.param(lambda good: good.real.astype(bool), id="bools"),
    pytest.param(lambda good: good.astype(object), id="numeric-objects"),
    pytest.param(lambda good: _ArrayRaisesTypeError(), id="array-raises-type-error"),
]

# Every public entry point that takes a vector or a matrix, with a valid one.
# The eigensolve takes only a checked Gram, so the GramMatrix row covers it.
ARRAY_ENTRY_POINTS = [
    pytest.param(VectorSet, np.eye(2), id="VectorSet"),
    pytest.param(FeatureMatrix, np.eye(2), id="FeatureMatrix"),
    pytest.param(lambda a: GramMatrix(a, KernelSpec.homogeneous(1)), np.eye(2),
                 id="GramMatrix"),
]


class TestCheckArray:
    @pytest.mark.parametrize("call, good", ARRAY_ENTRY_POINTS)
    @pytest.mark.parametrize("malform", MALFORMED_ARRAYS)
    def test_malformed_array_raises_value_error(self, call, good, malform):
        call(good)
        with pytest.raises(ValueError):
            call(malform(good))

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: VectorSet([["1", "2j"]]), id="VectorSet-strings"),
            pytest.param(lambda: VectorSet([[True, False]]), id="VectorSet-bools"),
        ],
    )
    def test_strings_and_bools_are_not_numbers(self, call):
        with pytest.raises(ValueError, match="must be numeric, got dtype"):
            call()

    def test_complex128_input_is_returned_as_is(self):
        a = np.ones((2, 3), dtype=np.complex128)
        assert check_array("a", a, 2) is a

    def test_lists_become_complex128(self):
        got = check_array("v", [1, 2.5], 1)
        assert got.dtype == np.complex128 and got.tolist() == [1, 2.5]

    def test_message_names_the_argument(self):
        with pytest.raises(ValueError, match="v must be a 1-D array"):
            check_array("v", [[1.0]], 1)
        with pytest.raises(ValueError, match="v entries must be finite"):
            check_array("v", [math.nan], 1)


def test_gram_rank_report_validates_its_gram_once(monkeypatch):
    # Every check_array call, in any module, from GramMatrix(...) through the
    # report: the constructor's, and no second one in the eigensolve.
    calls = []

    def counting(name, value, ndim):
        calls.append(name)
        return check_array(name, value, ndim)

    g = gram_matrix(KernelSpec.homogeneous(2), random_unit_vectors(64, 4, seed=1))
    for info in pkgutil.iter_modules(welchkit.__path__):
        module = importlib.import_module(f"welchkit.{info.name}")
        if hasattr(module, "check_array"):
            monkeypatch.setattr(module, "check_array", counting)
    gram_rank_report(GramMatrix(g.matrix, g.kernel))
    assert calls == ["Gram matrix"]


CFG = OptimizerConfig(p=1, max_iters=5, restarts=1)
VS = random_unit_vectors(4, 2, seed=5)
SPECTRUM = gram_matrix(KernelSpec.homogeneous(1), VS).spectrum()

# Each of these ended in a bare TypeError or OverflowError, or was accepted,
# before every scalar went through check_int/check_real.
PROBES = [
    pytest.param(lambda: minimize_frame_potential(4.0, 2, CFG), ValueError,
                 r"\bm must be an integer", id="minimize-float-m"),
    pytest.param(lambda: random_unit_vectors(3.0, 2), ValueError,
                 r"\bm must be an integer", id="random-float-m"),
    pytest.param(lambda: random_unit_vectors(3, 2, seed=None), ValueError,
                 r"\bseed must be an integer", id="random-none-seed"),
    pytest.param(lambda: random_unit_vectors(3, 2, seed=1.5), ValueError,
                 r"\bseed must be an integer", id="random-float-seed"),
    pytest.param(lambda: simplex_frame(2.0), ValueError,
                 r"\bn must be an integer", id="simplex-float-n"),
    pytest.param(lambda: orthonormal_frame(2.0), ValueError,
                 r"\bn must be an integer", id="orthonormal-float-n"),
    pytest.param(lambda: welch_sum_bound(4.5, 2, 2), ValueError,
                 r"\bm must be an integer", id="sum-bound-float-m"),
    pytest.param(lambda: welch_coherence_bound(4.5, 2, 2), ValueError,
                 r"\bm must be an integer", id="coherence-bound-float-m"),
    pytest.param(lambda: OptimizerConfig(p=1, grad_tol=None), ValueError,
                 "grad_tol", id="config-none-grad-tol"),
    pytest.param(lambda: KernelSpec.shifted(2, 10**400), ValueError,
                 "parameter c", id="shifted-huge-c"),
    pytest.param(lambda: KernelSpec.gaussian(10**400), ValueError,
                 "parameter gamma", id="gaussian-huge-gamma"),
    pytest.param(lambda: welch_sum_bound(True, 2, 2), ValueError,
                 r"\bm must be an integer", id="sum-bound-bool-m"),
    pytest.param(lambda: OptimizerConfig(p=2.0), ValueError,
                 r"\bp must be an integer", id="config-float-p"),
    pytest.param(lambda: numerical_rank(SPECTRUM, float("nan")), ValueError,
                 "rel_tol", id="rank-nan-tol"),
    pytest.param(lambda: numerical_rank(SPECTRUM, -1.0), ValueError,
                 "rel_tol", id="rank-negative-tol"),
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
    assert welch_coherence_bound(np.int64(3), two, np.int64(1)) == 0.5
    cfg = OptimizerConfig(p=np.int64(1), max_iters=np.int64(5), restarts=np.int64(1))
    assert cfg == CFG
    assert minimize_frame_potential(np.int64(4), two, cfg).bound == 8.0
