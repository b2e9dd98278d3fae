"""Inequality evaluation: lower bounds on inner-product power sums and
coherence, with slack and tightness reporting.

Every checker returns a ``BoundReport`` carrying both sides of one
inequality, the signed slack lhs - rhs, and two verdicts: ``holds`` (slack
not meaningfully negative) and ``tight`` (slack negligible).  Both verdicts
use relative tolerances against max(1, |rhs|) so they behave sensibly when
rhs is near zero.

Inequality identifiers:

    "coherence"     max off-diagonal |<x_i, x_j>| vs the 2p-th root bound
    "power-sum"     sum_ij |<x_i, x_j>|^(2p) vs m^2 / C(n+p-1, p)
    "gram-rank"     ||G||_F^2 vs (Re tr G)^2 / rank(G), any PSD kernel Gram
    "generalized"   the normalized power-sum ratio vs 1 / C(n+p-1, p)
    "shifted"       sum_ij |<x_i, x_j> + c|^(2p) vs its augmented-dimension bound
    "shifted-unit"  the unit-norm simplification of "shifted"

Double sums always include the diagonal i = j terms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    AllZeroVectorsError,
    NotUnitNormError,
    NumericalError,
    TooFewVectorsError,
    WelchKitError,
)
from .features import binomial
from .kernels import GramMatrix, KernelSpec, VectorSet, inner_table, power_sum
from .linalg import frobenius_norm_sq, trace

# A bound "holds" when slack >= -CHECK_TOL * max(1, |rhs|).
CHECK_TOL = 1e-9

# A bound is "tight" when it holds and |slack| <= TIGHT_TOL * max(1, |rhs|).
TIGHT_TOL = 1e-6

# Unit-norm gates: strict for bounds that assume unit vectors, tighter for
# recording the simplified unit-norm rhs as metadata.
UNIT_NORM_TOL = 1e-9
UNIT_METADATA_TOL = 1e-12


class CoherenceBound(NamedTuple):
    """Bound value plus a flag for the regime where it degenerates to 0."""

    value: float
    vacuous: bool


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance: both sides, slack, verdicts, and metadata.

    m, n, p, c, r are filled where applicable, None otherwise.  vacuous is
    set only by coherence reports; rhs_unit only by shifted reports on
    unit-norm sets (the simplified rhs recorded alongside the general one).
    """

    inequality_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tight: bool
    m: int | None = None
    n: int | None = None
    p: int | None = None
    c: float | None = None
    r: int | None = None
    vacuous: bool | None = None
    rhs_unit: float | None = None

    def __post_init__(self):
        if self.slack != self.lhs - self.rhs:
            raise ValueError("slack must equal lhs - rhs")
        scale = max(1.0, abs(self.rhs))
        if self.holds != (self.slack >= -CHECK_TOL * scale):
            raise ValueError("holds flag inconsistent with slack")
        if self.tight and not self.holds:
            raise ValueError("tight requires holds")

    def to_dict(self) -> dict:
        """Flat dict of every field, in declaration order."""
        return asdict(self)


def _build(inequality_id, lhs, rhs, **metadata) -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise NumericalError(f"{inequality_id}: lhs {lhs} or rhs {rhs} is not finite")
    slack = lhs - rhs
    scale = max(1.0, abs(rhs))
    holds = slack >= -CHECK_TOL * scale
    tight = holds and abs(slack) <= TIGHT_TOL * scale
    return BoundReport(
        inequality_id=inequality_id,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=holds,
        tight=tight,
        **metadata,
    )


def _require_degree(p: int):
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValueError("degree p must be an integer >= 1")


def _require_unit_norms(vs: VectorSet, tol: float):
    devs = np.abs(vs.norms() - 1.0)
    if np.max(devs) > tol:
        worst = int(np.argmax(devs))
        raise NotUnitNormError(
            f"vector {worst} has norm {vs.norms()[worst]:.12g}, "
            f"outside 1 +/- {tol:g}"
        )


def coherence(vs: VectorSet) -> float:
    """Largest off-diagonal |<x_i, x_j>|."""
    if vs.m < 2:
        raise TooFewVectorsError("coherence needs at least two vectors")
    return float(np.max(np.triu(np.abs(inner_table(vs.vectors)), 1)))


def welch_coherence_bound(m: int, n: int, p: int) -> CoherenceBound:
    """2p-th root of (1/(m-1)) (m / C(n+p-1, p) - 1), or 0 when vacuous.

    The radicand is non-positive when m <= C(n+p-1, p); in that regime the
    bound says nothing and the vacuous flag is set.
    """
    if m < 2:
        raise TooFewVectorsError("coherence bound needs m >= 2")
    if n < 1:
        raise ValueError("ambient dimension n must be >= 1")
    _require_degree(p)
    denom = binomial(n + p - 1, p)
    radicand = Fraction(m - denom, denom * (m - 1))
    if radicand <= 0:
        return CoherenceBound(0.0, True)
    return CoherenceBound(float(radicand) ** (1.0 / (2.0 * p)), False)


def sum_power_lhs(vs: VectorSet, p: int) -> float:
    """Full double sum of |<x_i, x_j>|^(2p), diagonal included."""
    _require_degree(p)
    return power_sum(inner_table(vs.vectors), p)


def welch_sum_bound(m: int, n: int, p: int) -> float:
    """m^2 / C(n+p-1, p), exact rational then converted to float."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    _require_degree(p)
    return float(Fraction(m * m, binomial(n + p - 1, p)))


def power_sum_report(vs: VectorSet, p: int) -> BoundReport:
    """Power-sum inequality for a unit-norm set."""
    _require_unit_norms(vs, UNIT_NORM_TOL)
    lhs = sum_power_lhs(vs, p)
    rhs = welch_sum_bound(vs.m, vs.n, p)
    return _build("power-sum", lhs, rhs, m=vs.m, n=vs.n, p=p)


def gram_rank_report(g: GramMatrix) -> BoundReport:
    """||G||_F^2 >= (Re tr G)^2 / rank(G): holds for every PSD Gram.

    The Cauchy-Schwarz step behind it compares the eigenvalue power sums,
    so any PSD matrix satisfies it; rank 0 (the zero matrix) gets rhs 0.
    """
    r = g.rank()  # spectrum computation raises NotPSDError on indefinite input
    lhs = frobenius_norm_sq(g.matrix)
    tr = float(trace(g.matrix).real)
    rhs = tr * tr / r if r > 0 else 0.0
    kernel = g.kernel
    return _build(
        "gram-rank",
        lhs,
        rhs,
        m=g.m,
        n=None,
        p=kernel.p,
        c=kernel.c,
        r=r,
    )


def generalized_report(vs: VectorSet, p: int) -> BoundReport:
    """Normalized ratio form: works for arbitrary (non-unit) vectors.

    lhs = sum_ij |<x_i, x_j>|^(2p) / (sum_i |x_i|^(2p))^2, rhs = 1 / C(n+p-1, p).
    Invariant under global rescaling of the whole set, so it is evaluated on
    the set divided by its largest entry modulus, which no scale can overflow.
    """
    _require_degree(p)
    scale = float(np.max(np.abs(vs.vectors)))
    if scale == 0.0:
        raise AllZeroVectorsError("ratio undefined: every vector is zero")
    scaled = VectorSet(vs.vectors / scale)
    lhs = sum_power_lhs(scaled, p) / float(np.sum(scaled.norms() ** (2 * p))) ** 2
    rhs = 1.0 / binomial(vs.n + p - 1, p)
    return _build("generalized", lhs, rhs, m=vs.m, n=vs.n, p=p)


def shifted_report(vs: VectorSet, p: int, c: float) -> BoundReport:
    """Shifted-kernel power sum vs its augmented-dimension bound.

    lhs = sum_ij |<x_i, x_j> + c|^(2p);
    rhs = (sum_i (|x_i|^2 + c)^p)^2 / C(n+p, p).

    On unit-norm sets (within 1e-12) the simplified rhs
    m^2 (1+c)^(2p) / C(n+p, p) is recorded as rhs_unit and cross-checked
    against the general rhs.
    """
    c = KernelSpec.shifted(p, c).c
    lhs = power_sum(inner_table(vs.vectors) + c, p)
    denom = binomial(vs.n + p, p)
    norm_sq = vs.norms() ** 2
    rhs = float(np.sum((norm_sq + c) ** p)) ** 2 / denom
    rhs_unit = None
    if np.max(np.abs(vs.norms() - 1.0)) <= UNIT_METADATA_TOL:
        rhs_unit = vs.m**2 * (1.0 + c) ** (2 * p) / denom
        if abs(rhs_unit - rhs) > 1e-10 * max(1.0, abs(rhs)):
            raise WelchKitError(
                "unit-norm shifted rhs disagrees with the general form"
            )
    return _build(
        "shifted", lhs, rhs, m=vs.m, n=vs.n, p=p, c=c, rhs_unit=rhs_unit
    )


def shifted_unit_report(vs: VectorSet, p: int, c: float) -> BoundReport:
    """Unit-norm form of the shifted bound: rhs = m^2 (1+c)^(2p) / C(n+p, p)."""
    c = KernelSpec.shifted(p, c).c
    _require_unit_norms(vs, UNIT_NORM_TOL)
    lhs = power_sum(inner_table(vs.vectors) + c, p)
    denom = binomial(vs.n + p, p)
    rhs = vs.m**2 * (1.0 + c) ** (2 * p) / denom
    return _build(
        "shifted-unit", lhs, rhs, m=vs.m, n=vs.n, p=p, c=c, rhs_unit=rhs
    )


def coherence_report(vs: VectorSet, p: int) -> BoundReport:
    """Coherence vs the 2p-th root bound; assumes unit-norm vectors."""
    if vs.m < 2:
        raise TooFewVectorsError("coherence needs at least two vectors")
    _require_degree(p)
    _require_unit_norms(vs, UNIT_NORM_TOL)
    lhs = coherence(vs)
    bound = welch_coherence_bound(vs.m, vs.n, p)
    return _build(
        "coherence",
        lhs,
        bound.value,
        m=vs.m,
        n=vs.n,
        p=p,
        vacuous=bound.vacuous,
    )
