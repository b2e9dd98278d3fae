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

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericalError, check_int
from .features import embedding_dim
from .kernels import GramMatrix, KernelSpec, VectorSet, inner_table, power_sum
from .linalg import numerical_rank

# A bound "holds" when slack >= -CHECK_TOL * max(1, |rhs|).
CHECK_TOL = 1e-9

# A bound is "tight" when it holds and |slack| <= TIGHT_TOL * max(1, |rhs|).
TIGHT_TOL = 1e-6

# Unit-norm gates: strict for bounds that assume unit vectors, tighter for
# recording the simplified unit-norm rhs as metadata.
UNIT_NORM_TOL = 1e-9
UNIT_METADATA_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance: both sides, slack, verdicts, and metadata.

    slack, holds and tight are derived from lhs and rhs on construction.
    m, n, p, c, r are filled where applicable, None otherwise.  vacuous is
    set only by coherence reports; rhs_unit only by shifted reports on
    unit-norm sets (the simplified rhs recorded alongside the general one).
    """

    inequality_id: str
    lhs: float
    rhs: float
    slack: float = field(init=False)
    holds: bool = field(init=False)
    tight: bool = field(init=False)
    m: int | None = None
    n: int | None = None
    p: int | None = None
    c: float | None = None
    r: int | None = None
    vacuous: bool | None = None
    rhs_unit: float | None = None

    def __post_init__(self):
        lhs, rhs = float(self.lhs), float(self.rhs)
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            raise NumericalError(
                f"{self.inequality_id}: lhs {lhs} or rhs {rhs} is not finite"
            )
        slack = lhs - rhs
        scale = max(1.0, abs(rhs))
        holds = slack >= -CHECK_TOL * scale
        tight = holds and abs(slack) <= TIGHT_TOL * scale
        for name, value in (
            ("lhs", lhs), ("rhs", rhs), ("slack", slack), ("holds", holds), ("tight", tight)
        ):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """Flat dict of every field, in declaration order."""
        return asdict(self)


def _require_unit_norms(vs: VectorSet) -> np.ndarray:
    """The norms of vs, each within UNIT_NORM_TOL of 1, else NumericalError."""
    norms = vs.norms()
    devs = np.abs(norms - 1.0)
    if np.max(devs) > UNIT_NORM_TOL:
        worst = int(np.argmax(devs))
        raise NumericalError(
            f"vector {worst} has norm {norms[worst]:.12g}, outside 1 +/- {UNIT_NORM_TOL:g}"
        )
    return norms


# Coherence inner products per row block: at most 2^22 entries (64 MiB complex),
# so a large set never holds its whole m x m table.
_COHERENCE_BLOCK = 2**22


def coherence(vs: VectorSet) -> float:
    """Largest off-diagonal |<x_i, x_j>|: a running maximum over row blocks of
    the strict upper triangle (exact in any order; one block when m <= 2048)."""
    if vs.m < 2:
        raise NumericalError("coherence needs at least two vectors")
    x = vs.vectors
    rows = max(1, _COHERENCE_BLOCK // vs.m)
    return float(max(
        np.max(np.triu(np.abs(inner_table(x[i:i + rows], x)), i + 1))
        for i in range(0, vs.m, rows)
    ))


def welch_coherence_bound(m: int, n: int, p: int) -> float:
    """2p-th root of (1/(m-1)) (m / C(n+p-1, p) - 1), or 0.0 when vacuous.

    The radicand is non-positive when m <= C(n+p-1, p); in that regime the
    bound says nothing and is exactly 0.0.  Otherwise it is positive: the
    radicand is at least 1 / (C(n+p-1, p) (m-1)).
    """
    m = check_int("m", m, 1)
    n = check_int("n", n, 1)
    spec = KernelSpec.homogeneous(p)
    if m < 2:
        raise NumericalError("coherence bound needs m >= 2")
    denom = embedding_dim(spec, n)
    if m - denom <= 0:
        return 0.0
    # int / int true division is correctly rounded.
    radicand = (m - denom) / (denom * (m - 1))
    return radicand ** (1 / (2 * spec.p))


def welch_sum_bound(m: int, n: int, p: int) -> float:
    """m^2 / C(n+p-1, p), correctly rounded (int / int true division)."""
    m = check_int("m", m, 1)
    n = check_int("n", n, 1)
    return m * m / embedding_dim(KernelSpec.homogeneous(p), n)


def _kernel_report(
    inequality_id: str, vs: VectorSet, spec: KernelSpec, unit: bool
) -> BoundReport:
    """||K||_F^2 >= (tr K)^2 / r for K[i, j] = (<x_i, x_j> + c)^p (c = 0 if
    homogeneous), PSD of rank r <= embedding_dim; tr K = sum_i (|x_i|^2 + c)^p,
    or m (1+c)^p in the unit form (unit norms required), recorded as rhs_unit."""
    p, c = spec.p, spec.c or 0.0
    r = embedding_dim(spec, vs.n)
    norms = _require_unit_norms(vs) if unit else None
    table = inner_table(vs.vectors)
    table += c  # in place: no second table-sized array
    lhs = power_sum(table, p)
    norms = vs.norms() if norms is None else norms  # the table's overflow error comes first
    near_unit = unit or np.max(np.abs(norms - 1.0)) <= UNIT_METADATA_TOL
    try:  # Python float powers raise OverflowError where numpy gives inf
        rhs_unit = vs.m**2 * (1.0 + c) ** (2 * p) / r if near_unit else None
        rhs = rhs_unit if unit else float(np.sum((norms**2 + c) ** p)) ** 2 / r
    except OverflowError:
        raise NumericalError(f"{inequality_id}: rhs is beyond float range") from None
    return BoundReport(
        inequality_id, lhs, rhs, m=vs.m, n=vs.n, p=p, c=spec.c,
        rhs_unit=None if spec.c is None else rhs_unit,
    )


def power_sum_report(vs: VectorSet, p: int) -> BoundReport:
    """Power-sum inequality for a unit-norm set: rhs = m^2 / C(n+p-1, p)."""
    return _kernel_report("power-sum", vs, KernelSpec.homogeneous(p), unit=True)


def gram_rank_report(g: GramMatrix) -> BoundReport:
    """||G||_F^2 >= (Re tr G)^2 / rank(G): holds for every PSD Gram.

    The Cauchy-Schwarz step behind it compares the eigenvalue power sums,
    so any PSD matrix satisfies it; rank 0 (the zero matrix) gets rhs 0.
    Both sides come from the entries of G, measured once by the eigensolver.
    """
    spectrum = g.spectrum()  # raises NumericalError on indefinite input
    r = numerical_rank(spectrum)
    lhs, tr = spectrum.frobenius_sq, spectrum.trace
    rhs = tr * tr / r if r > 0 else 0.0
    kernel = g.kernel
    return BoundReport(
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
    spec = KernelSpec.homogeneous(p)
    scale = float(np.max(np.abs(vs.vectors)))
    if scale == 0.0:
        raise NumericalError("ratio undefined: every vector is zero")
    scaled = VectorSet(vs.vectors / scale)
    tr = float(np.sum(scaled.norms() ** (2 * spec.p)))
    lhs = power_sum(inner_table(scaled.vectors), spec.p) / tr**2
    rhs = 1.0 / embedding_dim(spec, vs.n)
    return BoundReport("generalized", lhs, rhs, m=vs.m, n=vs.n, p=spec.p)


def shifted_report(vs: VectorSet, p: int, c: float | None) -> BoundReport:
    """Shifted-kernel power sum vs its augmented-dimension bound.

    lhs = sum_ij |<x_i, x_j> + c|^(2p);
    rhs = (sum_i (|x_i|^2 + c)^p)^2 / C(n+p, p).

    When every norm is within 1e-12 of 1 the simplified rhs
    m^2 (1+c)^(2p) / C(n+p, p) is also recorded, as rhs_unit.
    """
    return _kernel_report("shifted", vs, KernelSpec.shifted(p, c), unit=False)


def shifted_unit_report(vs: VectorSet, p: int, c: float | None) -> BoundReport:
    """Unit-norm form of the shifted bound: rhs = m^2 (1+c)^(2p) / C(n+p, p)."""
    return _kernel_report("shifted-unit", vs, KernelSpec.shifted(p, c), unit=True)


def coherence_report(vs: VectorSet, p: int) -> BoundReport:
    """Coherence vs the 2p-th root bound; assumes unit-norm vectors."""
    bound = welch_coherence_bound(vs.m, vs.n, p)  # a bad p is reported before bad norms
    _require_unit_norms(vs)
    return BoundReport(
        "coherence", coherence(vs), bound, m=vs.m, n=vs.n, p=int(p), vacuous=bound == 0.0
    )
