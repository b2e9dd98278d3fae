"""Empirical spectrum-rank exploration across kernel families.

For polynomial kernels the Gram rank is capped by the feature-space
dimension; this module measures ranks at relative eigenvalue thresholds and
scans kernel families over random data to see which families concentrate
their spectra.  Whether non-polynomial kernels admit a comparable ceiling
is an open experimental question: scans report the evidence (median ranks,
saturation of the known ceilings) and assert nothing beyond it.
"""

from __future__ import annotations

import csv
import io
import numbers
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import InvalidScanError
from .features import embedding_dim
from .frames import random_unit_vectors
from .kernels import GramMatrix, KernelSpec, gram_matrix
from .linalg import RANK_RTOL, EigenSpectrum, numerical_rank
from .serialize import format_float

# An eigenvalue counts toward the epsilon-rank when it exceeds epsilon times
# the largest one; this is the default epsilon.
DEFAULT_EPSILON = RANK_RTOL

CSV_HEADER = (
    "kernel", "variant", "p", "c", "gamma",
    "trial", "epsilon", "rank", "theoretical_dim",
)


@dataclass(frozen=True)
class RankProfile:
    """Ranks of one Gram matrix at several relative thresholds."""

    kernel: KernelSpec
    m: int
    n: int | None
    thresholds: tuple[float, ...]
    ranks: tuple[int, ...]
    theoretical_dim: int | None
    spectrum: EigenSpectrum

    def __post_init__(self):
        eps = self.thresholds
        if len(eps) < 1 or any(e <= 0 for e in eps):
            raise ValueError("thresholds must be positive")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValueError("thresholds must be strictly descending")
        if len(self.ranks) != len(eps):
            raise ValueError("one rank per threshold required")
        if any(a > b for a, b in zip(self.ranks, self.ranks[1:])):
            raise ValueError("ranks must be non-decreasing as epsilon shrinks")


@dataclass(frozen=True)
class KernelScanSummary:
    """Per-kernel aggregate over the trials of one scan."""

    kernel: KernelSpec
    median_rank: float
    theoretical_dim: int | None
    saturated: bool | None


@dataclass(frozen=True)
class ScanRow:
    """One (kernel, trial) measurement at the scan epsilon."""

    kernel: KernelSpec
    trial: int
    epsilon: float
    rank: int
    theoretical_dim: int | None


@dataclass(frozen=True)
class ScanResult:
    """Everything a scan produced: raw rows plus per-kernel summaries."""

    n: int
    m: int
    trials: int
    seed: int
    epsilon: float
    rows: tuple[ScanRow, ...]
    summaries: tuple[KernelScanSummary, ...]


def epsilon_rank_profile(
    g: GramMatrix,
    thresholds=(DEFAULT_EPSILON,),
    n: int | None = None,
) -> RankProfile:
    """Rank at each threshold: numerical_rank of the spectrum at epsilon.

    Thresholds must be strictly descending and positive.  Pass the ambient
    dimension n to attach the polynomial ceiling as theoretical_dim.  The
    full spectrum rides along for inspection.
    """
    thresholds = tuple(float(e) for e in thresholds)
    spectrum = g.spectrum()
    ranks = tuple(numerical_rank(spectrum, eps) for eps in thresholds)
    dim = None
    if n is not None and g.kernel.is_polynomial:
        dim = embedding_dim(g.kernel, n)
    return RankProfile(
        kernel=g.kernel,
        m=g.m,
        n=n,
        thresholds=thresholds,
        ranks=ranks,
        theoretical_dim=dim,
        spectrum=spectrum,
    )


def rank_scan(
    kernel_family,
    n: int,
    m: int,
    trials: int,
    seed: int,
    epsilon: float = DEFAULT_EPSILON,
) -> ScanResult:
    """Measure Gram ranks for every kernel over shared random trial data.

    Each trial draws one set of m random unit vectors in C^n (stream spawned
    from the master seed, so results do not depend on evaluation order) and
    feeds it to every kernel in the family.  m must exceed every polynomial
    member's feature dimension, otherwise the ceilings cannot bind.
    """
    kernels = tuple(kernel_family)
    if not kernels:
        raise InvalidScanError("kernel family is empty")
    for name, value in (("n", n), ("m", m), ("trials", trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidScanError(f"{name} must be an integer, got {value!r}")
    if trials < 1:
        raise InvalidScanError("need at least one trial")
    if n < 1 or m < 1:
        raise InvalidScanError("need n >= 1 and m >= 1")
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real):
        raise InvalidScanError(f"epsilon must be a number, got {epsilon!r}")
    # Below ~1e3 machine epsilons, eigenvalue ratios are eigensolver rounding noise.
    if not 1e3 * np.finfo(float).eps <= epsilon < np.inf:
        raise InvalidScanError("epsilon must be finite and >= 1e3 machine epsilons")
    dims = {}
    for spec in kernels:
        if spec.is_polynomial:
            dims[spec] = embedding_dim(spec, n)
    if dims:
        widest = max(dims.values())
        if m <= widest:
            raise InvalidScanError(
                f"m={m} cannot exercise the widest feature dimension {widest}; "
                f"need m > {widest}"
            )
    master = np.random.SeedSequence(seed)
    rows = []
    ranks_by_kernel = {spec: [] for spec in kernels}
    for trial, child in enumerate(master.spawn(trials)):
        vs = random_unit_vectors(m, n, seed=child)
        for spec in kernels:
            rank = numerical_rank(gram_matrix(spec, vs).spectrum(), epsilon)
            ranks_by_kernel[spec].append(rank)
            rows.append(
                ScanRow(
                    kernel=spec,
                    trial=trial,
                    epsilon=epsilon,
                    rank=rank,
                    theoretical_dim=dims.get(spec),
                )
            )
    summaries = []
    for spec in kernels:
        median = float(statistics.median(ranks_by_kernel[spec]))
        dim = dims.get(spec)
        summaries.append(
            KernelScanSummary(
                kernel=spec,
                median_rank=median,
                theoretical_dim=dim,
                saturated=None if dim is None else median == dim,
            )
        )
    return ScanResult(
        n=n,
        m=m,
        trials=trials,
        seed=seed,
        epsilon=epsilon,
        rows=tuple(rows),
        summaries=tuple(summaries),
    )


def _kernel_columns(spec: KernelSpec):
    return (
        spec.describe(),
        spec.variant,
        "" if spec.p is None else str(spec.p),
        "" if spec.c is None else format_float(spec.c),
        "" if spec.gamma is None else format_float(spec.gamma),
    )


def scan_csv(result: ScanResult) -> str:
    """One CSV row per (kernel, trial); fixed header and formatting."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in result.rows:
        writer.writerow(
            _kernel_columns(row.kernel)
            + (
                str(row.trial),
                format_float(row.epsilon),
                str(row.rank),
                "" if row.theoretical_dim is None else str(row.theoretical_dim),
            )
        )
    return out.getvalue()


def scan_summary_dict(result: ScanResult) -> dict:
    """JSON-ready summary: scan parameters plus one entry per kernel."""
    kernels = []
    for s in result.summaries:
        kernels.append(
            {
                "kernel": s.kernel.describe(),
                "variant": s.kernel.variant,
                "p": s.kernel.p,
                "c": s.kernel.c,
                "gamma": s.kernel.gamma,
                "median_rank": s.median_rank,
                "theoretical_dim": s.theoretical_dim,
                "saturated": s.saturated,
            }
        )
    return {
        "n": result.n,
        "m": result.m,
        "trials": result.trials,
        "seed": result.seed,
        "epsilon": result.epsilon,
        "kernels": kernels,
    }
