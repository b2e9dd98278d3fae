"""Empirical spectrum-rank exploration across kernel families.

For polynomial kernels the Gram rank is capped by the feature-space
dimension; this module scans kernel families over random data, measuring
Gram ranks at a relative eigenvalue threshold, to see which families
concentrate their spectra.  Whether non-polynomial kernels admit a comparable ceiling
is an open experimental question: scans report the evidence (median ranks,
saturation of the known ceilings) and assert nothing beyond it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidScanError, check_int, check_real
from .features import embedding_dim
from .frames import random_unit_vectors
from .kernels import KernelSpec, gram_matrix
from .linalg import RANK_RTOL, numerical_rank
from .serialize import format_float

# An eigenvalue counts toward the epsilon-rank when it exceeds epsilon times
# the largest one; this is the default epsilon.
DEFAULT_EPSILON = RANK_RTOL

CSV_HEADER = (
    "kernel", "variant", "p", "c", "gamma",
    "trial", "epsilon", "rank", "theoretical_dim",
)


@dataclass(frozen=True)
class KernelScanSummary:
    """Per-kernel aggregate over the trials of one scan."""

    kernel: KernelSpec
    median_rank: float
    theoretical_dim: int | None

    @property
    def saturated(self) -> bool | None:
        """median_rank == theoretical_dim; None without a polynomial ceiling."""
        if self.theoretical_dim is None:
            return None
        return self.median_rank == self.theoretical_dim


@dataclass(frozen=True)
class ScanRow:
    """One (kernel, trial) measurement at the scan epsilon."""

    kernel: KernelSpec
    trial: int
    rank: int


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
    n = check_int("n", n, 1, error=InvalidScanError)
    m = check_int("m", m, 1, error=InvalidScanError)
    trials = check_int("trials", trials, 1, error=InvalidScanError)
    seed = check_int("seed", seed, 0, 2**64 - 1, InvalidScanError)
    # Below ~1e3 machine epsilons, eigenvalue ratios are eigensolver rounding noise.
    epsilon = check_real(
        "epsilon", epsilon, 1e3 * sys.float_info.epsilon, error=InvalidScanError
    )
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
            rows.append(ScanRow(kernel=spec, trial=trial, rank=rank))
    summaries = [
        KernelScanSummary(
            kernel=spec,
            median_rank=float(np.median(ranks_by_kernel[spec])),
            theoretical_dim=dims.get(spec),
        )
        for spec in kernels
    ]
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
    """One CSV row per (kernel, trial); fixed header and formatting.

    No field can hold a comma, a quote or a newline, so none is quoted.
    """
    dims = {s.kernel: s.theoretical_dim for s in result.summaries}
    epsilon = format_float(result.epsilon)
    lines = [",".join(CSV_HEADER)]
    for row in result.rows:
        dim = dims[row.kernel]
        lines.append(",".join(
            _kernel_columns(row.kernel)
            + (str(row.trial), epsilon, str(row.rank), "" if dim is None else str(dim))
        ))
    return "\n".join(lines) + "\n"


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
