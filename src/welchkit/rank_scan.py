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

from .errors import SEED_MAX, check_int, check_real
from .features import embedding_dim
from .frames import random_unit_vectors
from .kernels import KernelSpec, gram_matrix
from .linalg import RANK_RTOL, numerical_rank
from .serialize import format_float

CSV_HEADER = (
    "kernel", "variant", "p", "c", "gamma",
    "trial", "epsilon", "rank", "theoretical_dim",
)


@dataclass(frozen=True)
class KernelScanSummary:
    """One kernel's rank in every trial of a scan, at the scan epsilon."""

    kernel: KernelSpec
    ranks: tuple[int, ...]
    theoretical_dim: int | None

    @property
    def median_rank(self) -> float:
        """Median of the per-trial ranks."""
        return float(np.median(self.ranks))

    @property
    def saturated(self) -> bool | None:
        """median_rank == theoretical_dim; None without a polynomial ceiling."""
        if self.theoretical_dim is None:
            return None
        return self.median_rank == self.theoretical_dim


@dataclass(frozen=True)
class ScanResult:
    """Everything a scan produced: parameters plus one summary per kernel."""

    n: int
    m: int
    trials: int
    seed: int
    epsilon: float
    summaries: tuple[KernelScanSummary, ...]


def rank_scan(
    kernel_family,
    n: int,
    m: int,
    trials: int,
    seed: int,
    epsilon: float = RANK_RTOL,
) -> ScanResult:
    """Measure Gram ranks for every kernel over shared random trial data.

    Each trial draws one set of m random unit vectors in C^n (stream spawned
    from the master seed, so results do not depend on evaluation order) and
    feeds it to every kernel in the family.  m must exceed every polynomial
    member's feature dimension, otherwise the ceilings cannot bind.
    """
    kernels = tuple(kernel_family)
    if not kernels:
        raise ValueError("kernel family is empty")
    n = check_int("n", n, 1)
    m = check_int("m", m, 1)
    trials = check_int("trials", trials, 1)
    seed = check_int("seed", seed, 0, SEED_MAX)
    # Below ~1e3 machine epsilons, eigenvalue ratios are eigensolver rounding noise.
    epsilon = check_real("epsilon", epsilon, 1e3 * sys.float_info.epsilon)
    dims = [embedding_dim(spec, n) if spec.is_polynomial else None for spec in kernels]
    widest = max((d for d in dims if d is not None), default=0)
    if m <= widest:
        raise ValueError(
            f"m={m} cannot exercise the widest feature dimension {widest}; "
            f"need m > {widest}"
        )
    ranks = [[] for _ in kernels]
    for child in np.random.SeedSequence(seed).spawn(trials):
        vs = random_unit_vectors(m, n, seed=child)
        for spec, kernel_ranks in zip(kernels, ranks):
            kernel_ranks.append(numerical_rank(gram_matrix(spec, vs).spectrum(), epsilon))
    summaries = tuple(
        KernelScanSummary(kernel=spec, ranks=tuple(r), theoretical_dim=dim)
        for spec, r, dim in zip(kernels, ranks, dims)
    )
    return ScanResult(
        n=n, m=m, trials=trials, seed=seed, epsilon=epsilon, summaries=summaries
    )


def _kernel_fields(spec: KernelSpec) -> tuple:
    """A kernel's fields in CSV_HEADER order: kernel, variant, p, c, gamma."""
    return spec.describe(), spec.variant, spec.p, spec.c, spec.gamma


def _cell(value) -> str:
    """CSV text of a field: empty for None, format_float for a float, str otherwise."""
    if value is None:
        return ""
    return format_float(value) if isinstance(value, float) else str(value)


def scan_csv(result: ScanResult) -> str:
    """One CSV row per (kernel, trial), trial-major; fixed header and formatting.

    No field can hold a comma, a quote or a newline, so none is quoted.
    """
    lines = [",".join(CSV_HEADER)]
    for trial in range(result.trials):
        for s in result.summaries:
            row = (trial, result.epsilon, s.ranks[trial], s.theoretical_dim)
            lines.append(",".join(map(_cell, _kernel_fields(s.kernel) + row)))
    return "\n".join(lines) + "\n"


def scan_summary_dict(result: ScanResult) -> dict:
    """JSON-ready summary: scan parameters plus one entry per kernel."""
    kernels = [
        dict(
            zip(CSV_HEADER, _kernel_fields(s.kernel)),
            median_rank=s.median_rank,
            theoretical_dim=s.theoretical_dim,
            saturated=s.saturated,
        )
        for s in result.summaries
    ]
    return {
        "n": result.n,
        "m": result.m,
        "trials": result.trials,
        "seed": result.seed,
        "epsilon": result.epsilon,
        "kernels": kernels,
    }
