"""The benchmark's workloads: each is the list of `welch` commands one user runs.

Every workload is a closed loop with one client: a command starts only after
the previous one has finished.  Inputs come only from the workload seed,
through `welch gen --seed`, the rank-scan config's `seed` or `optimize --seed`;
the program never sees the seed any other way.

Why these two (each stresses a different part of the chain vector set ->
inner-product table -> kernel Gram -> spectrum -> rank and bound report):

- pairwise: the six pairwise bound reports on one large set, then the
  frame-potential optimizer at the p=2 equality cases (m, n) = (n^2, n),
  where a SIC (a projective 2-design) meets the bound, to a tight certificate
  at a stated accuracy.  Both are sums over pairs of inner products with no
  Gram and no eigensolve: it isolates the `bounds` loops, `frames` and the
  `serialize` read of a large file, and eigensolver changes should not move it.
- spectral: three gram-rank reports and one embed-check on one set (few large
  Grams and eigensolves, plus the feature map), then one rank scan (many small
  Grams and eigensolves, where fixed per-call cost dominates).  A change that
  speeds up large m but adds per-call overhead shows in the scan's share.  The
  only workload that runs `rank_scan`; `bounds` and `frames` barely run, so
  bound-loop and optimizer changes should not move it.

Two workloads rather than four (the bound reports and the optimizer, the
reports and the rank scan, each apart) so that each run can last a minute:
on a shared 2-core VM the speed drifts by tens of percent over minutes, and
longer runs average more of it.
Sizes are chosen so one command list takes about 1-3 s in-process on a
2-core x86 box, which fits many repeats into one benchmark run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import reference

VECTORS = "vectors.json"

# Full sizes, used by the benchmark runs.
FULL = {
    "pairwise": {"m": 500, "n": 8, "cases": ((4, 2), (9, 3), (16, 4))},
    "spectral": {"m": 64, "n": 4, "scan": {"m": 40, "n": 3, "trials": 3}},
}

# Smoke sizes: the same command lists on inputs small enough for the
# benchmark's self-tests to run in seconds.
SMOKE = {
    "pairwise": {"m": 250, "n": 4, "cases": ((4, 2), (16, 4))},
    "spectral": {"m": 30, "n": 3, "scan": {"m": 16, "n": 2, "trials": 3}},
}

# The optimizer stops once the Riemannian gradient norm falls below this.
# The default 1e-8 sits at the float-precision floor of the p=2 potential:
# whether a restart then stalls until max_iters depends on the seed, and the
# three commands took from 1.5 s to 13 s across seeds 0-4.  At 1e-6 the gap
# is far inside the tight certificate 1e-6 * max(1, bound), and seeds 1-10
# all ran 25000 iterations at (9, 3) and 440-620 at (16, 4) over 5 restarts.
OPTIMIZE_GRAD_TOL = "1e-6"

# Kernels of the rank scan and of the spectral workload's gram-rank reports.
SCAN_KERNELS = (
    {"variant": "homogeneous", "p": 2},
    {"variant": "shifted", "p": 2, "c": 1.0},
    {"variant": "gaussian", "gamma": 0.5},
)


@dataclass(frozen=True)
class Command:
    """One `welch` invocation, the files it writes and its reference check.

    check takes (workdir, outcome) and returns a list of problems.
    """

    argv: tuple[str, ...]
    check: Callable
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """Set-up (gen commands and config files) plus the measured command list."""

    name: str
    gen: tuple[Command, ...]
    configs: tuple[tuple[str, dict], ...]
    commands: tuple[Command, ...]


def _gen(m: int, n: int, seed: int) -> Command:
    argv = ("gen", "random", "--m", str(m), "--n", str(n), "--seed", str(seed), "--out", VECTORS)
    return Command(argv, functools.partial(reference.check_gen, VECTORS, m, n), (VECTORS,))


def _check(inequality, p=None, c=None, kernel=None, gamma=None) -> Command:
    argv = ["check", "--in", VECTORS, "--inequality", inequality]
    if kernel is not None:
        argv += ["--kernel", kernel]
    if p is not None:
        argv += ["--p", str(p)]
    if c is not None:
        argv += ["--c", repr(c)]
    if gamma is not None:
        argv += ["--gamma", repr(gamma)]
    check = functools.partial(reference.check_report, VECTORS, inequality, p, c, kernel, gamma)
    return Command(tuple(argv), check)


def _optimize(m: int, n: int, seed: int) -> Command:
    out = f"optimize-{m}-{n}.json"
    argv = (
        "optimize", "--m", str(m), "--n", str(n), "--p", "2", "--seed", str(seed),
        "--grad-tol", OPTIMIZE_GRAD_TOL, "--out", out,
    )
    return Command(argv, functools.partial(reference.check_optimize, m, n, 2, out), (out,))


def pairwise(seed: int, size: dict) -> Workload:
    commands = (
        _check("power-sum", p=2),
        _check("power-sum", p=3),
        _check("coherence", p=2),
        _check("generalized", p=2),
        _check("shifted", p=2, c=1.0),
        _check("shifted-unit", p=2, c=1.0),
        *(_optimize(m, n, seed) for m, n in size["cases"]),
    )
    return Workload("pairwise", (_gen(size["m"], size["n"], seed),), (), commands)


def _scan(seed: int, size: dict) -> tuple[tuple[str, dict], Command]:
    config = {
        "kernels": [dict(k) for k in SCAN_KERNELS],
        "n": size["n"],
        "m": size["m"],
        "trials": size["trials"],
        "seed": seed,
        "csv_out": "scan.csv",
        "json_out": "scan-summary.json",
    }
    scan = Command(
        ("rank-scan", "--config", "scan.json"),
        functools.partial(reference.check_scan, config),
        (config["csv_out"], config["json_out"]),
    )
    return ("scan.json", config), scan


def spectral(seed: int, size: dict) -> Workload:
    embed = Command(
        ("embed-check", "--in", VECTORS, "--p", "2", "--c", "1.0"),
        functools.partial(reference.check_embed, VECTORS, 2, 1.0),
    )
    config, scan = _scan(seed, size["scan"])
    commands = (
        _check("gram-rank", kernel="homogeneous", p=2),
        _check("gram-rank", kernel="shifted", p=2, c=1.0),
        _check("gram-rank", kernel="gaussian", gamma=0.5),
        embed,
        scan,
    )
    return Workload("spectral", (_gen(size["m"], size["n"], seed),), (config,), commands)


_BUILDERS = {
    "pairwise": pairwise,
    "spectral": spectral,
}


def build(name: str, seed: int, sizes: dict = FULL) -> Workload:
    return _BUILDERS[name](seed, sizes[name])
