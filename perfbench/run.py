"""Benchmark entry point for welchkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding ``src/welchkit``).  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run.  Workload
names and metric definitions are in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pairwise", "spectral")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Set the BLAS thread count for this process and its children.

    One thread unless OPENBLAS_NUM_THREADS asks for more, and never more than
    nproc: the benchmark is one client running one command at a time, and
    idle BLAS threads spinning beside it on a few shared cores would measure
    the scheduler rather than the program.  Must run before numpy is first
    imported, which reads these variables.
    """
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(nproc, int(requested)) if requested.isdigit() and int(requested) > 0 else 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "welchkit" / "cli.py").is_file():
        print(f"error: no welchkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness  # imports numpy, so only after the thread cap

    return harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), threads)


if __name__ == "__main__":
    sys.exit(main())
