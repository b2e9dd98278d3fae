"""Command-line front end.

Subcommands:

    gen         write a vector-set file (random / simplex / orthonormal)
    check       evaluate one inequality on a vector-set file
    optimize    minimize the frame potential and report the gap
    rank-scan   run a kernel-family rank scan from a JSON config
    embed-check verify the explicit feature map reproduces the Gram

Exit codes are a stable scripting contract: 0 success (and the inequality
holds), 1 inequality violated, 2 argument or configuration error (a size
too large to allocate included), 3 I/O failure, 4 numerical failure
(non-PSD input, non-unit norms, overflow or NaN, ...).  Each welchkit error
class carries its code as exit_code.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .bounds import (
    coherence,
    coherence_report,
    generalized_report,
    gram_rank_report,
    power_sum_report,
    shifted_report,
    shifted_unit_report,
)
from .errors import InvalidConfigError, NumericalError, WelchKitError, check_object
from .features import feature_matrix
from .frames import (
    OptimizerConfig,
    minimize_frame_potential,
    orthonormal_frame,
    random_unit_vectors,
    simplex_frame,
)
from .kernels import KernelSpec, gram_matrix
from .rank_scan import DEFAULT_EPSILON, rank_scan, scan_csv, scan_summary_dict
from .serialize import (
    atomic_write,
    canonical_json,
    format_float,
    optimize_result_to_dict,
    parse_json,
    read_vector_set,
    write_vector_set,
)

def _kernel(entry) -> KernelSpec:
    """KernelSpec from command-line flags or from one rank-scan kernel entry.

    Keys are variant, p, c and gamma; an absent key means None, except that a
    shifted kernel's c defaults to 0.  KernelSpec validates the values.
    """
    check_object(
        "kernel entry", entry, (), ("variant", "p", "c", "gamma"), InvalidConfigError
    )
    variant = entry.get("variant")
    c = entry.get("c")
    if variant == "shifted" and c is None:
        c = 0.0
    return KernelSpec(variant, p=entry.get("p"), c=c, gamma=entry.get("gamma"))


def cmd_gen(args) -> int:
    if args.n is None or (args.kind == "random" and args.m is None):
        needs = "--m and --n" if args.kind == "random" else "--n"
        raise InvalidConfigError(f"gen {args.kind} needs {needs}")
    if args.kind == "random":
        vs = random_unit_vectors(args.m, args.n, field=args.field, seed=args.seed)
    else:
        vs = simplex_frame(args.n) if args.kind == "simplex" else orthonormal_frame(args.n)
    write_vector_set(args.out, vs)
    tail = f" coherence={format_float(coherence(vs))}" if vs.m >= 2 else ""
    print(f"m={vs.m} n={vs.n}{tail}")
    return 0


def _gram_rank(vs, args):
    variant = "homogeneous" if args.kernel is None else args.kernel
    spec = _kernel({"variant": variant, "p": args.p, "c": args.c, "gamma": args.gamma})
    return gram_rank_report(gram_matrix(spec, vs))


# Per inequality: report of (vector set, parsed flags), and flags read besides --p.
_CHECKS = {
    "coherence": (lambda vs, a: coherence_report(vs, a.p), ()),
    "power-sum": (lambda vs, a: power_sum_report(vs, a.p), ()),
    "gram-rank": (_gram_rank, ("kernel", "gamma", "c")),
    "generalized": (lambda vs, a: generalized_report(vs, a.p), ()),
    "shifted": (lambda vs, a: shifted_report(vs, a.p, 0.0 if a.c is None else a.c), ("c",)),
    "shifted-unit": (
        lambda vs, a: shifted_unit_report(vs, a.p, 0.0 if a.c is None else a.c), ("c",)
    ),
}
INEQUALITY_IDS = tuple(_CHECKS)


def cmd_check(args) -> int:
    vs = read_vector_set(args.infile)
    ineq = args.inequality
    report_of, reads = _CHECKS[ineq]
    for flag in ("kernel", "gamma", "c"):
        if getattr(args, flag) is not None and flag not in reads:
            raise InvalidConfigError(f"--{flag} does not apply to {ineq}")
    if args.p is None and ineq != "gram-rank":
        raise InvalidConfigError(f"--p is required for {ineq}")
    report = report_of(vs, args)
    text = canonical_json(report.to_dict())
    if args.out is not None:
        atomic_write(args.out, text + "\n")
    print(text)
    return 0 if report.holds else 1


def cmd_optimize(args) -> int:
    cfg = OptimizerConfig(
        p=args.p,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        restarts=args.restarts,
        seed=args.seed,
    )
    result = minimize_frame_potential(args.m, args.n, cfg)
    if args.out is not None:
        atomic_write(args.out, canonical_json(optimize_result_to_dict(result)) + "\n")
    print(
        f"final_potential={format_float(result.final_potential)} "
        f"bound={format_float(result.bound)} "
        f"gap={format_float(result.gap)} "
        f"iterations={result.iterations}"
    )
    return 0


def _load_scan_config(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        doc = parse_json(handle.read())
    check_object(
        "scan config",
        doc,
        ("kernels", "n", "m", "trials", "seed"),
        ("epsilon", "csv_out", "json_out"),
        InvalidConfigError,
    )
    for key in ("csv_out", "json_out"):
        if doc.get(key) is not None and not isinstance(doc[key], str):
            raise InvalidConfigError(f"{key} must be a path string")
        try:  # before the scan runs, not when its output is written
            os.fsencode(doc.get(key) or "")
        except UnicodeEncodeError:
            raise InvalidConfigError(f"{key} {doc[key]!r} cannot be encoded as a file name")
    return doc


def cmd_rank_scan(args) -> int:
    doc = _load_scan_config(args.config)
    kernels_raw = doc["kernels"]
    if not isinstance(kernels_raw, list):
        raise InvalidConfigError("'kernels' must be a list")
    family = [_kernel(entry) for entry in kernels_raw]
    result = rank_scan(
        family,
        n=doc["n"],
        m=doc["m"],
        trials=doc["trials"],
        seed=doc["seed"],
        epsilon=doc.get("epsilon", DEFAULT_EPSILON),
    )
    if doc.get("csv_out") is not None:
        atomic_write(doc["csv_out"], scan_csv(result))
    if doc.get("json_out") is not None:
        atomic_write(doc["json_out"], canonical_json(scan_summary_dict(result)) + "\n")
    for summary in result.summaries:
        dim = "-" if summary.theoretical_dim is None else str(summary.theoretical_dim)
        sat = "-" if summary.saturated is None else str(summary.saturated).lower()
        print(
            f"kernel={summary.kernel.describe()} "
            f"median_rank={format_float(summary.median_rank)} "
            f"theoretical_dim={dim} saturated={sat}"
        )
    return 0


def cmd_embed_check(args) -> int:
    vs = read_vector_set(args.infile)
    variant = "homogeneous" if args.c is None else "shifted"
    spec = _kernel({"variant": variant, "p": args.p, "c": args.c})
    fm = feature_matrix(spec, vs)
    g = gram_matrix(spec, vs)
    err = float(np.max(np.abs(fm.reconstructed_gram() - g.matrix)))
    rank = g.rank()
    # Rounding in D^H D grows with the entries, so the tolerance is relative.
    tol = 1e-10 * max(1.0, float(np.max(np.abs(g.matrix))))
    if err >= tol:
        raise NumericalError(
            f"feature map does not reproduce the Gram: max_error={format_float(err)} "
            f"is not below {format_float(tol)}"
        )
    print(f"max_error={format_float(err)} rank={rank} embedding_dim={fm.feature_dim}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="welch",
        description="Vector-set inequality toolkit: generate, check, optimize, scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a vector-set file")
    gen.add_argument("kind", choices=("random", "simplex", "orthonormal"))
    gen.add_argument("--seed", type=int, default=0, help="PRNG seed")
    gen.add_argument("--out", required=True, help="output file path")
    gen.add_argument("--m", type=int, help="number of vectors (random only)")
    gen.add_argument("--n", type=int, help="ambient dimension")
    gen.add_argument("--field", choices=("real", "complex"), default="complex")

    check = sub.add_parser("check", help="evaluate one inequality")
    check.add_argument("--in", dest="infile", required=True, help="vector-set file")
    check.add_argument("--out", help="output file path")
    check.add_argument("--inequality", choices=INEQUALITY_IDS, required=True)
    check.add_argument("--p", type=int, help="kernel degree")
    check.add_argument("--c", type=float, help="kernel shift (shifted variants)")
    check.add_argument(
        "--kernel",
        choices=("homogeneous", "shifted", "gaussian"),
        help="Gram kernel for gram-rank (default homogeneous)",
    )
    check.add_argument("--gamma", type=float, help="gaussian kernel width")

    opt = sub.add_parser("optimize", help="minimize frame potential")
    opt.add_argument("--seed", type=int, default=OptimizerConfig.seed, help="PRNG seed")
    opt.add_argument("--out", help="output file path")
    opt.add_argument("--m", type=int, required=True)
    opt.add_argument("--n", type=int, required=True)
    opt.add_argument("--p", type=int, required=True)
    opt.add_argument("--max-iters", type=int, default=OptimizerConfig.max_iters)
    opt.add_argument("--grad-tol", type=float, default=OptimizerConfig.grad_tol)
    opt.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)

    scan = sub.add_parser("rank-scan", help="kernel-family rank scan")
    scan.add_argument("--config", required=True, help="JSON scan configuration")

    embed = sub.add_parser("embed-check", help="verify the explicit feature map")
    embed.add_argument("--in", dest="infile", required=True, help="vector-set file")
    embed.add_argument("--p", type=int, help="kernel degree")
    embed.add_argument("--c", type=float, help="shift; selects the shifted kernel")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            # By name per call: the cached parser must not pin a cmd_* object.
            return globals()["cmd_" + args.command.replace("-", "_")](args)
    except WelchKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry():
    raise SystemExit(main())
