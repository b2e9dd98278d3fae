"""Command-line front end.

Subcommands:

    gen         write a vector-set file (random / simplex / orthonormal)
    check       evaluate one inequality on a vector-set file
    optimize    minimize the frame potential and report the gap
    rank-scan   run a kernel-family rank scan from a JSON config
    embed-check verify the explicit feature map reproduces the Gram

Exit codes are a stable scripting contract: 0 success (and the inequality
holds), 1 inequality violated, 2 argument or configuration error, 3 I/O
failure, 4 numerical failure (non-PSD input, non-unit norms, overflow or
NaN, ...).  Each welchkit error class carries its code as exit_code.
"""

from __future__ import annotations

import argparse
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
from .errors import InvalidConfigError, NumericalError, WelchKitError
from .features import embedding_dim, feature_matrix
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

INEQUALITY_IDS = (
    "coherence",
    "power-sum",
    "gram-rank",
    "generalized",
    "shifted",
    "shifted-unit",
)


def _kernel(entry) -> KernelSpec:
    """KernelSpec from command-line flags or from one rank-scan kernel entry.

    Keys are variant, p, c and gamma; an absent key means None, except that a
    shifted kernel's c defaults to 0.  KernelSpec validates the values.
    """
    if not isinstance(entry, dict):
        raise InvalidConfigError("each kernel entry must be a JSON object")
    unknown = set(entry) - {"variant", "p", "c", "gamma"}
    if unknown:
        raise InvalidConfigError(f"unknown kernel keys: {sorted(unknown)}")
    variant = entry.get("variant")
    c = entry.get("c")
    if variant == "shifted" and c is None:
        c = 0.0
    return KernelSpec(variant, p=entry.get("p"), c=c, gamma=entry.get("gamma"))


def cmd_gen(args) -> int:
    if args.kind == "random":
        if args.m is None or args.n is None:
            raise InvalidConfigError("gen random needs --m and --n")
        vs = random_unit_vectors(args.m, args.n, field=args.field, seed=args.seed)
    elif args.kind == "simplex":
        if args.n is None:
            raise InvalidConfigError("gen simplex needs --n")
        vs = simplex_frame(args.n)
    else:
        if args.n is None:
            raise InvalidConfigError("gen orthonormal needs --n")
        vs = orthonormal_frame(args.n)
    if args.out is None:
        raise InvalidConfigError("gen needs --out to receive the file")
    write_vector_set(args.out, vs)
    parts = [f"m={vs.m}", f"n={vs.n}"]
    if vs.m >= 2:
        parts.append(f"coherence={format_float(coherence(vs))}")
    print(" ".join(parts))
    return 0


def cmd_check(args) -> int:
    vs = read_vector_set(args.infile)
    ineq = args.inequality
    if ineq == "gram-rank":
        variant = "homogeneous" if args.kernel is None else args.kernel
        spec = _kernel(
            {"variant": variant, "p": args.p, "c": args.c, "gamma": args.gamma}
        )
        report = gram_rank_report(gram_matrix(spec, vs))
    else:
        unread = {"--kernel": args.kernel, "--gamma": args.gamma}
        if ineq not in ("shifted", "shifted-unit"):
            unread["--c"] = args.c
        for flag, value in unread.items():
            if value is not None:
                raise InvalidConfigError(f"{flag} does not apply to {ineq}")
        if args.p is None:
            raise InvalidConfigError(f"--p is required for {ineq}")
        if ineq == "coherence":
            report = coherence_report(vs, args.p)
        elif ineq == "power-sum":
            report = power_sum_report(vs, args.p)
        elif ineq == "generalized":
            report = generalized_report(vs, args.p)
        elif ineq == "shifted":
            report = shifted_report(vs, args.p, 0.0 if args.c is None else args.c)
        else:
            report = shifted_unit_report(vs, args.p, 0.0 if args.c is None else args.c)
    text = canonical_json(report.to_dict())
    print(text)
    if args.out is not None:
        atomic_write(args.out, text + "\n")
    return 0 if report.holds else 1


def cmd_optimize(args) -> int:
    cfg = OptimizerConfig(
        p=args.p,
        max_iters=args.max_iters,
        step_init=args.step_init,
        armijo_c=args.armijo_c,
        grad_tol=args.grad_tol,
        restarts=args.restarts,
        seed=args.seed,
    )
    result = minimize_frame_potential(args.m, args.n, cfg)
    print(
        f"final_potential={format_float(result.final_potential)} "
        f"bound={format_float(result.bound)} "
        f"gap={format_float(result.gap)} "
        f"iterations={result.iterations}"
    )
    if args.out is not None:
        atomic_write(args.out, canonical_json(optimize_result_to_dict(result)) + "\n")
    return 0


def _load_scan_config(path: str) -> dict:
    with open(path) as handle:
        doc = parse_json(handle.read())
    if not isinstance(doc, dict):
        raise InvalidConfigError("scan config must be a JSON object")
    allowed = {"kernels", "n", "m", "trials", "seed", "epsilon", "csv_out", "json_out"}
    unknown = set(doc) - allowed
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("kernels", "n", "m", "trials", "seed"):
        if key not in doc:
            raise InvalidConfigError(f"scan config missing {key!r}")
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
    for summary in result.summaries:
        dim = "-" if summary.theoretical_dim is None else str(summary.theoretical_dim)
        sat = "-" if summary.saturated is None else str(summary.saturated).lower()
        print(
            f"kernel={summary.kernel.describe()} "
            f"median_rank={format_float(summary.median_rank)} "
            f"theoretical_dim={dim} saturated={sat}"
        )
    if doc.get("csv_out") is not None:
        atomic_write(doc["csv_out"], scan_csv(result))
    if doc.get("json_out") is not None:
        atomic_write(doc["json_out"], canonical_json(scan_summary_dict(result)) + "\n")
    return 0


def cmd_embed_check(args) -> int:
    vs = read_vector_set(args.infile)
    variant = "homogeneous" if args.c is None else "shifted"
    spec = _kernel({"variant": variant, "p": args.p, "c": args.c})
    fm = feature_matrix(spec, vs)
    g = gram_matrix(spec, vs)
    err = float(np.max(np.abs(fm.reconstructed_gram() - g.matrix)))
    rank = g.rank()
    dim = embedding_dim(spec, vs.n)
    print(
        f"max_error={format_float(err)} rank={rank} embedding_dim={dim}"
    )
    if err >= 1e-10:
        raise NumericalError("feature map does not reproduce the Gram")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="welch",
        description="Vector-set inequality toolkit: generate, check, optimize, scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a vector-set file")
    gen.add_argument("kind", choices=("random", "simplex", "orthonormal"))
    gen.add_argument("--seed", type=int, default=0, help="PRNG seed")
    gen.add_argument("--out", help="output file path")
    gen.add_argument("--m", type=int, help="number of vectors (random only)")
    gen.add_argument("--n", type=int, help="ambient dimension")
    gen.add_argument("--field", choices=("real", "complex"), default="complex")
    gen.set_defaults(func=cmd_gen)

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
    check.set_defaults(func=cmd_check)

    opt = sub.add_parser("optimize", help="minimize frame potential")
    opt.add_argument("--seed", type=int, default=0, help="PRNG seed")
    opt.add_argument("--out", help="output file path")
    opt.add_argument("--m", type=int, required=True)
    opt.add_argument("--n", type=int, required=True)
    opt.add_argument("--p", type=int, required=True)
    opt.add_argument("--max-iters", type=int, default=5000)
    opt.add_argument("--step-init", type=float, default=0.1)
    opt.add_argument("--armijo-c", type=float, default=0.5)
    opt.add_argument("--grad-tol", type=float, default=1e-8)
    opt.add_argument("--restarts", type=int, default=5)
    opt.set_defaults(func=cmd_optimize)

    scan = sub.add_parser("rank-scan", help="kernel-family rank scan")
    scan.add_argument("--config", required=True, help="JSON scan configuration")
    scan.set_defaults(func=cmd_rank_scan)

    embed = sub.add_parser("embed-check", help="verify the explicit feature map")
    embed.add_argument("--in", dest="infile", required=True, help="vector-set file")
    embed.add_argument("--p", type=int, help="kernel degree")
    embed.add_argument("--c", type=float, help="shift; selects the shifted kernel")
    embed.set_defaults(func=cmd_embed_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except WelchKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
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
