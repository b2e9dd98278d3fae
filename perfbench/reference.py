"""Independent reference for every output the benchmark's commands produce.

Each check recomputes a result from the generated input files with plain
vectorized numpy and none of welchkit's code, then compares within the
documented tolerances rather than byte for byte, so a later change that moves
the last bits of a result still passes.  A check takes the working directory
and one command's ``Outcome`` and returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics

import numpy as np

# lhs, rhs, potentials and coherences: relative to max(1, |reference|).  The
# program sums in another order than numpy does, so only the last few bits of
# a double may differ; 1e-9 is the package's own verdict tolerance.
VALUE_RTOL = 1e-9
# FORMATS.md: a bound holds when slack >= -1e-9 * max(1, |rhs|) and is tight
# when it holds with |slack| <= 1e-6 * max(1, |rhs|).
CHECK_TOL = 1e-9
TIGHT_TOL = 1e-6
# Numerical rank: eigenvalues above RANK_RTOL * sigma_max.  An eigenvalue
# within RANK_BAND * sigma_max of that threshold may fall on either side,
# because eigensolvers agree only to a few ulps of sigma_max.
RANK_RTOL = 1e-8
RANK_BAND = 1e-11
# embed-check must reproduce the Gram to this absolute error.
EMBED_TOL = 1e-10
# Generated and optimized vectors are unit to within this.
UNIT_TOL = 1e-12

REPORT_KEYS = (
    "inequality_id", "lhs", "rhs", "slack", "holds", "tight",
    "m", "n", "p", "c", "r", "vacuous", "rhs_unit",
)
SCAN_CSV_HEADER = "kernel,variant,p,c,gamma,trial,epsilon,rank,theoretical_dim"
OPTIMIZE_KEYS = {"vectors", "final_potential", "bound", "gap", "iterations", "trajectory"}


def close(value, ref, rtol=VALUE_RTOL) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def vectors_from_doc(doc) -> np.ndarray:
    """(m, n) complex array from a vector-set document's [re, im] pairs."""
    pairs = np.asarray(doc["vectors"], dtype=np.float64)
    return pairs[..., 0] + 1j * pairs[..., 1]


def load_vectors(path: str) -> np.ndarray:
    with open(path) as handle:
        return vectors_from_doc(json.load(handle))


def inner_table(x: np.ndarray) -> np.ndarray:
    """T[i, j] = <x_i, x_j>, conjugate-linear in the first slot."""
    return np.conj(x) @ x.T


def kernel_gram(x: np.ndarray, kernel: str, p=None, c=None, gamma=None) -> np.ndarray:
    t = inner_table(x)
    if kernel == "homogeneous":
        return t**p
    if kernel == "shifted":
        return (t + c) ** p
    diff = x[:, np.newaxis, :] - x[np.newaxis, :, :]
    return np.exp(-gamma * np.sum(np.abs(diff) ** 2, axis=2)).astype(np.complex128)


def rank_range(g: np.ndarray) -> tuple[int, int]:
    """Smallest and largest numerical rank consistent with solver round-off."""
    sigma = np.abs(np.linalg.eigvalsh(g))
    top = float(np.max(sigma))
    if top == 0.0:
        return 0, 0
    tau = RANK_RTOL * top
    band = RANK_BAND * top
    return int(np.sum(sigma > tau + band)), int(np.sum(sigma > tau - band))


def polynomial_dim(n: int, p: int, shifted: bool) -> int:
    return math.comb(n + p, p) if shifted else math.comb(n + p - 1, p)


def _fields(text: str) -> dict:
    """key=value pairs of one stdout line."""
    return dict(part.split("=", 1) for part in text.split())


# ---------------------------------------------------------------------------
# welch gen


def check_gen(out_name, m, n, workdir, outcome) -> list[str]:
    data = outcome.files.get(out_name)
    if data is None:
        return [f"gen wrote no {out_name}"]
    doc = json.loads(data)
    x = vectors_from_doc(doc)
    problems = []
    if (doc["m"], doc["n"], x.shape) != (m, n, (m, n)):
        problems.append(f"gen wrote shape {x.shape}, expected {(m, n)}")
    if np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) > UNIT_TOL:
        problems.append("gen wrote vectors that are not unit")
    fields = _fields(outcome.stdout)
    if (fields.get("m"), fields.get("n")) != (str(m), str(n)):
        problems.append(f"gen printed {outcome.stdout.strip()!r}")
    t = np.abs(inner_table(x))
    np.fill_diagonal(t, 0.0)
    if "coherence" not in fields or not close(float(fields["coherence"]), float(np.max(t))):
        problems.append("gen printed a coherence off the reference")
    return problems


# ---------------------------------------------------------------------------
# welch check


def expected_report(x, inequality, p, c, kernel, gamma) -> dict:
    """Reference lhs, rhs and metadata of one bound report.

    For gram-rank the rhs depends on the rank the program reports, so the
    result carries the admissible rank range and the trace instead.
    """
    m, n = x.shape
    t = inner_table(x)
    norms_sq = np.sum(np.abs(x) ** 2, axis=1)
    if inequality == "gram-rank":
        g = kernel_gram(x, kernel, p, c, gamma)
        return {
            "lhs": float(np.sum(np.abs(g) ** 2)),
            "trace": float(np.sum(np.diagonal(g).real)),
            "ranks": rank_range(g),
            "meta": {"m": m, "n": None, "p": p, "c": c, "vacuous": None, "rhs_unit": None},
        }
    meta = {"m": m, "n": n, "p": p, "c": None, "vacuous": None, "rhs_unit": None}
    dim = polynomial_dim(n, p, shifted=False)
    if inequality == "power-sum":
        lhs, rhs = np.sum(np.abs(t) ** (2 * p)), m * m / dim
    elif inequality == "generalized":
        lhs = np.sum(np.abs(t) ** (2 * p)) / np.sum(norms_sq**p) ** 2
        rhs = 1.0 / dim
    elif inequality == "coherence":
        off = np.abs(t)
        np.fill_diagonal(off, 0.0)
        lhs = np.max(off)
        radicand = (m - dim) / (dim * (m - 1))
        meta["vacuous"] = radicand <= 0
        rhs = 0.0 if radicand <= 0 else radicand ** (1.0 / (2 * p))
    else:
        shifted_dim = polynomial_dim(n, p, shifted=True)
        lhs = np.sum(np.abs(t + c) ** (2 * p))
        unit_rhs = m * m * (1.0 + c) ** (2 * p) / shifted_dim
        if inequality == "shifted":
            rhs = np.sum((norms_sq + c) ** p) ** 2 / shifted_dim
            unit = np.max(np.abs(np.sqrt(norms_sq) - 1.0)) <= UNIT_TOL
            meta["rhs_unit"] = unit_rhs if unit else None
        else:
            rhs = unit_rhs
            meta["rhs_unit"] = unit_rhs
        meta["c"] = c
    return {"lhs": float(lhs), "rhs": float(rhs), "meta": meta}


def check_report(vector_file, inequality, p, c, kernel, gamma, workdir, outcome) -> list[str]:
    try:
        doc = json.loads(outcome.stdout)
    except ValueError:
        return ["check printed no JSON report"]
    if not isinstance(doc, dict) or tuple(doc) != REPORT_KEYS:
        return ["report keys differ from FORMATS.md"]
    x = load_vectors(os.path.join(workdir, vector_file))
    ref = expected_report(x, inequality, p, c, kernel, gamma)
    problems = []
    if doc["inequality_id"] != inequality:
        problems.append(f"report is for {doc['inequality_id']!r}")
    for key, want in ref["meta"].items():
        got = doc[key]
        if key == "rhs_unit" and want is not None and got is not None:
            if not close(got, want):
                problems.append(f"rhs_unit {got!r} vs reference {want!r}")
        elif got != want:
            problems.append(f"{key} {got!r} vs reference {want!r}")
    if inequality == "gram-rank":
        lo, hi = ref["ranks"]
        r = doc["r"]
        if not (isinstance(r, int) and lo <= r <= hi):
            problems.append(f"rank {r!r} outside reference range [{lo}, {hi}]")
            return problems
        rhs = ref["trace"] ** 2 / r if r > 0 else 0.0
    else:
        rhs = ref["rhs"]
        if doc["r"] is not None:
            problems.append("r set outside gram-rank")
    if not close(doc["lhs"], ref["lhs"]):
        problems.append(f"lhs {doc['lhs']!r} vs reference {ref['lhs']!r}")
    if not close(doc["rhs"], rhs):
        problems.append(f"rhs {doc['rhs']!r} vs reference {rhs!r}")
    scale = max(1.0, abs(doc["rhs"]))
    slack = doc["lhs"] - doc["rhs"]
    if not close(doc["slack"], slack, rtol=1e-12):
        problems.append("slack is not lhs - rhs")
    holds = slack >= -CHECK_TOL * scale
    if doc["holds"] is not holds or not holds:
        problems.append(f"holds is {doc['holds']!r}; the bound is a theorem")
    if doc["tight"] is not (holds and abs(slack) <= TIGHT_TOL * scale):
        problems.append(f"tight is {doc['tight']!r}, inconsistent with the slack")
    return problems


# ---------------------------------------------------------------------------
# welch embed-check


def check_embed(vector_file, p, c, workdir, outcome) -> list[str]:
    fields = _fields(outcome.stdout)
    try:
        err = float(fields["max_error"])
        rank = int(fields["rank"])
        dim = int(fields["embedding_dim"])
    except (KeyError, ValueError):
        return [f"embed-check printed {outcome.stdout.strip()!r}"]
    x = load_vectors(os.path.join(workdir, vector_file))
    want_dim = polynomial_dim(x.shape[1], p, shifted=c is not None)
    kernel = "homogeneous" if c is None else "shifted"
    lo, hi = rank_range(kernel_gram(x, kernel, p, c))
    problems = []
    if not err < EMBED_TOL:
        problems.append(f"feature map error {err!r} not below {EMBED_TOL}")
    if dim != want_dim:
        problems.append(f"embedding_dim {dim} vs C(n+p, p) = {want_dim}")
    if rank != dim:
        problems.append(f"rank {rank} does not reach embedding_dim {dim}")
    if not lo <= rank <= hi:
        problems.append(f"rank {rank} outside reference range [{lo}, {hi}]")
    return problems


# ---------------------------------------------------------------------------
# welch rank-scan


def _kernel_dim(entry, n):
    if entry["variant"] == "gaussian":
        return None
    return polynomial_dim(n, entry["p"], shifted=entry["variant"] == "shifted")


def check_scan(config, workdir, outcome) -> list[str]:
    """Saturation of every polynomial kernel, and the three outputs agree."""
    summary_raw = outcome.files.get(config["json_out"])
    table_raw = outcome.files.get(config["csv_out"])
    if summary_raw is None or table_raw is None:
        return ["rank-scan did not write both its CSV and JSON outputs"]
    summary = json.loads(summary_raw)
    rows = list(csv.DictReader(io.StringIO(table_raw.decode())))
    lines = outcome.stdout.splitlines()
    n, m, trials = config["n"], config["m"], config["trials"]
    problems = []
    for key in ("n", "m", "trials", "seed"):
        if summary[key] != config[key]:
            problems.append(f"summary {key} {summary[key]!r} vs config {config[key]!r}")
    if table_raw.decode().split("\n", 1)[0] != SCAN_CSV_HEADER:
        problems.append("CSV header differs from FORMATS.md")
    kernels = config["kernels"]
    if len(summary["kernels"]) != len(kernels) or len(lines) != len(kernels):
        return problems + ["one summary entry and one stdout line per kernel expected"]
    if len(rows) != len(kernels) * trials:
        return problems + [f"{len(rows)} CSV rows, expected {len(kernels) * trials}"]
    for entry, got, line in zip(kernels, summary["kernels"], lines):
        dim = _kernel_dim(entry, n)
        label = got["kernel"]
        ranks = [int(row["rank"]) for row in rows if row["kernel"] == label]
        if len(ranks) != trials:
            problems.append(f"{label}: {len(ranks)} CSV rows, expected {trials}")
            continue
        if got["variant"] != entry["variant"] or got["theoretical_dim"] != dim:
            problems.append(f"{label}: variant or theoretical_dim off the closed form")
        if float(statistics.median(ranks)) != got["median_rank"]:
            problems.append(f"{label}: median_rank disagrees with the CSV rows")
        if dim is None:
            if got["saturated"] is not None or not all(1 <= r <= m for r in ranks):
                problems.append(f"{label}: gaussian ranks outside [1, m]")
        elif got["saturated"] is not True or any(r != dim for r in ranks):
            problems.append(f"{label}: rank does not saturate its feature dimension {dim}")
        fields = _fields(line)
        if (
            fields.get("median_rank") is None
            or float(fields["median_rank"]) != got["median_rank"]
            or not line.startswith(f"kernel={label} ")
        ):
            problems.append(f"stdout line {line!r} disagrees with the summary")
    return problems


# ---------------------------------------------------------------------------
# welch optimize


def check_optimize(m, n, p, out_name, workdir, outcome) -> list[str]:
    """The run certifies a tight power-sum bound: -1e-9 <= gap <= 1e-6 max(1, bound)."""
    raw = outcome.files.get(out_name)
    if raw is None:
        return [f"optimize wrote no {out_name}"]
    doc = json.loads(raw)
    if set(doc) != OPTIMIZE_KEYS:
        return ["optimizer result keys differ from FORMATS.md"]
    x = vectors_from_doc(doc["vectors"])
    problems = []
    if x.shape != (m, n):
        return [f"optimized set has shape {x.shape}, expected {(m, n)}"]
    if np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) > UNIT_TOL:
        problems.append("optimized vectors are not unit")
    potential = float(np.sum(np.abs(inner_table(x)) ** (2 * p)))
    bound = m * m / polynomial_dim(n, p, shifted=False)
    gap = potential - bound
    if not close(doc["final_potential"], potential):
        problems.append(f"final_potential {doc['final_potential']!r} vs reference {potential!r}")
    if not close(doc["bound"], bound, rtol=1e-12):
        problems.append(f"bound {doc['bound']!r} vs m^2 / C(n+p-1, p) = {bound!r}")
    if not close(doc["gap"], doc["final_potential"] - doc["bound"], rtol=1e-12):
        problems.append("gap is not final_potential - bound")
    if not -CHECK_TOL <= gap <= TIGHT_TOL * max(1.0, bound):
        problems.append(f"gap {gap!r} does not certify tight")
    trajectory = doc["trajectory"]
    if doc["iterations"] != len(trajectory) - 1 or trajectory[-1] != doc["final_potential"]:
        problems.append("iterations or trajectory inconsistent with the result")
    if any(b > a for a, b in zip(trajectory, trajectory[1:])):
        problems.append("trajectory increases")
    fields = _fields(outcome.stdout)
    printed = {key: fields.get(key) for key in ("final_potential", "bound", "gap", "iterations")}
    if None in printed.values() or (
        float(printed["final_potential"]), float(printed["bound"]),
        float(printed["gap"]), int(printed["iterations"]),
    ) != (doc["final_potential"], doc["bound"], doc["gap"], doc["iterations"]):
        problems.append(f"stdout {outcome.stdout.strip()!r} disagrees with the --out file")
    return problems


# A check that finds the output malformed beyond its own parsing reports it as
# a problem rather than crashing the benchmark.
_PARSE_ERRORS = (ValueError, KeyError, TypeError, IndexError, AttributeError)


def run_check(check, workdir, outcome) -> list[str]:
    try:
        return check(workdir, outcome)
    except _PARSE_ERRORS as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
