"""Seeded mutation fuzzer: malformed scalars through the CLI and the library.

A numpy Generator on fixed seeds picks every mutation, so each run checks
the same few hundred cases.  Through `cli.main` the exit-code contract must
hold: no exception escapes, the code is 0-4, 1 only with "holds":false, and
stdout stays empty on every error exit.  Through the public constructors
and functions, a malformed scalar raises WelchKitError or ValueError only.

Counts (trials, restarts, --max-iters) come from small pools: a huge count
is a long run, not an error.  Sizes are small or far beyond any memory
(>= 1e11 rows), never in between, so numpy refuses the allocation at once.
"""

import copy
import json
from fractions import Fraction

import numpy as np
import pytest

from welchkit import cli
from welchkit.bounds import (
    coherence_report,
    generalized_report,
    sum_power_lhs,
    welch_coherence_bound,
    welch_sum_bound,
)
from welchkit.errors import WelchKitError
from welchkit.features import binomial
from welchkit.frames import (
    OptimizerConfig,
    minimize_frame_potential,
    orthonormal_frame,
    potential_gradient,
    random_unit_vectors,
    simplex_frame,
)
from welchkit.kernels import KernelSpec, gram_matrix
from welchkit.linalg import numerical_rank
from welchkit.rank_scan import rank_scan
from welchkit.serialize import vector_set_from_dict, vector_set_to_dict


def nested(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


# Scalars every parameter is fed, valid and not.
SCALARS = [
    None, True, False, 0, -1, 1, 2, 3, 2.5, -1.5, 1e-300, 1e300, 10**400, -(10**400),
    float("nan"), float("inf"), "2", "NaN", "", [], [2], {}, {"a": 1}, nested(50),
]
# Far beyond memory: numpy refuses such arrays without touching a page.
ABSURD_SIZES = [10**11, 10**12]
# Loop counts stay small.
COUNTS = [None, True, -1, 0, 1, 2, 2.5, "2"]

ARG_TOKENS = [
    "nan", "inf", "-inf", "-1", "0", "1", "2", "3", "2.5", "1e400", "1e-300", "True",
    "", "x", "[]", "100000000000",
]
COUNT_TOKENS = ["-1", "0", "1", "2", "2.5", "x", "nan"]

FILE_COMMANDS = [
    ("check", "--inequality", "power-sum", "--p", "2"),
    ("check", "--inequality", "coherence", "--p", "1"),
    ("check", "--inequality", "generalized", "--p", "2"),
    ("check", "--inequality", "shifted", "--p", "2", "--c", "1.0"),
    ("check", "--inequality", "shifted-unit", "--p", "1", "--c", "0.5"),
    ("check", "--inequality", "gram-rank", "--kernel", "gaussian", "--gamma", "0.5"),
    ("check", "--inequality", "gram-rank", "--p", "2"),
    ("embed-check", "--p", "2"),
]

SCAN_CONFIG = {
    "kernels": [
        {"variant": "homogeneous", "p": 1},
        {"variant": "shifted", "p": 1, "c": 1.0},
        {"variant": "gaussian", "gamma": 0.5},
    ],
    "n": 2,
    "m": 5,
    "trials": 2,
    "seed": 1,
    "epsilon": 1e-8,
    "csv_out": "scan.csv",
    "json_out": "scan-summary.json",
}


def pick(rng, pool):
    return pool[rng.integers(len(pool))]


def run_contract(capsys, argv):
    """Run the CLI in-process and check the exit-code contract."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    if code == 1:
        assert '"holds":false' in out, argv
    if code not in (0, 1):
        assert out == "", (argv, code, out)
        assert err.startswith("error: ") or "usage:" in err, (argv, err)
    assert "Traceback" not in err


def mutate_vector_doc(rng, doc):
    kind = rng.integers(5)
    if kind == 0:
        doc[pick(rng, ["field", "n", "m", "vectors", "labels"])] = pick(
            rng, SCALARS + ABSURD_SIZES
        )
    elif kind == 1:
        del doc[pick(rng, ["field", "n", "m", "vectors"])]
    elif kind == 2:
        doc[pick(rng, ["extra", "M", "vector"])] = pick(rng, SCALARS)
    elif kind == 3:
        row = doc["vectors"][rng.integers(doc["m"])]
        j = rng.integers(doc["n"])
        value = pick(rng, SCALARS + [1e8])
        row[j] = value if rng.integers(2) else [row[j][0], value]
    else:
        doc["vectors"][rng.integers(doc["m"])] = pick(rng, SCALARS)
    return doc


@pytest.mark.parametrize("seed", range(3))
def test_vector_file_mutations(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / "set.json"
    for case in range(30):
        field = pick(rng, ["real", "complex"])
        base = vector_set_to_dict(random_unit_vectors(3, 2, field=field, seed=case))
        doc = mutate_vector_doc(rng, copy.deepcopy(base))
        # allow_nan: NaN and Infinity literals reach the parser, which rejects them.
        path.write_text(json.dumps(doc, allow_nan=True))
        run_contract(capsys, pick(rng, FILE_COMMANDS) + ("--in", str(path)))


def mutate_scan_config(rng, doc):
    kind = rng.integers(6)
    if kind == 0:
        key = pick(rng, ["n", "m", "seed", "epsilon", "kernels", "csv_out", "json_out"])
        doc[key] = pick(rng, SCALARS + ABSURD_SIZES)
    elif kind == 1:
        doc["trials"] = pick(rng, COUNTS)
    elif kind == 2:
        del doc[pick(rng, ["kernels", "n", "m", "trials", "seed", "epsilon"])]
    elif kind == 3:
        doc[pick(rng, ["extra", "Trials", "kernel"])] = pick(rng, SCALARS)
    elif kind == 4:
        entry = doc["kernels"][rng.integers(len(doc["kernels"]))]
        entry[pick(rng, ["variant", "p", "c", "gamma", "degree"])] = pick(
            rng, SCALARS + ABSURD_SIZES
        )
    else:
        doc["kernels"][rng.integers(len(doc["kernels"]))] = pick(rng, SCALARS)
    return doc


@pytest.mark.parametrize("seed", range(3))
def test_scan_config_mutations(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(100 + seed)
    for _ in range(30):
        doc = mutate_scan_config(rng, copy.deepcopy(SCAN_CONFIG))
        (tmp_path / "scan.json").write_text(json.dumps(doc, allow_nan=True))
        run_contract(capsys, ("rank-scan", "--config", "scan.json"))


ARGV_TEMPLATES = [
    ("gen", "random", "--m", "4", "--n", "2", "--seed", "1", "--out", "out.json"),
    ("gen", "simplex", "--n", "3", "--out", "out.json"),
    ("gen", "orthonormal", "--n", "3", "--out", "out.json"),
    ("optimize", "--m", "4", "--n", "2", "--p", "1", "--seed", "0", "--max-iters", "20",
     "--restarts", "1", "--grad-tol", "1e-8",
     "--out", "out.json"),
    ("check", "--in", "set.json", "--inequality", "power-sum", "--p", "2",
     "--out", "out.json"),
    ("check", "--in", "set.json", "--inequality", "gram-rank", "--kernel", "shifted",
     "--p", "2", "--c", "1.0"),
    ("check", "--in", "set.json", "--inequality", "gram-rank", "--kernel", "gaussian",
     "--gamma", "0.5"),
    ("embed-check", "--in", "set.json", "--p", "2", "--c", "1.0"),
]


def mutate_argv(rng, argv):
    argv = list(argv)
    flags = [i for i, a in enumerate(argv) if a.startswith("--")]
    i = pick(rng, flags)
    kind = rng.integers(4)
    if kind == 0:
        count = argv[i] in ("--max-iters", "--restarts")
        argv[i + 1] = pick(rng, COUNT_TOKENS if count else ARG_TOKENS)
    elif kind == 1:
        del argv[i:i + 2]
    elif kind == 2:
        argv += [pick(rng, ["--bogus", "--p", "--c", "--gamma", "--seed", "--out"]),
                 pick(rng, ARG_TOKENS)]
    else:
        i = pick(rng, [i for i in flags if argv[i] in ("--in", "--out")])
        argv[i + 1] = pick(rng, ["missing/out.json", "missing.json", "."])
    return argv


@pytest.mark.parametrize("seed", range(3))
def test_argv_mutations(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)
    cli.main(["gen", "random", "--m", "4", "--n", "2", "--seed", "3", "--out", "set.json"])
    capsys.readouterr()
    rng = np.random.default_rng(200 + seed)
    for _ in range(30):
        run_contract(capsys, mutate_argv(rng, pick(rng, ARGV_TEMPLATES)))


SMALL_CFG = OptimizerConfig(p=1, max_iters=5, restarts=1)
VS = random_unit_vectors(4, 2, seed=5)
SPECTRUM = gram_matrix(KernelSpec.homogeneous(1), VS).spectrum()
DOC = vector_set_to_dict(VS)
SCALAR_EXTRAS = [np.int64(2), np.int64(-1), np.float64(0.5), np.float32("nan"), Fraction(1, 2)]

# Each public entry point with one scalar slot left open.
LIBRARY_CALLS = {
    "KernelSpec p": lambda v: KernelSpec("homogeneous", p=v),
    "KernelSpec.shifted p": lambda v: KernelSpec.shifted(v, 1.0),
    "KernelSpec.shifted c": lambda v: KernelSpec.shifted(2, v),
    "KernelSpec.gaussian gamma": lambda v: KernelSpec.gaussian(v),
    "binomial a": lambda v: binomial(v, 2),
    "binomial b": lambda v: binomial(5, v),
    "binomial a b": lambda v: binomial(v, v),
    "welch_sum_bound m": lambda v: welch_sum_bound(v, 2, 2),
    "welch_sum_bound n": lambda v: welch_sum_bound(4, v, 2),
    "welch_sum_bound p": lambda v: welch_sum_bound(4, 2, v),
    "welch_sum_bound n p": lambda v: welch_sum_bound(4, v, v),
    "welch_coherence_bound m": lambda v: welch_coherence_bound(v, 2, 2),
    "welch_coherence_bound n": lambda v: welch_coherence_bound(4, v, 2),
    "welch_coherence_bound p": lambda v: welch_coherence_bound(4, 2, v),
    "sum_power_lhs p": lambda v: sum_power_lhs(VS, v),
    "generalized_report p": lambda v: generalized_report(VS, v),
    "coherence_report p": lambda v: coherence_report(VS, v),
    "random_unit_vectors m": lambda v: random_unit_vectors(v, 2),
    "random_unit_vectors n": lambda v: random_unit_vectors(3, v),
    "orthonormal_frame n": lambda v: orthonormal_frame(v),
    "simplex_frame n": lambda v: simplex_frame(v),
    "potential_gradient p": lambda v: potential_gradient(VS, v),
    "vector_set_from_dict m": lambda v: vector_set_from_dict({**DOC, "m": v}),
    "vector_set_from_dict n": lambda v: vector_set_from_dict({**DOC, "n": v}),
    "numerical_rank rel_tol": lambda v: numerical_rank(SPECTRUM, v),
    "minimize_frame_potential m": lambda v: minimize_frame_potential(v, 2, SMALL_CFG),
    "minimize_frame_potential n": lambda v: minimize_frame_potential(4, v, SMALL_CFG),
    "rank_scan n": lambda v: rank_scan([KernelSpec.homogeneous(1)], v, 5, 1, 0),
    "rank_scan m": lambda v: rank_scan([KernelSpec.homogeneous(1)], 2, v, 1, 0),
    "rank_scan trials": lambda v: rank_scan([KernelSpec.homogeneous(1)], 2, 5, v, 0),
    "rank_scan seed": lambda v: rank_scan([KernelSpec.homogeneous(1)], 2, 5, 1, v),
    "rank_scan epsilon": lambda v: rank_scan([KernelSpec.homogeneous(1)], 2, 5, 1, 0, v),
}
for field in ("p", "max_iters", "grad_tol", "restarts", "seed"):
    LIBRARY_CALLS[f"OptimizerConfig {field}"] = (
        lambda v, field=field: OptimizerConfig(**{"p": 1, field: v})
    )


def test_library_scalars_raise_only_documented_errors():
    rng = np.random.default_rng(300)
    pool = SCALARS + SCALAR_EXTRAS
    cases = [(name, v) for name in LIBRARY_CALLS for v in pool]
    for i in rng.permutation(len(cases)):
        name, value = cases[i]
        try:
            LIBRARY_CALLS[name](value)
        except (WelchKitError, ValueError):
            pass
        except Exception as exc:
            pytest.fail(f"{name}={value!r:.40}: {type(exc).__name__}: {exc}")

