"""Digest every benchmark command's output, to show a change keeps them byte for byte.

Runs the gen and measured commands of the `pairwise` and `spectral` workloads
(perfbench/workloads.py, full sizes) at seeds 1-3, in process through
`welchkit.cli.main`, each workload in its own temporary directory.  Then runs a
fixed list of failing commands on small hand-written files, in a directory of
their own: one per kind of fault that exits 2, 3 or 4, so their exit codes and
messages are kept too.  Prints one JSON line per command: workload ("failing"
for that list), seed, argv, exit code, and the SHA-256 of its stdout, its stderr
and each file it writes.  To compare two source trees:

    PYTHONPATH=old/src python tools/workload_digest.py > old.txt
    PYTHONPATH=new/src python tools/workload_digest.py > new.txt
    diff old.txt new.txt

Optimizer results depend on BLAS rounding, so pin OPENBLAS_NUM_THREADS=1.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import workloads  # noqa: E402
from welchkit.cli import main  # noqa: E402


def _vectors(rows) -> dict:
    """A real vector-set document with the given rows."""
    vectors = [[[x, 0] for x in row] for row in rows]
    return {"field": "real", "n": len(rows[0]), "m": len(rows), "vectors": vectors}


FAILING_FILES = {
    "unit.json": _vectors([[1, 0], [0, 1], [0.6, 0.8]]),
    "unit8.json": _vectors([[float(i == j) for j in range(8)] for i in range(8)]),
    "long.json": _vectors([[2, 0], [0, 2]]),
    "one.json": _vectors([[1, 0]]),
    "zero.json": _vectors([[0, 0], [0, 0]]),
    # m equal to the widest feature dimension, C(2 + 2 - 1, 2) = 3.
    "scan.json": {"kernels": [{"variant": "homogeneous", "p": 2}],
                  "n": 2, "m": 3, "trials": 1, "seed": 0},
}

# (argv, files it would write); each fails, with exit 4, 2 or 3 in this order.
FAILING = [
    (("check", "--in", "long.json", "--inequality", "power-sum", "--p", "1"), ()),
    (("check", "--in", "one.json", "--inequality", "coherence", "--p", "1"), ()),
    (("check", "--in", "zero.json", "--inequality", "generalized", "--p", "1"), ()),
    (("check", "--in", "unit.json", "--inequality", "shifted", "--p", "300",
      "--c", "10"), ()),
    (("check", "--in", "unit8.json", "--inequality", "power-sum", "--p", "1000000"), ()),
    (("embed-check", "--in", "unit8.json", "--p", "1100"), ()),
    (("rank-scan", "--config", "scan.json"), ()),
    (("gen", "simplex", "--n", "3", "--m", "4", "--out", "simplex.json"), ("simplex.json",)),
    (("check", "--in", "missing.json", "--inequality", "power-sum", "--p", "1"), ()),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))  # argparse's exits come back as codes too
    return {"argv": list(argv), "code": code, "stdout": sha256(out.getvalue().encode()),
            "stderr": sha256(err.getvalue().encode())}


def digest(name: str, seed, files, commands):
    """Write files into a new temporary directory, then run each (argv, outputs)
    of commands there and print its line."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for file_name, doc in files:
                with open(file_name, "w") as handle:
                    json.dump(doc, handle)
            for argv, outputs in commands:
                line = {"workload": name, "seed": seed, **run(argv)}
                for path in outputs:
                    if os.path.exists(path):  # else null: the command wrote nothing
                        with open(path, "rb") as handle:
                            line[path] = sha256(handle.read())
                    else:
                        line[path] = None
                print(json.dumps(line), flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    for name in ("pairwise", "spectral"):
        for seed in (1, 2, 3):
            workload = workloads.build(name, seed)
            commands = [(c.argv, c.outputs) for c in workload.gen + workload.commands]
            digest(name, seed, workload.configs, commands)
    digest("failing", None, FAILING_FILES.items(), FAILING)
