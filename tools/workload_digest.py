"""Digest every benchmark command's output, to show a change keeps them byte for byte.

Runs the gen and measured commands of the `pairwise` and `spectral` workloads
(perfbench/workloads.py, full sizes) at seeds 1-3, in process through
`welchkit.cli.main`, each workload in its own temporary directory.  Prints one
JSON line per command: workload, seed, argv, exit code, and the SHA-256 of its
stdout, its stderr and each file it writes.  To compare two source trees:

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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))  # argparse's exits come back as codes too
    return {"argv": list(argv), "code": code, "stdout": sha256(out.getvalue().encode()),
            "stderr": sha256(err.getvalue().encode())}


def digest(name: str, seed: int):
    workload = workloads.build(name, seed)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for config_name, config in workload.configs:
                with open(config_name, "w") as handle:
                    json.dump(config, handle)
            for command in workload.gen + workload.commands:
                line = {"workload": name, "seed": seed, **run(command.argv)}
                for path in command.outputs:
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
            digest(name, seed)
