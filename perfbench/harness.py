"""Runs one workload: set-up, CLI and library sessions, checks, metrics.

A session runs the workload's command list once, in order.  The CLI session
starts each command as a fresh `welch` process, as a user at a shell would;
the library session passes the same argv list to ``welchkit.cli.main`` in this
already-imported process.  Every outcome goes through a ``Ledger``, which
counts a command as failed on an unexpected exit code, a traceback on stderr,
output (stdout and written files) that is not byte-identical to the command's
first repeat in this run, or a result the independent reference rejects.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
import tracer as tracing
import workloads

# Set-up repeats per run; setup_s is their median.
SETUP_REPEATS = 5
# Each measured session kind runs at least this often, even past --seconds.
MIN_SESSIONS = 3
# A command still running after this long is killed and counts as failed.
COMMAND_TIMEOUT_S = 120.0
# Launches `welch` exactly as the installed console script does.
WELCH = "import sys; from welchkit.cli import entry; sys.argv[0] = 'welch'; entry()"
IMPORT_PROBE = "import welchkit"
TRACEBACK = "Traceback (most recent call last)"
# How many failure descriptions to keep for the report.
PROBLEMS_KEPT = 20


@dataclass(frozen=True)
class Outcome:
    exit_code: int | None
    stdout: str
    stderr: str
    files: dict


class Ledger:
    """Counts attempted and failed commands; remembers each command's first output."""

    def __init__(self, workdir: Path):
        self.workdir = str(workdir)
        self.attempted = 0
        self.failed = 0
        self.problems: list[dict] = []
        self._first: dict = {}

    def record(self, key, command: workloads.Command, outcome: Outcome) -> bool:
        """Check one outcome; return True when the command succeeded."""
        self.attempted += 1
        problems = []
        if outcome.exit_code != 0:
            problems.append(f"exit code {outcome.exit_code}, expected 0")
        if TRACEBACK in outcome.stderr:
            problems.append("traceback on stderr")
        output = (outcome.stdout, tuple(sorted(outcome.files.items())))
        if key not in self._first:
            verdict = reference.run_check(command.check, self.workdir, outcome)
            self._first[key] = (output, verdict)
        elif output != self._first[key][0]:
            problems.append("output differs from the first repeat")
        problems += self._first[key][1]
        if problems:
            self.failed += 1
            if len(self.problems) < PROBLEMS_KEPT:
                self.problems.append({"command": " ".join(command.argv), "problems": problems})
        return not problems


@contextlib.contextmanager
def working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _read_outputs(workdir: Path, command: workloads.Command) -> dict:
    files = {}
    for name in command.outputs:
        path = workdir / name
        files[name] = path.read_bytes() if path.is_file() else None
    return files


def _clear_outputs(workdir: Path, command: workloads.Command):
    for name in command.outputs:
        (workdir / name).unlink(missing_ok=True)


def spawn(code: str, argv, workdir: Path, env: dict):
    """Run ``python -c code argv...`` to completion.

    Returns (exit code, stdout, stderr, wall seconds, max RSS in KiB).  The
    child is reaped with wait4 so its own peak RSS is read, not a running
    maximum over all children.
    """
    out_path, err_path = workdir / ".stdout", workdir / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *argv], cwd=workdir, env=env, stdout=out, stderr=err
        )
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes().decode(errors="replace")
    stderr = err_path.read_bytes().decode(errors="replace")
    return proc.returncode, stdout, stderr, seconds, usage.ru_maxrss


def run_in_process(main, argv):
    """Call ``main(argv)`` with stdout and stderr captured; return (outcome parts, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback from the program is a failed command
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


class Runner:
    """One workload in one working directory, with its ledger and samples."""

    def __init__(self, root: Path, workload: workloads.Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.ledger = Ledger(self.workdir)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.samples: dict[str, list[float]] = {}

    def sample(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def _welch(self, key, command):
        """Run one command as a fresh process; return (seconds, max RSS in KiB)."""
        _clear_outputs(self.workdir, command)
        code, stdout, stderr, seconds, rss = spawn(WELCH, command.argv, self.workdir, self.env)
        files = _read_outputs(self.workdir, command)
        self.ledger.record(key, command, Outcome(code, stdout, stderr, files))
        return seconds, rss

    def _probe(self, code: str) -> float:
        # A broken import also fails every later command, so only time it.
        return spawn(code, (), self.workdir, self.env)[3]

    def setup(self):
        """Interpreter start, import welchkit, then write the seeded inputs."""
        interp = self._probe("pass")
        seconds = self._probe(IMPORT_PROBE)
        self.sample("cli.interp_s", interp)
        self.sample("cli.import_s", seconds - interp)
        for name, config in self.workload.configs:
            start = time.perf_counter()
            with open(self.workdir / name, "w") as handle:
                json.dump(config, handle)
            seconds += time.perf_counter() - start
        for i, command in enumerate(self.workload.gen):
            seconds += self._welch(("gen", i), command)[0]
        self.sample("setup_s", seconds)

    def cli_session(self):
        peak_kib = 0
        for i, command in enumerate(self.workload.commands):
            seconds, rss = self._welch(("cmd", i), command)
            self.sample(f"cli_session_s.{i}", seconds)
            peak_kib = max(peak_kib, rss)
        self.sample("peak_rss_mb", peak_kib / 1024.0)

    def lib_session(self, tracer: tracing.Tracer | None = None, kind: str = "lib_session_s"):
        from welchkit import cli

        main = cli.main
        gc.collect()
        with contextlib.ExitStack() as stack:
            stack.enter_context(working_directory(self.workdir))
            if tracer is not None:
                stack.enter_context(tracing.installed(tracer))
                main = tracer.wrap("cli.main", cli.main)
            for i, command in enumerate(self.workload.commands):
                _clear_outputs(self.workdir, command)
                if tracer is not None:
                    tracer.command = i
                code, stdout, stderr, seconds = run_in_process(main, command.argv)
                files = _read_outputs(self.workdir, command)
                self.ledger.record(("cmd", i), command, Outcome(code, stdout, stderr, files))
                self.sample(f"{kind}.{i}", seconds)

    def session_median(self, kind: str) -> float:
        """Sum over the command list of each command's median time.

        Each command's median is taken on its own, so a slow moment in one
        command of a session does not carry the rest of that session with it.
        """
        return sum(
            _median(self.samples[f"{kind}.{i}"]) for i in range(len(self.workload.commands))
        )


def measure(runner: Runner, seconds: float, traced: bool) -> list[tracing.Tracer]:
    """Alternate the session kinds until the time is spent.

    Untraced: CLI session, then library session.  Traced: untraced library
    session, then traced library session.  Each kind runs MIN_SESSIONS times
    at least; after that no round starts that would end past ``seconds``.
    """
    tracers = []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        if traced:
            runner.lib_session()
            tracer = tracing.Tracer(session=rounds)
            runner.lib_session(tracer, "traced_session_s")
            tracers.append(tracer)
        else:
            runner.cli_session()
            runner.lib_session()
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_SESSIONS and now + (now - round_start) - start > seconds:
            return tracers


def machine_record(root: Path, blas_threads: int) -> dict:
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
            ).stdout.strip()
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((root / "src" / "welchkit").glob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "commit": commit,
        "src_lines": src_lines,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(runner: Runner) -> dict:
    s = runner.samples
    return {
        "cli_session_s": (runner.session_median("cli_session_s"), "s"),
        "lib_session_s": (runner.session_median("lib_session_s"), "s"),
        "setup_s": (_median(s["setup_s"]), "s"),
        "peak_rss_mb": (_median(s["peak_rss_mb"]), "MiB"),
    }


def per_layer(runner: Runner, tracers: list[tracing.Tracer]) -> dict:
    per_session = [tracing.layer_metrics(t.spans) for t in tracers]
    metrics = {}
    for name in per_session[0]:
        value = _median([m[name] for m in per_session])
        metrics[name] = (value, _unit(name))
    s = runner.samples
    metrics["cli.interp_s"] = (_median(s["cli.interp_s"]), "s")
    metrics["cli.import_s"] = (_median(s["cli.import_s"]), "s")
    metrics["trace.overhead_s"] = (
        runner.session_median("traced_session_s") - runner.session_median("lib_session_s"), "s"
    )
    ledger = runner.ledger
    metrics["error_rate"] = (ledger.failed / ledger.attempted, "ratio")
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("serialize.bytes"):
        return "bytes"
    if name.endswith(("_ratio", ".max_iters_hit", ".coverage")):
        return "ratio"
    return "count"


def _write_spans(path: Path, workload: str, tracers: list[tracing.Tracer]):
    with open(path, "w") as handle:
        offset = 0
        for t in tracers:
            for i, span in enumerate(t.spans):
                record = span.as_dict(offset + i, workload)
                if record["parent"] is not None:
                    record["parent"] += offset
                handle.write(json.dumps(record) + "\n")
            offset += len(t.spans)


def run(root: Path, name: str, seed: int, seconds: float, traced: bool, blas_threads: int) -> int:
    sys.path.insert(0, str(root / "src"))
    import welchkit  # noqa: F401  -- imported before timing, as a warm process would be

    workload = workloads.build(name, seed)
    runner = Runner(root, workload, root / "perfbench" / "work" / name)
    machine = machine_record(root, blas_threads)
    print(f"workload={name} seed={seed} seconds={seconds:g} trace={int(traced)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))

    for _ in range(SETUP_REPEATS):
        runner.setup()
    tracers = measure(runner, seconds, traced)
    metrics = per_layer(runner, tracers) if traced else end_to_end(runner)

    ledger = runner.ledger
    for metric, (value, unit) in metrics.items():
        samples = runner.samples.get(metric)
        per_command = runner.samples.get(f"{metric}.0")
        count = f" (median of {len(samples)})" if samples else ""
        if per_command:
            count = f" (sum of per-command medians of {len(per_command)})"
        print(f"  {metric} = {value:.6g} {unit}{count}")
    for entry in ledger.problems:
        print(f"  FAILED {entry['command']}: {'; '.join(entry['problems'])}")
    if traced:
        _write_spans(runner.workdir / "spans.jsonl", name, tracers)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=name, seed=seed, machine=machine,
                  samples=runner.samples, problems=ledger.problems)
    with open(runner.workdir / "result.json", "w") as handle:
        json.dump(detail, handle, indent=1)
    print(json.dumps(result))
    return 0
