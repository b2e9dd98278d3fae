"""Self-tests of the benchmark at smoke sizes; they run in seconds.

    python3 perfbench/selftest.py

They check that the reference rejects wrong results, that the ledger counts
a wrong exit code and a non-identical repeat as failures, that traced runs
print what untraced runs print and are covered by layer spans, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def smoke_runner(name: str) -> harness.Runner:
    workload = workloads.build(name, SEED, workloads.SMOKE)
    runner = harness.Runner(ROOT, workload, HERE / "work" / f"selftest-{name}")
    runner.setup()
    return runner


def first_outcome(runner: harness.Runner, index: int = 0) -> harness.Outcome:
    from welchkit import cli

    command = runner.workload.commands[index]
    with harness.working_directory(runner.workdir):
        code, stdout, stderr, _ = harness.run_in_process(cli.main, command.argv)
        files = harness._read_outputs(runner.workdir, command)
    return harness.Outcome(code, stdout, stderr, files)


class ReferenceTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runner = smoke_runner("pairwise")
        cls.command = cls.runner.workload.commands[0]
        cls.outcome = first_outcome(cls.runner)

    def problems(self, outcome):
        return self.command.check(str(self.runner.workdir), outcome)

    def test_genuine_report_passes(self):
        self.assertEqual(self.outcome.exit_code, 0)
        self.assertEqual(self.problems(self.outcome), [])

    def test_rejects_lhs_perturbed_by_one_part_per_million(self):
        doc = json.loads(self.outcome.stdout)
        doc["lhs"] *= 1 + 1e-6
        doc["slack"] = doc["lhs"] - doc["rhs"]
        perturbed = harness.Outcome(0, json.dumps(doc) + "\n", "", {})
        self.assertTrue(any("lhs" in p for p in self.problems(perturbed)))

    def test_ledger_rejects_wrong_exit_code(self):
        ledger = harness.Ledger(self.runner.workdir)
        wrong = harness.Outcome(1, self.outcome.stdout, "", {})
        self.assertFalse(ledger.record("cmd", self.command, wrong))
        self.assertEqual((ledger.attempted, ledger.failed), (1, 1))

    def test_ledger_rejects_traceback(self):
        ledger = harness.Ledger(self.runner.workdir)
        crashed = harness.Outcome(0, self.outcome.stdout, harness.TRACEBACK + "\n", {})
        self.assertFalse(ledger.record("cmd", self.command, crashed))

    def test_non_identical_repeat_is_a_failure(self):
        ledger = harness.Ledger(self.runner.workdir)
        self.assertTrue(ledger.record("cmd", self.command, self.outcome))
        self.assertTrue(ledger.record("cmd", self.command, self.outcome))
        # Same value, different bytes: a reordered but equal JSON report.
        doc = json.loads(self.outcome.stdout)
        reordered = json.dumps(dict(reversed(list(doc.items())))) + "\n"
        changed = harness.Outcome(0, reordered, "", {})
        self.assertFalse(ledger.record("cmd", self.command, changed))
        self.assertEqual((ledger.attempted, ledger.failed), (3, 1))


class TraceTests(unittest.TestCase):
    def test_every_workload_traced_identically_and_covered(self):
        for name in workloads.FULL:
            with self.subTest(workload=name):
                runner = smoke_runner(name)
                runner.lib_session()
                tracer = tracing.Tracer()
                runner.lib_session(tracer)
                ledger = runner.ledger
                self.assertEqual(ledger.failed, 0, ledger.problems)
                metrics = tracing.layer_metrics(tracer.spans)
                self.assertGreaterEqual(metrics["trace.coverage"], 0.9)

    def test_tracer_restores_the_program(self):
        from welchkit import cli, kernels

        before = (cli.gram_matrix, kernels.hermitian_eigenvalues, kernels.GramMatrix.spectrum)
        with tracing.installed(tracing.Tracer()):
            self.assertIsNot(cli.gram_matrix, before[0])
        after = (cli.gram_matrix, kernels.hermitian_eigenvalues, kernels.GramMatrix.spectrum)
        self.assertEqual(before, after)

    def test_self_time_excludes_children(self):
        parent = tracing.Span("cli.main", 0.0, None, 0, 0, end=10.0)
        child = tracing.Span("kernels.gram_matrix", 1.0, 0, 0, 0, end=4.0)
        grandchild = tracing.Span("linalg.trace", 2.0, 1, 0, 0, end=3.0)
        self.assertEqual(tracing.self_times([parent, child, grandchild]), [7.0, 2.0, 1.0])


class PreflightTests(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        bare = HERE / "work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pairwise",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
