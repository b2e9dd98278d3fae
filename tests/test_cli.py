"""End-to-end tests for the `welch` command line."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import welchkit
from welchkit import cli, errors
from welchkit.cli import main
from welchkit.features import FeatureMatrix
from welchkit.serialize import parse_json, read_vector_set

DEEP_JSON = "[" * 10**5 + "]" * 10**5


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def real_set_text(rows, **header):
    """Vector-set file text for real rows of numbers; header overrides m/n."""
    doc = {
        "field": "real",
        "n": len(rows[0]),
        "m": len(rows),
        "vectors": [[[x, 0.0] for x in row] for row in rows],
    }
    doc.update(header)
    return json.dumps(doc)


HUGE_SET = real_set_text([[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]])
UNIT_SET = real_set_text([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
DOUBLED_SET = real_set_text([[2.0, 0.0], [0.0, 2.0], [1.2, 1.6]])


def bad_entry_text(entry):
    """Vector-set file text of a 2 x 2 real set whose entry (1, 0) is entry."""
    return (
        '{"field": "real", "n": 2, "m": 2, '
        f'"vectors": [[[1.0, 0.0], [0.0, 0.0]], [{entry}, [1.0, 0.0]]]}}'
    )


# JSON literals beyond float range, by test id; json.dumps writes 1e400 as Infinity.
BEYOND_FLOAT = {"1e400": "1e400", "minus-1e400": "-1e400", "int-1e400": str(10**400)}


def with_literal(text, literal):
    """text with its string "LITERAL" replaced by the bare JSON literal."""
    return text.replace('"LITERAL"', literal)


def scan_config_text(key, literal):
    """Scan config text whose key holds the JSON literal; p, c and gamma sit
    in a kernel entry of the variant that reads them."""
    config = {"kernels": [{"variant": "homogeneous", "p": 1}], "n": 2, "m": 8,
              "trials": 3, "seed": 5, "epsilon": 1e-8}
    kernel = {"p": {"variant": "homogeneous"}, "c": {"variant": "shifted", "p": 1},
              "gamma": {"variant": "gaussian"}}
    if key in kernel:
        config["kernels"] = [{**kernel[key], key: "LITERAL"}]
    else:
        config[key] = "LITERAL"
    return with_literal(json.dumps(config), literal)


# A scan config whose epsilon literal overflows a double.
EPSILON_1E400 = (
    '{"kernels": [{"variant": "homogeneous", "p": 1}], '
    '"n": 2, "m": 8, "trials": 3, "seed": 5, "epsilon": 1e400}'
)


class TestGen:
    def test_random_writes_file_and_summary(self, tmp_path, capsys):
        out = tmp_path / "set.json"
        code, stdout, _ = run(
            capsys, "gen", "random", "--m", "5", "--n", "3", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        vs = read_vector_set(str(out))
        assert (vs.m, vs.n) == (5, 3)
        np.testing.assert_allclose(vs.norms(), 1.0, atol=1e-12)
        assert stdout.startswith("m=5 n=3 coherence=")

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys, "gen", "random", "--m", "4", "--n", "2", "--seed", "11",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "gen", "random", "--m", "4", "--n", "2", "--seed", "1",
            "--out", str(a))
        run(capsys, "gen", "random", "--m", "4", "--n", "2", "--seed", "2",
            "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_simplex_coherence_printed(self, tmp_path, capsys):
        out = tmp_path / "simplex.json"
        code, stdout, _ = run(capsys, "gen", "simplex", "--n", "2", "--out", str(out))
        assert code == 0
        fields = dict(part.split("=") for part in stdout.split())
        assert (fields["m"], fields["n"]) == ("3", "2")
        assert float(fields["coherence"]) == pytest.approx(0.5, abs=1e-12)

    def test_orthonormal(self, tmp_path, capsys):
        out = tmp_path / "ortho.json"
        code, stdout, _ = run(
            capsys, "gen", "orthonormal", "--n", "4", "--out", str(out)
        )
        assert code == 0
        vs = read_vector_set(str(out))
        assert (vs.m, vs.n) == (4, 4)
        assert "coherence=0.0" in stdout

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "random", "--m", "3", "--n", "2")
        assert code == 2
        assert "out" in err

    def test_missing_out_fails_before_the_draw(self, capsys):
        code, out, err = run(capsys, "gen", "random", "--m", "100000000000", "--n", "8")
        assert code == 2
        assert out == ""
        assert "--out" in err and "allocate" not in err

    def test_random_needs_m_and_n(self, capsys):
        code, _, _ = run(capsys, "gen", "random", "--n", "2", "--out", "/dev/null")
        assert code == 2

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "set.json"
        code, _, _ = run(
            capsys, "gen", "random", "--m", "3", "--n", "2", "--out", str(out)
        )
        assert code == 3


class TestCheck:
    @pytest.fixture()
    def unit_file(self, tmp_path, capsys):
        path = tmp_path / "unit.json"
        run(capsys, "gen", "random", "--m", "6", "--n", "3", "--seed", "3",
            "--out", str(path))
        capsys.readouterr()
        return str(path)

    @pytest.mark.parametrize(
        "ineq", ["coherence", "power-sum", "generalized", "shifted", "shifted-unit"]
    )
    def test_holds_and_reports(self, unit_file, capsys, ineq):
        shift = ("--c", "0.5") if ineq.startswith("shifted") else ()
        code, stdout, _ = run(
            capsys, "check", "--in", unit_file, "--inequality", ineq,
            "--p", "2", *shift,
        )
        assert code == 0
        doc = parse_json(stdout)
        assert doc["inequality_id"] == ineq
        assert doc["holds"] is True

    def test_gram_rank_gaussian(self, unit_file, capsys):
        code, stdout, _ = run(
            capsys, "check", "--in", unit_file, "--inequality", "gram-rank",
            "--kernel", "gaussian", "--gamma", "0.5",
        )
        assert code == 0
        doc = parse_json(stdout)
        assert doc["inequality_id"] == "gram-rank"
        assert doc["holds"] is True

    @pytest.mark.parametrize("ineq", ["shifted", "shifted-unit"])
    @pytest.mark.parametrize("c", ["nan", "inf", "-1"])
    def test_bad_shift_is_argument_error(self, unit_file, capsys, ineq, c):
        code, _, err = run(
            capsys, "check", "--in", unit_file, "--inequality", ineq,
            "--p", "2", "--c", c,
        )
        assert code == 2
        assert "shift c" in err
        assert "slack" not in err

    def test_gram_rank_homogeneous_needs_p(self, unit_file, capsys):
        code, _, _ = run(
            capsys, "check", "--in", unit_file, "--inequality", "gram-rank"
        )
        assert code == 2

    def test_report_written_to_out(self, unit_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "check", "--in", unit_file, "--inequality", "power-sum",
            "--p", "1", "--out", str(out),
        )
        assert code == 0
        assert out.read_text() == stdout

    def test_orthonormal_coherence_vacuous_holds(self, tmp_path, capsys):
        path = tmp_path / "ortho.json"
        run(capsys, "gen", "orthonormal", "--n", "3", "--out", str(path))
        capsys.readouterr()
        code, stdout, _ = run(
            capsys, "check", "--in", str(path), "--inequality", "coherence",
            "--p", "1",
        )
        assert code == 0
        doc = parse_json(stdout)
        assert doc["vacuous"] is True
        assert doc["holds"] is True

    def test_non_unit_input_is_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "scaled.json"
        doc = {
            "field": "real",
            "n": 2,
            "m": 2,
            "vectors": [
                [[2.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [2.0, 0.0]],
            ],
        }
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "check", "--in", str(path), "--inequality", "power-sum",
            "--p", "1",
        )
        assert code == 4
        assert "error" in err

    def test_missing_file_is_io_error(self, capsys):
        code, _, _ = run(
            capsys, "check", "--in", "/nonexistent/file.json",
            "--inequality", "power-sum", "--p", "1",
        )
        assert code == 3

    def test_malformed_file_is_argument_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"field": "real"}')
        code, _, _ = run(
            capsys, "check", "--in", str(path), "--inequality", "power-sum",
            "--p", "1",
        )
        assert code == 2

    def test_invalid_p_rejected(self, unit_file, capsys):
        code, _, _ = run(
            capsys, "check", "--in", unit_file, "--inequality", "power-sum",
            "--p", "0",
        )
        assert code == 2

    def test_unknown_inequality_rejected(self, unit_file, capsys):
        code, _, _ = run(
            capsys, "check", "--in", unit_file, "--inequality", "nope", "--p", "1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text, argv, code",
        [
            pytest.param(DEEP_JSON, ("check", "--inequality", "power-sum", "--p", "1"),
                         2, id="nested-1e5-deep"),
            pytest.param(real_set_text([[1.0]], n=10**15),
                         ("check", "--inequality", "power-sum", "--p", "1"), 2,
                         id="header-n-1e15"),
            pytest.param(real_set_text([[10**400]]),
                         ("check", "--inequality", "power-sum", "--p", "1"), 2,
                         id="integer-beyond-float"),
            pytest.param(HUGE_SET, ("check", "--inequality", "gram-rank",
                                    "--kernel", "homogeneous", "--p", "2"), 4,
                         id="gram-rank-overflow"),
            pytest.param(HUGE_SET, ("embed-check", "--p", "2"), 4,
                         id="embed-check-overflow"),
            pytest.param(UNIT_SET, ("embed-check", "--p", "1100"), 2,
                         id="embed-check-weights-overflow"),
            pytest.param(UNIT_SET, ("check", "--inequality", "shifted", "--p", "2",
                                    "--c", "1e200"), 4, id="shifted-overflow"),
            pytest.param(HUGE_SET, ("check", "--inequality", "generalized", "--p", "2"),
                         0, id="generalized-rescaled"),
            pytest.param(UNIT_SET, ("check", "--inequality", "shifted-unit", "--p", "600",
                                    "--c", "1"), 4, id="shifted-unit-rhs-overflow"),
            # Entries the array-at-a-time read must reject, each exit 2.
            *(
                pytest.param(bad_entry_text(entry),
                             ("check", "--inequality", "power-sum", "--p", "1"), 2,
                             id=f"entry-{name}")
                for name, entry in (
                    ("true", "[true, 0.0]"), ("string", '["1", 0.0]'), ("null", "[0.0, null]"),
                    ("bare-null", "null"), ("triple", "[1.0, 0.0, 0.0]"),
                    ("nested", "[1, [2]]"), ("dict", '{"re": 1.0, "im": 0.0}'),
                    ("float-1e400", "[1e400, 0.0]"),
                )
            ),
            pytest.param(real_set_text([[1.0, 0.0], [1.0]]),
                         ("check", "--inequality", "power-sum", "--p", "1"), 2,
                         id="ragged-row"),
            # An argument error exits 2 before any unit-norm gate (exit 4) runs.
            *(
                pytest.param(DOUBLED_SET, ("check", "--inequality", ineq, "--p", "0"), 2,
                             id=f"{ineq}-p0-non-unit")
                for ineq in ("coherence", "power-sum", "generalized", "shifted",
                             "shifted-unit")
            ),
            # ... and before the too-few-vectors gate (exit 4).
            pytest.param(real_set_text([[1.0, 0.0]]),
                         ("check", "--inequality", "coherence", "--p", "0"), 2,
                         id="coherence-p0-one-vector"),
            pytest.param(real_set_text([[1.0, 0.0]]),
                         ("check", "--inequality", "coherence", "--p", "1"), 4,
                         id="coherence-one-vector"),
        ],
    )
    def test_malformed_files_exit_cleanly(self, tmp_path, capsys, text, argv, code):
        path = tmp_path / "set.json"
        path.write_text(text)
        got, out, err = run(capsys, *argv, "--in", str(path))
        assert got == code
        assert "Traceback" not in err
        if code != 0:
            assert out == ""

    @pytest.mark.parametrize("literal", BEYOND_FLOAT.values(), ids=BEYOND_FLOAT.keys())
    @pytest.mark.parametrize(
        "text, needle",
        [
            pytest.param(real_set_text([[1.0, 0.0]], n="LITERAL"), "error: n must", id="n"),
            pytest.param(real_set_text([[1.0, 0.0]], m="LITERAL"), "error: m must", id="m"),
            pytest.param(bad_entry_text('["LITERAL", 0.0]'), "error: vectors entries",
                         id="re"),
            pytest.param(bad_entry_text('[0.0, "LITERAL"]'), "error: vectors entries",
                         id="im"),
        ],
    )
    def test_beyond_float_value_names_its_field(self, tmp_path, capsys, text, needle,
                                                literal):
        path = tmp_path / "set.json"
        path.write_text(with_literal(text, literal))
        got, out, err = run(capsys, "check", "--inequality", "power-sum", "--p", "1",
                            "--in", str(path))
        assert got == 2
        assert out == ""
        assert "Traceback" not in err
        assert needle in err


class TestOptimize:
    def test_simplex_target_reached(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        code, stdout, _ = run(
            capsys, "optimize", "--m", "3", "--n", "2", "--p", "1",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        fields = dict(part.split("=") for part in stdout.split())
        assert float(fields["final_potential"]) == pytest.approx(4.5, abs=1e-6)
        assert float(fields["bound"]) == 4.5
        assert float(fields["gap"]) == pytest.approx(0.0, abs=1e-6)
        doc = parse_json(out.read_text())
        assert doc["final_potential"] == float(fields["final_potential"])

    def test_readme_example_prints_its_comment_line(self, tmp_path, capsys):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("welch optimize "))
        argv = lines[at].split()[1:]
        argv[argv.index("--out") + 1] = str(tmp_path / "result.json")
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert "# " + stdout.rstrip("\n") == lines[at + 1]

    def test_m_less_than_n_rejected(self, capsys):
        code, _, _ = run(capsys, "optimize", "--m", "2", "--n", "3", "--p", "1")
        assert code == 2

    def test_bad_config_rejected(self, capsys):
        code, _, _ = run(
            capsys, "optimize", "--m", "3", "--n", "2", "--p", "1",
            "--restarts", "0",
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--grad-tol"])
    def test_non_finite_config_rejected(self, capsys, flag):
        code, out, err = run(
            capsys, "optimize", "--m", "4", "--n", "2", "--p", "1", flag, "inf"
        )
        assert code == 2
        assert out == ""
        assert flag[2:].replace("-", "_") in err


class TestRankScan:
    def write_config(self, tmp_path, **overrides):
        config = {
            "kernels": [
                {"variant": "homogeneous", "p": 1},
                {"variant": "homogeneous", "p": 2},
            ],
            "n": 2,
            "m": 8,
            "trials": 3,
            "seed": 5,
            "csv_out": str(tmp_path / "scan.csv"),
            "json_out": str(tmp_path / "scan.json"),
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path, config

    def test_end_to_end(self, tmp_path, capsys):
        path, config = self.write_config(tmp_path)
        code, stdout, _ = run(capsys, "rank-scan", "--config", str(path))
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == (
            "kernel=homogeneous p=1 median_rank=2.0 theoretical_dim=2 saturated=true"
        )
        assert lines[1] == (
            "kernel=homogeneous p=2 median_rank=3.0 theoretical_dim=3 saturated=true"
        )
        csv_text = (tmp_path / "scan.csv").read_text()
        assert csv_text.startswith(
            "kernel,variant,p,c,gamma,trial,epsilon,rank,theoretical_dim\n"
        )
        summary = parse_json((tmp_path / "scan.json").read_text())
        assert summary["n"] == 2
        assert len(summary["kernels"]) == 2

    def test_deterministic_outputs(self, tmp_path, capsys):
        path, _ = self.write_config(tmp_path)
        run(capsys, "rank-scan", "--config", str(path))
        first_csv = (tmp_path / "scan.csv").read_bytes()
        first_json = (tmp_path / "scan.json").read_bytes()
        run(capsys, "rank-scan", "--config", str(path))
        assert (tmp_path / "scan.csv").read_bytes() == first_csv
        assert (tmp_path / "scan.json").read_bytes() == first_json

    def test_gaussian_row_dashes(self, tmp_path, capsys):
        path, _ = self.write_config(
            tmp_path, kernels=[{"variant": "gaussian", "gamma": 0.5}]
        )
        code, stdout, _ = run(capsys, "rank-scan", "--config", str(path))
        assert code == 0
        assert "theoretical_dim=- saturated=-" in stdout

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path, _ = self.write_config(tmp_path, extra=1)
        code, _, err = run(capsys, "rank-scan", "--config", str(path))
        assert code == 2
        assert "extra" in err

    def test_unknown_kernel_key_rejected(self, tmp_path, capsys):
        path, _ = self.write_config(
            tmp_path, kernels=[{"variant": "homogeneous", "p": 1, "degree": 1}]
        )
        code, _, _ = run(capsys, "rank-scan", "--config", str(path))
        assert code == 2

    def test_missing_required_key_rejected(self, tmp_path, capsys):
        config = {"kernels": [], "n": 2, "m": 4, "trials": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, _ = run(capsys, "rank-scan", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "overrides, code, needle",
        [
            pytest.param({"kernels": [{"variant": "shifted", "p": 1}]}, 0, None,
                         id="shifted-without-c"),
            pytest.param({"kernels": [{"variant": "gaussian"}]}, 2, "gamma",
                         id="gaussian-without-gamma"),
            pytest.param({"kernels": [{"variant": "gaussian", "gamma": True}]}, 2,
                         "gamma", id="bool-gamma"),
            pytest.param({"kernels": [{"variant": "shifted", "p": 1, "c": "1"}]}, 2,
                         "parameter c", id="string-c"),
            pytest.param({"kernels": [{"p": 1}]}, 2, "variant", id="no-variant"),
            pytest.param({"n": "2"}, 2, "n must be an integer", id="string-n"),
            pytest.param({"m": 8.0}, 2, "m must be an integer", id="float-m"),
            pytest.param({"trials": 2.5}, 2, "trials must be an integer",
                         id="float-trials"),
            pytest.param({"seed": "5"}, 2, "seed must be an integer", id="string-seed"),
            pytest.param({"epsilon": "1e-8"}, 2, "epsilon", id="string-epsilon"),
            pytest.param({"kernels": [{"variant": "shifted", "p": 1, "c": 10**400}]},
                         2, "float range", id="integer-beyond-float-c"),
            pytest.param({"kernels": [{"variant": "gaussian", "gamma": 10**400}]},
                         2, "float range", id="integer-beyond-float-gamma"),
            pytest.param({"epsilon": 10**400}, 2, "float range",
                         id="integer-beyond-float-epsilon"),
            pytest.param(DEEP_JSON, 2, "nesting", id="nested-1e5-deep"),
            pytest.param({"epsilon": 1e-14}, 2, "epsilon", id="tiny-epsilon"),
            pytest.param(EPSILON_1E400, 2, "float range", id="float-beyond-epsilon"),
            *(
                pytest.param(scan_config_text(key, literal), 2, needle, id=f"{key}-{name}")
                for key, needle in (
                    ("n", "error: n must"), ("m", "error: m must"),
                    ("trials", "error: trials must"), ("seed", "error: seed must"),
                    ("epsilon", "error: epsilon must"), ("p", "kernel degree p must"),
                    ("c", "kernel parameter c"), ("gamma", "kernel parameter gamma must"),
                )
                for name, literal in BEYOND_FLOAT.items()
            ),
        ],
    )
    def test_malformed_values_exit_cleanly(self, tmp_path, capsys, overrides, code, needle):
        """overrides update the default config, or replace its text when a str."""
        if isinstance(overrides, str):
            path = tmp_path / "config.json"
            path.write_text(overrides)
        else:
            path, _ = self.write_config(tmp_path, **overrides)
        got, out, err = run(capsys, "rank-scan", "--config", str(path))
        assert got == code
        assert "Traceback" not in err
        if code != 0:
            assert out == ""
        if needle is not None:
            assert needle in err

    def test_missing_config_file_is_io_error(self, capsys):
        code, _, _ = run(capsys, "rank-scan", "--config", "/nonexistent.json")
        assert code == 3

    def test_oversized_m_rejected(self, tmp_path, capsys):
        path, _ = self.write_config(tmp_path, m=2)
        code, _, _ = run(capsys, "rank-scan", "--config", str(path))
        assert code == 2


class TestEmbedCheck:
    def test_homogeneous_ok(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        run(capsys, "gen", "random", "--m", "6", "--n", "3", "--seed", "1",
            "--out", str(path))
        capsys.readouterr()
        code, stdout, _ = run(
            capsys, "embed-check", "--in", str(path), "--p", "2"
        )
        assert code == 0
        fields = dict(part.split("=") for part in stdout.split())
        assert float(fields["max_error"]) < 1e-10
        assert fields["embedding_dim"] == "6"

    def test_shifted_dim(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        run(capsys, "gen", "random", "--m", "4", "--n", "2", "--seed", "2",
            "--out", str(path))
        capsys.readouterr()
        code, stdout, _ = run(
            capsys, "embed-check", "--in", str(path), "--p", "1", "--c", "1.0"
        )
        assert code == 0
        assert "embedding_dim=3" in stdout

    def test_large_dimension(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        run(capsys, "gen", "random", "--m", "3", "--n", "1200", "--seed", "0",
            "--out", str(path))
        capsys.readouterr()
        code, stdout, _ = run(
            capsys, "embed-check", "--in", str(path), "--p", "1"
        )
        assert code == 0
        assert stdout.endswith("rank=3 embedding_dim=1200\n")

    def test_missing_p_rejected(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        run(capsys, "gen", "random", "--m", "3", "--n", "2", "--seed", "0",
            "--out", str(path))
        capsys.readouterr()
        code, _, _ = run(capsys, "embed-check", "--in", str(path))
        assert code == 2

    # The gate is max_error < 1e-10 max(1, max |G_ij|): at c = 1e11 the Gram
    # entries are near 1e22, and an exact map misses them by about 2e6.
    @pytest.mark.parametrize(
        "c, perturb, code",
        [
            pytest.param("100000000000", 0.0, 0, id="large-shift-exact-map"),
            pytest.param("100000000000", 1e-6, 4, id="large-shift-perturbed-map"),
            pytest.param("1.0", 1e-6, 4, id="perturbed-map"),
        ],
    )
    def test_tolerance_scales_with_the_gram(
        self, tmp_path, capsys, monkeypatch, c, perturb, code
    ):
        path = tmp_path / "set.json"
        run(capsys, "gen", "simplex", "--n", "2", "--out", str(path))
        capsys.readouterr()
        exact = cli.feature_matrix

        def perturbed(spec, vs):
            d = exact(spec, vs).matrix.copy()
            d[np.unravel_index(np.argmax(np.abs(d)), d.shape)] *= 1.0 + perturb
            return FeatureMatrix(d, spec)

        monkeypatch.setattr(cli, "feature_matrix", perturbed)
        got, stdout, err = run(
            capsys, "embed-check", "--in", str(path), "--p", "2", "--c", c
        )
        assert got == code
        if code == 0:
            assert stdout.startswith("max_error=") and err == ""
        else:
            assert stdout == "" and "does not reproduce the Gram" in err


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param(("check", "--inequality", "power-sum", "--p", "1",
                          "--seed", "7"), "--seed", id="check-seed"),
            pytest.param(("rank-scan", "--seed", "7"), "--seed", id="rank-scan-seed"),
            pytest.param(("rank-scan", "--out", "x.csv"), "--out", id="rank-scan-out"),
            pytest.param(("embed-check", "--p", "1", "--seed", "7"), "--seed",
                         id="embed-check-seed"),
            pytest.param(("embed-check", "--p", "1", "--out", "x.csv"), "--out",
                         id="embed-check-out"),
            pytest.param(("check", "--inequality", "coherence", "--p", "2",
                          "--c", "1"), "--c", id="coherence-c"),
            pytest.param(("check", "--inequality", "power-sum", "--p", "2",
                          "--c", "1"), "--c", id="power-sum-c"),
            pytest.param(("check", "--inequality", "generalized", "--p", "2",
                          "--c", "1"), "--c", id="generalized-c"),
            pytest.param(("check", "--inequality", "power-sum", "--p", "2",
                          "--kernel", "gaussian"), "--kernel", id="power-sum-kernel"),
            pytest.param(("check", "--inequality", "shifted-unit", "--p", "2",
                          "--kernel", "shifted"), "--kernel", id="shifted-unit-kernel"),
            pytest.param(("check", "--inequality", "shifted", "--p", "2",
                          "--gamma", "3"), "--gamma", id="shifted-gamma"),
            pytest.param(("check", "--inequality", "coherence", "--p", "2",
                          "--gamma", "3"), "--gamma", id="coherence-gamma"),
        ],
    )
    def test_unread_flag_rejected(self, tmp_path, monkeypatch, capsys, argv, flag):
        """Each flag a subcommand would ignore is an argument error naming it."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "set.json").write_text(UNIT_SET)
        kernels = [{"variant": "homogeneous", "p": 1}]
        (tmp_path / "scan.json").write_text(json.dumps(
            {"kernels": kernels, "n": 2, "m": 3, "trials": 1, "seed": 0}
        ))
        if argv[0] == "rank-scan":
            source = ("--config", "scan.json")
        else:
            source = ("--in", "set.json")
        code, out, err = run(capsys, *argv, *source)
        assert code == 2
        assert out == ""
        assert flag in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json", "set.json"]

    def test_entry_raises_system_exit(self, monkeypatch, capsys):
        from welchkit.cli import entry

        monkeypatch.setattr("sys.argv", ["welch", "--help"])
        with pytest.raises(SystemExit):
            entry()


EXIT_CODES = {
    errors.WelchKitError: 4,
    errors.NotSquareError: 4,
    errors.NotHermitianError: 4,
    errors.NoConvergenceError: 4,
    errors.NotPSDError: 4,
    errors.DimensionMismatchError: 2,
    errors.TooFewVectorsError: 4,
    errors.NotUnitNormError: 4,
    errors.AllZeroVectorsError: 4,
    errors.UnsupportedKernelError: 2,
    errors.CombinatorialOverflowError: 2,
    errors.InvalidConfigError: 2,
    errors.InvalidScanError: 2,
    errors.NumericalError: 4,
}


def test_every_error_class_exits_with_its_code(monkeypatch, capsys):
    declared = {
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.WelchKitError)
    }
    assert declared == set(EXIT_CODES)
    for cls, code in EXIT_CODES.items():
        assert cls.exit_code == code

        def fail(args, cls=cls):
            raise cls("injected")

        monkeypatch.setattr(cli, "cmd_gen", fail)
        got, _, err = run(capsys, "gen", "simplex", "--n", "2", "--out", os.devnull)
        assert got == code, cls.__name__
        assert err == "error: injected\n"


class TestParserReuse:
    """main() builds its parser once per process; no parse leaks into the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_out_of_one_check_is_not_reused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "set.json").write_text(UNIT_SET)
        argv = ("check", "--in", "set.json", "--inequality", "power-sum", "--p", "1")
        first, out_a, _ = run(capsys, *argv, "--out", "a.json")
        assert first == 0
        (tmp_path / "a.json").unlink()
        second, out_b, _ = run(capsys, *argv)
        assert second == 0 and out_b == out_a
        assert sorted(p.name for p in tmp_path.iterdir()) == ["set.json"]

    def test_default_seed_after_an_explicit_one(self, capsys):
        argv = ("optimize", "--m", "3", "--n", "2", "--p", "1", "--restarts", "1")
        seeded, seeded_out, _ = run(capsys, *argv, "--seed", "3")
        code, stdout, _ = run(capsys, *argv)
        assert seeded == 0 and seeded_out != stdout  # a leftover seed would show
        src = os.path.dirname(os.path.dirname(welchkit.__file__))
        fresh = subprocess.run(
            [sys.executable, "-c", "from welchkit.cli import entry; entry()", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60,
        )
        assert (code, stdout) == (fresh.returncode, fresh.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("gen", "random", "--m", "100000000000", "--n", "8", "--out", "F"),
                     id="gen-random"),
        pytest.param(("optimize", "--m", "100000000000", "--n", "8", "--p", "2",
                      "--out", "F"), id="optimize"),
        pytest.param(("rank-scan", "--config", "scan.json"), id="rank-scan"),
    ],
)
def test_unallocatable_size_is_argument_error(tmp_path, monkeypatch, capsys, argv):
    """numpy refuses a 5.8 TiB draw at once: exit 2, nothing allocated or written."""
    monkeypatch.chdir(tmp_path)
    config = {"kernels": [{"variant": "homogeneous", "p": 1}], "n": 8,
              "m": 100000000000, "trials": 1, "seed": 0, "csv_out": "F"}
    (tmp_path / "scan.json").write_text(json.dumps(config))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "allocate" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json"]


@pytest.mark.parametrize(
    "command, name, doc, code, needle",
    [
        pytest.param(("check", "--inequality", "power-sum", "--p", "1", "--in"),
                     "set.json", {**json.loads(UNIT_SET), "labels": ["é", "b", "c"]}, 0,
                     None, id="vector-set-label"),
        pytest.param(("rank-scan", "--config"), "scan.json",
                     {"kernels": [], "n": 2, "m": 4, "trials": 1, "seed": 0, "é": 1}, 2,
                     "unknown keys in scan config", id="scan-config-key"),
    ],
)
def test_inputs_read_as_utf8_in_the_c_locale(tmp_path, command, name, doc, code, needle):
    """RFC 8259 JSON is UTF-8, whatever the locale's encoding."""
    path = tmp_path / name
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(welchkit.__file__))
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "LANG": "C",
           "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    done = subprocess.run(
        [sys.executable, "-c", "from welchkit.cli import entry; entry()", *command,
         str(path)],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert "codec" not in done.stderr
    if needle is not None:
        assert needle in done.stderr


@pytest.mark.parametrize(
    "key, utf8, code",
    [
        pytest.param("csv_out", "0", 2, id="csv_out-ascii-file-names"),
        pytest.param("json_out", "0", 2, id="json_out-ascii-file-names"),
        pytest.param("csv_out", "1", 0, id="csv_out-utf8-file-names"),
    ],
)
def test_scan_output_path_the_file_system_cannot_encode(tmp_path, key, utf8, code):
    """Under an ASCII file-system encoding a non-ASCII output path is a config
    error naming the key, raised before the scan runs; under UTF-8 it is written."""
    config = {"kernels": [{"variant": "homogeneous", "p": 1}], "n": 2, "m": 3,
              "trials": 1, "seed": 0, key: "\u00e9.out"}
    (tmp_path / "scan.json").write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(welchkit.__file__))
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "LANG": "C",
           "PYTHONUTF8": utf8, "PYTHONCOERCECLOCALE": "0"}
    done = subprocess.run(
        [sys.executable, "-c", "from welchkit.cli import entry; entry()",
         "rank-scan", "--config", "scan.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert done.returncode == code, done.stderr
    written = sorted(os.listdir(os.fsencode(tmp_path)))  # bytes: any locale reads them
    if code == 2:
        assert done.stdout == ""
        assert done.stderr.startswith(f"error: {key} ")
        assert "cannot be encoded as a file name" in done.stderr
        assert written == [b"scan.json"]
    else:
        assert done.stdout.startswith("kernel=") and done.stderr == ""
        assert written == [b"scan.json", "\u00e9.out".encode("utf-8")]


def code_block(path, heading, language):
    """Lines of the first ```language block after the line heading in a
    file next to the tests' directory."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, path),
              encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index(f"```{language}", lines.index(heading))
    return lines[start + 1:lines.index("```", start)]


def test_readme_cli_session(tmp_path, monkeypatch, capsys):
    """Every command of the README's CLI block exits 0, and a comment line right
    after a command is its stdout, "..." standing for any text.  The rank scan
    reads the config shown in FORMATS.md."""
    monkeypatch.chdir(tmp_path)
    config = "\n".join(code_block("FORMATS.md", "## Rank-scan config (input)", "json"))
    (tmp_path / "scan-config.json").write_text(config)
    block = code_block("README.md", "## CLI", "sh")
    ran, shown = 0, []
    for line, after in zip(block, block[1:] + [""]):
        if not line.startswith("welch "):
            continue
        code, stdout, err = run(capsys, *line.split()[1:])
        assert (code, err) == (0, ""), line
        ran += 1
        if after.startswith("# "):
            pattern = ".*".join(map(re.escape, after[2:].split("...")))
            assert re.fullmatch(pattern, stdout.rstrip("\n")), (line, stdout)
            shown.append(after)
    assert ran == 8
    assert shown == [
        "# m=3 n=2 coherence=0.50000000000000022",
        '# {"inequality_id":"power-sum","lhs":4.5,...,"holds":true,"tight":true,...}',
        "# final_potential=7.9999999999999982 bound=8.0 gap=-1.7763568394002505e-15 "
        "iterations=9",
        "# max_error=... rank=6 embedding_dim=6",
    ]


def test_import_loads_no_unused_stdlib_modules():
    """The CLI import pulls in none of fractions, statistics, decimal or csv."""
    src = os.path.dirname(os.path.dirname(welchkit.__file__))
    code = (
        "import sys, welchkit.cli; "
        "print(sorted({'fractions', 'statistics', 'decimal', 'csv'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
