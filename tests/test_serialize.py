"""Canonical JSON, vector-set files, report round-trips."""

import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from helpers import random_vectors
from welchkit import serialize
from welchkit.bounds import power_sum_report
from welchkit.cli import main
from welchkit.kernels import VectorSet
from welchkit.frames import (
    OptimizerConfig,
    minimize_frame_potential,
    orthonormal_frame,
    simplex_frame,
)
from welchkit.serialize import (
    atomic_write,
    canonical_json,
    format_float,
    optimize_result_to_dict,
    parse_json,
    read_vector_set,
    vector_set_from_dict,
    vector_set_to_dict,
    write_vector_set,
)


class TestFormatFloat:
    def test_plain_fraction(self):
        assert format_float(4.5) == "4.5"

    def test_integral_value_keeps_decimal_tail(self):
        assert format_float(6.0) == "6.0"
        assert format_float(-0.0) == "-0.0"

    def test_round_trips_doubles_exactly(self):
        rng = np.random.default_rng(81)
        values = [1 / 3, 0.1, 2**-52, 1e300, -7.25e-300]
        values += list(rng.standard_normal(50))
        for x in values:
            assert float(format_float(x)) == x

    def test_rejects_non_finite(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                format_float(bad)


class TestCanonicalJson:
    def test_scalars_and_containers(self):
        doc = {"a": 1, "b": [True, None, "x"], "c": 2.5}
        assert canonical_json(doc) == '{"a":1,"b":[true,null,"x"],"c":2.5}'

    def test_dict_order_preserved(self):
        assert canonical_json({"z": 1, "a": 2}) == '{"z":1,"a":2}'

    def test_floats_get_decimal_tails(self):
        assert canonical_json([3.0]) == "[3.0]"

    def test_rejects_non_finite_and_odd_types(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})
        with pytest.raises(ValueError):
            canonical_json({1: "non-string key"})
        with pytest.raises(ValueError):
            canonical_json({"x": object()})

    def test_parse_rejects_non_finite_literals(self):
        with pytest.raises(ValueError):
            parse_json("[NaN]")
        with pytest.raises(ValueError):
            parse_json("[Infinity]")

    def test_round_trip(self):
        doc = {"name": "s", "vals": [1, 2.5, None, False]}
        assert parse_json(canonical_json(doc)) == doc


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write(str(target), "first\n")
        assert target.read_text() == "first\n"
        atomic_write(str(target), "second\n")
        assert target.read_text() == "second\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []


    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        target = tmp_path / "out.json"
        old = os.umask(umask)
        try:
            atomic_write(str(target), "x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == mode

    def test_umask_is_applied_by_the_kernel_not_set(self, tmp_path, monkeypatch):
        """The process umask is never changed, so no other thread can create a
        file under a wrong one while a write runs."""
        umask = os.umask(0o022)
        os.umask(umask)

        def refuse(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refuse)
        target = tmp_path / "out.json"
        atomic_write(str(target), "x\n")
        assert target.read_text() == "x\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    def test_failed_rename_leaves_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("old\n")

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write(str(target), "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert target.read_text() == "old\n"

    def test_temp_file_is_in_the_target_directory_for_a_bare_name(
        self, tmp_path, monkeypatch
    ):
        """"." is the working directory, whose own directory is its parent: the
        temp file still goes in the working directory, and the rename fails."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        opened = []
        real_open = os.open

        def spy(path, *args):
            opened.append(path)
            return real_open(path, *args)

        monkeypatch.setattr(os, "open", spy)
        with pytest.raises(OSError):
            atomic_write(".", "x\n")
        assert len(opened) == 1 and os.path.dirname(opened[0]) == "."
        assert os.listdir(work) == [] and os.listdir(tmp_path) == ["work"]


class TestVectorSetFiles:
    def test_round_trip_complex_with_labels(self, tmp_path):
        # Labels in a file are read and dropped; the set is written back without them.
        rng = np.random.default_rng(82)
        vs = random_vectors(rng, 4, 3)
        path = tmp_path / "set.json"
        path.write_text(canonical_json({**vector_set_to_dict(vs), "labels": list("abcd")}))
        back = read_vector_set(str(path))
        assert np.array_equal(back.vectors, vs.vectors)
        assert back.field == "complex"
        write_vector_set(str(path), back)
        assert "labels" not in json.loads(path.read_text())

    def test_round_trip_real(self, tmp_path):
        vs = simplex_frame(3)
        path = tmp_path / "simplex.json"
        write_vector_set(str(path), vs)
        back = read_vector_set(str(path))
        assert np.array_equal(back.vectors, vs.vectors)
        assert back.field == "real"

    def test_serialization_is_deterministic(self):
        rng = np.random.default_rng(83)
        vs = random_vectors(rng, 5, 2)
        a = canonical_json(vector_set_to_dict(vs))
        b = canonical_json(vector_set_to_dict(vs))
        assert a == b

    def test_entries_are_re_im_pairs(self):
        vs = orthonormal_frame(2)
        doc = vector_set_to_dict(vs)
        assert doc["vectors"][0][0] == [1.0, 0.0]
        assert doc["vectors"][0][1] == [0.0, 0.0]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_entries_match_each_complex_entry(self, order):
        # Signed zeros and subnormals survive, in either memory layout.
        rows = np.array(
            [[-0.0 + 1j, 5e-324 - 0.0j, 1.5], [2.0 - 2.5j, -5e-324j, 0.1 + 0.2j]],
            order=order,
        )
        vs = VectorSet(vectors=rows)
        want = [[[z.real, z.imag] for z in row] for row in rows.tolist()]
        assert canonical_json(vector_set_to_dict(vs)["vectors"]) == canonical_json(want)

    def test_rejects_unknown_keys(self):
        doc = vector_set_to_dict(orthonormal_frame(2))
        doc["extra"] = 1
        with pytest.raises(ValueError):
            vector_set_from_dict(doc)

    def test_rejects_missing_keys(self):
        doc = vector_set_to_dict(orthonormal_frame(2))
        del doc["field"]
        with pytest.raises(ValueError):
            vector_set_from_dict(doc)

    def test_rejects_shape_mismatch(self):
        doc = vector_set_to_dict(orthonormal_frame(2))
        doc["m"] = 3
        with pytest.raises(ValueError):
            vector_set_from_dict(doc)

    def test_rejects_malformed_entries(self):
        doc = vector_set_to_dict(orthonormal_frame(2))
        doc["vectors"][0][0] = [1.0]
        with pytest.raises(ValueError):
            vector_set_from_dict(doc)

    def test_rejects_non_finite_entries(self):
        doc = vector_set_to_dict(orthonormal_frame(2))
        doc["vectors"][0][0] = [float("inf"), 0.0]
        with pytest.raises(ValueError):
            vector_set_from_dict(doc)

    def test_rejects_real_file_with_imaginary_part(self):
        doc = vector_set_to_dict(orthonormal_frame(2))
        doc["vectors"][0][0] = [1.0, 0.5]
        with pytest.raises(ValueError):
            vector_set_from_dict(doc)

    @pytest.mark.parametrize(
        "entry",
        [[True, 0.0], ["1", 0.0], [0.0, None], None, [1.0, 0.0, 0.0], [1, [2]],
         {"re": 1.0, "im": 0.0}, [1.0]],
        ids=["bool", "string", "null", "bare-null", "triple", "nested", "dict", "single"],
    )
    def test_rejected_entry_is_named(self, entry):
        doc = vector_set_to_dict(orthonormal_frame(3))
        doc["vectors"][1][2] = entry
        with pytest.raises(ValueError, match=r"entry \(1, 2\) must be a \[re, im\] pair"):
            vector_set_from_dict(doc)

    def test_rejected_row_is_named(self):
        doc = vector_set_to_dict(orthonormal_frame(3))
        doc["vectors"][2] = doc["vectors"][2][:2]
        with pytest.raises(ValueError, match="vector 2 must be a list of n entries"):
            vector_set_from_dict(doc)

    def test_integer_beyond_float_range_is_value_error(self):
        doc = vector_set_to_dict(orthonormal_frame(2))
        doc["vectors"][0][1] = [0, 10**400]
        with pytest.raises(ValueError, match="float range"):
            vector_set_from_dict(doc)

    def test_integer_entries_read_as_doubles(self):
        doc = vector_set_to_dict(orthonormal_frame(2))
        doc["field"], doc["vectors"] = "complex", [[[1, 0], [0, 0]], [[0, 0], [2**60 + 1, -3]]]
        back = vector_set_from_dict(doc)
        assert np.array_equal(back.vectors, [[1, 0], [0, float(2**60 + 1) - 3j]])

    def test_rejects_bad_labels(self):
        doc = vector_set_to_dict(orthonormal_frame(2))
        doc["labels"] = [1, 2]
        with pytest.raises(ValueError):
            vector_set_from_dict(doc)


def special_values_set(field):
    """Signed zeros, extreme exponents and integral values in every slot."""
    re = np.array([[-0.0, 1e-300, 1e300], [3.0, -2.0, 0.1], [5e-324, 2.0**60, -1e-300]])
    z = re.astype(np.complex128)  # re + 1j * im would turn -0.0 into 0.0
    if field == "complex":
        z.imag = re[::-1]
    return VectorSet(vectors=z, field=field)


class TestVectorSetReadCache:
    """A process keeps the parse of the last vector-set text it read."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """Count the parse_json calls made while reading vector sets."""
        calls = []

        def counted(text):
            calls.append(len(text))
            return parse_json(text)

        monkeypatch.setattr(serialize, "parse_json", counted)
        return calls

    def test_second_read_of_a_file_is_the_same_object(self, tmp_path, parses):
        path = str(tmp_path / "set.json")
        write_vector_set(path, random_vectors(np.random.default_rng(90), 6, 3))
        first = read_vector_set(path)
        assert read_vector_set(path) is first
        assert len(parses) == 1
        assert not first.vectors.flags.writeable

    def test_two_paths_with_the_same_text_share_one_parse(self, tmp_path, parses):
        vs = random_vectors(np.random.default_rng(91), 5, 2)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_vector_set(a, vs)
        write_vector_set(b, vs)
        assert read_vector_set(a) is read_vector_set(b)
        assert len(parses) == 1

    def test_rewrite_with_same_size_and_mtime_is_read_anew(self, tmp_path):
        path = tmp_path / "set.json"
        old = VectorSet(vectors=np.array([[0.25, 0.5], [0.75, 1.0]]), field="real")
        new = VectorSet(vectors=np.array([[0.5, 0.25], [1.0, 0.75]]), field="real")
        write_vector_set(str(path), old)
        stat_before = os.stat(path)
        assert np.array_equal(read_vector_set(str(path)).vectors, old.vectors)
        write_vector_set(str(path), new)
        os.utime(path, ns=(stat_before.st_atime_ns, stat_before.st_mtime_ns))
        stat_after = os.stat(path)
        assert stat_after.st_size == stat_before.st_size
        assert stat_after.st_mtime_ns == stat_before.st_mtime_ns
        assert np.array_equal(read_vector_set(str(path)).vectors, new.vectors)

    def test_failed_read_caches_nothing_and_keeps_the_last_parse(self, tmp_path, parses):
        good, bad = str(tmp_path / "good.json"), tmp_path / "bad.json"
        write_vector_set(good, orthonormal_frame(3))
        kept = read_vector_set(good)
        bad.write_text('{"field": "real", "n": 2, "m": 1, "vectors": [[[1, 0]]]}')
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as caught:
                read_vector_set(str(bad))
            messages.append(str(caught.value))
        assert messages == ["vector 0 must be a list of n entries"] * 2
        assert len(parses) == 3
        assert read_vector_set(good) is kept
        assert len(parses) == 3

    def test_shared_set_cannot_be_changed_for_the_next_read(self, tmp_path):
        path = str(tmp_path / "set.json")
        write_vector_set(path, orthonormal_frame(2))
        with pytest.raises(ValueError):
            read_vector_set(path).vectors.flags.writeable = True
        assert np.array_equal(read_vector_set(path).vectors, np.eye(2))

    def test_warm_check_after_overwrite_matches_a_fresh_process(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["check", "--in", "set.json", "--inequality", "coherence", "--p", "1"]
        write_vector_set("set.json", random_vectors(np.random.default_rng(92), 5, 2, unit=True))
        assert main(argv) == 0
        first = capsys.readouterr().out
        write_vector_set("set.json", random_vectors(np.random.default_rng(93), 5, 2, unit=True))
        assert main(argv) == 0
        warm = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(serialize.__file__))
        fresh = subprocess.run(
            [sys.executable, "-c", "from welchkit.cli import entry; entry()", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60,
        )
        assert fresh.returncode == 0
        assert warm == fresh.stdout != first


class TestVectorSetWriter:
    """write_vector_set formats the rows in one pass; its bytes must equal the
    recursive canonical_json of the same document."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: simplex_frame(3), id="real-simplex"),
            pytest.param(lambda: random_vectors(np.random.default_rng(85), 7, 3), id="complex"),
            pytest.param(
                lambda: vector_set_from_dict(
                    {**vector_set_to_dict(random_vectors(np.random.default_rng(86), 2, 2)),
                     "labels": ["a", 'q"\u00e9']}
                ),
                id="labelled",
            ),
            pytest.param(lambda: special_values_set("real"), id="special-real"),
            pytest.param(lambda: special_values_set("complex"), id="special-complex"),
            pytest.param(lambda: VectorSet(np.array([[1.5 - 0.0j]])), id="one-entry"),
            pytest.param(
                lambda: VectorSet(np.asfortranarray(special_values_set("complex").vectors)),
                id="fortran-order",
            ),
        ],
    )
    def test_bytes_match_canonical_json_and_read_back_exactly(self, tmp_path, make):
        vs = make()
        path = tmp_path / "set.json"
        write_vector_set(str(path), vs)
        assert path.read_text() == canonical_json(vector_set_to_dict(vs)) + "\n"
        back = read_vector_set(str(path))
        assert back.vectors.tobytes() == vs.vectors.tobytes()
        assert back.field == vs.field

    def test_fortran_order_input_writes_the_c_order_bytes(self, tmp_path):
        rows = random_vectors(np.random.default_rng(88), 4, 3).vectors
        c_path, f_path = tmp_path / "c.json", tmp_path / "f.json"
        write_vector_set(str(c_path), VectorSet(np.ascontiguousarray(rows)))
        write_vector_set(str(f_path), VectorSet(np.asfortranarray(rows)))
        assert f_path.read_bytes() == c_path.read_bytes()

    def test_array_branch_matches_nested_lists(self):
        rng = np.random.default_rng(87)
        for shape in [(), (4,), (3, 2), (2, 3, 2), (1, 1, 1, 2)]:
            a = rng.standard_normal(shape)
            assert canonical_json(a) == canonical_json(a.tolist())

    def test_array_branch_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(np.array([[1.0, np.nan]]))


class TestBoundReportRoundTrip:
    def test_json_round_trip_is_identity(self):
        doc = power_sum_report(simplex_frame(2), 1).to_dict()
        back = parse_json(canonical_json(doc))
        assert back == doc
        assert list(back) == [
            "inequality_id", "lhs", "rhs", "slack", "holds", "tight",
            "m", "n", "p", "c", "r", "vacuous", "rhs_unit",
        ]


class TestOptimizeResultRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        res = minimize_frame_potential(
            2, 2, OptimizerConfig(p=1, seed=84, max_iters=50)
        )
        doc = optimize_result_to_dict(res)
        back = parse_json(canonical_json(doc))
        assert back == doc
        assert list(back) == [
            "vectors", "final_potential", "bound", "gap", "iterations", "trajectory",
        ]
        assert back["gap"] == res.final_potential - res.bound
        assert back["iterations"] == len(res.trajectory) - 1
