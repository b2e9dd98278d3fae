"""Canonical JSON, vector-set files, report round-trips."""

import json
import os
import stat

import numpy as np
import pytest

from helpers import random_vectors
from welchkit.bounds import power_sum_report
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
        assert back.vectors.tobytes() == np.ascontiguousarray(vs.vectors).tobytes()
        assert back.field == vs.field

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
