"""Canonical serialization: deterministic JSON, vector-set files, atomic writes.

The same value always serializes to the same bytes: floats are printed with
17 significant digits (enough to round-trip any double exactly), dict keys
keep their construction order, and separators are fixed.  Non-finite numbers
are rejected on both paths.

Vector-set files are JSON documents

    {"field": "real"|"complex", "n": int, "m": int,
     "vectors": [[[re, im], ...] per vector], "labels": [...]?}

with every entry an explicit [re, im] pair regardless of field; a "real"
file must have all imaginary parts exactly 0.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

import numpy as np

from .bounds import BoundReport
from .frames import OptimizeResult
from .kernels import VectorSet


def format_float(x: float) -> str:
    """17-significant-digit decimal form; integral values keep a '.0' tail."""
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("cannot serialize a non-finite number")
    text = f"{x:.17g}"
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValueError("JSON object keys must be strings")
            parts.append(json.dumps(key) + ":" + _emit(value))
        return "{" + ",".join(parts) + "}"
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Single-line JSON whose bytes depend only on the value."""
    return _emit(obj)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name!r} is not allowed")


def _parse_int(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"a {len(text)}-digit integer is beyond float range")
    return value


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text!r} is beyond float range")
    return value


def parse_json(text: str):
    """json.loads for every JSON input: NaN/Infinity, numbers beyond float
    range and over-deep nesting raise ValueError."""
    try:
        return json.loads(
            text,
            parse_constant=_reject_constant,
            parse_int=_parse_int,
            parse_float=_parse_float,
        )
    except RecursionError:
        raise ValueError("JSON nesting is too deep") from None


def atomic_write(path: str, text: str):
    """Write text via a same-directory temp file and an atomic rename.

    The temp file is fsynced before the rename and gets mode 0o666 & ~umask,
    the mode open() would give a new file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        # The umask can only be read by setting it; restore it at once.
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def vector_set_to_dict(vs: VectorSet) -> dict:
    vectors = [
        [[float(z.real), float(z.imag)] for z in row] for row in vs.vectors
    ]
    doc = {"field": vs.field, "n": vs.n, "m": vs.m, "vectors": vectors}
    if vs.labels is not None:
        doc["labels"] = list(vs.labels)
    return doc


def vector_set_from_dict(doc) -> VectorSet:
    if not isinstance(doc, dict):
        raise ValueError("vector-set document must be a JSON object")
    allowed = {"field", "n", "m", "vectors", "labels"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown keys in vector-set document: {sorted(unknown)}")
    for key in ("field", "n", "m", "vectors"):
        if key not in doc:
            raise ValueError(f"vector-set document missing {key!r}")
    field = doc["field"]
    m, n = doc["m"], doc["n"]
    for name, value in (("m", m), ("n", n)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be a positive integer")
    rows = doc["vectors"]
    if not isinstance(rows, list) or len(rows) != m:
        raise ValueError("vectors must be a list of m rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"vector {i} must be a list of n entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry)
            ):
                raise ValueError(f"entry ({i}, {j}) must be a [re, im] pair")
    # (m, n, 2) doubles reinterpreted as (m, n) complex: bit-exact, no arithmetic.
    data = np.array(rows, dtype=np.float64).view(np.complex128)[..., 0]
    labels = None
    if "labels" in doc:
        raw = doc["labels"]
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise ValueError("labels must be a list of strings")
        labels = tuple(raw)
    return VectorSet(vectors=data, field=field, labels=labels)


def write_vector_set(path: str, vs: VectorSet):
    atomic_write(path, canonical_json(vector_set_to_dict(vs)) + "\n")


def read_vector_set(path: str) -> VectorSet:
    with open(path) as handle:
        return vector_set_from_dict(parse_json(handle.read()))


def bound_report_from_dict(doc) -> BoundReport:
    if not isinstance(doc, dict):
        raise ValueError("bound report must be a JSON object")
    fields = {
        "inequality_id", "lhs", "rhs", "slack", "holds", "tight",
        "m", "n", "p", "c", "r", "vacuous", "rhs_unit",
    }
    if set(doc) != fields:
        raise ValueError("bound report keys do not match the schema")
    return BoundReport(**doc)


def optimize_result_to_dict(res: OptimizeResult) -> dict:
    return {
        "vectors": vector_set_to_dict(res.vectors),
        "final_potential": res.final_potential,
        "bound": res.bound,
        "gap": res.gap,
        "iterations": res.iterations,
        "trajectory": list(res.trajectory),
    }


def optimize_result_from_dict(doc) -> OptimizeResult:
    if not isinstance(doc, dict):
        raise ValueError("optimizer result must be a JSON object")
    fields = {"vectors", "final_potential", "bound", "gap", "iterations", "trajectory"}
    if set(doc) != fields:
        raise ValueError("optimizer result keys do not match the schema")
    return OptimizeResult(
        vectors=vector_set_from_dict(doc["vectors"]),
        final_potential=float(doc["final_potential"]),
        bound=float(doc["bound"]),
        gap=float(doc["gap"]),
        iterations=int(doc["iterations"]),
        trajectory=tuple(float(v) for v in doc["trajectory"]),
    )
