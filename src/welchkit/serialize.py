"""Canonical serialization: deterministic JSON, vector-set files, atomic writes.

The same value always serializes to the same bytes: floats are printed with
17 significant digits (enough to round-trip any double exactly), dict keys
keep their construction order, and separators are fixed.  Non-finite numbers
are rejected on both paths.

Vector-set files are JSON documents

    {"field": "real"|"complex", "n": int, "m": int,
     "vectors": [[[re, im], ...] per vector], "labels": [...]?}

with every entry an explicit [re, im] pair regardless of field; a "real"
file must have all imaginary parts exactly 0.  Optional labels, m strings,
are checked on reading and then dropped; no writer writes them.  Rows are
read and written an array at a time; only the formatting of each double is
per entry.

Every JSON input is read as UTF-8 and parsed by parse_json, which rejects
only what no reader could: NaN/Infinity literals and over-deep nesting.  A
number beyond float range is rejected by the reader of its field, which
names the field.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import check_int, check_object
from .frames import OptimizeResult
from .kernels import VectorSet


def format_float(x: float) -> str:
    """17-significant-digit decimal form; integral values keep a '.0' tail."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize a non-finite number")
    text = f"{x:.17g}"
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def canonical_json(obj) -> str:
    """Single-line JSON whose bytes depend only on the value."""
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
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.size:
        # One pass over the doubles, then nest the texts, innermost axis first.
        texts = [format_float(x) for x in obj.ravel().tolist()]
        for k in reversed(obj.shape):
            texts = [f"[{','.join(texts[i : i + k])}]" for i in range(0, len(texts), k)]
        return texts[0]
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValueError("JSON object keys must be strings")
            parts.append(json.dumps(key) + ":" + canonical_json(value))
        return "{" + ",".join(parts) + "}"
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name!r} is not allowed")


def parse_json(text: str):
    """json.loads for every JSON input: NaN/Infinity literals and over-deep
    nesting raise ValueError.  A number beyond float range parses (1e400 as
    inf, 10**400 as an int) and is left to the reader of its field."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except RecursionError:
        raise ValueError("JSON nesting is too deep") from None


def atomic_write(path: str, text: str):
    """Write text via a same-directory temp file and an atomic rename.

    The temp file is created exclusively with mode 0o666, which the kernel
    reduces by the umask as for any new file, and fsynced before the rename.
    """
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pairs(vs: VectorSet) -> np.ndarray:
    # (m, n) complex reinterpreted as (m, n, 2) doubles: [re, im] per entry.
    # The reinterpretation needs C order; a transposed set may be in F order.
    return np.ascontiguousarray(vs.vectors).view(np.float64).reshape(vs.m, vs.n, 2)


def vector_set_to_dict(vs: VectorSet) -> dict:
    return {"field": vs.field, "n": vs.n, "m": vs.m, "vectors": _pairs(vs).tolist()}


def vector_set_from_dict(doc) -> VectorSet:
    check_object("vector-set document", doc, ("field", "n", "m", "vectors"), ("labels",))
    m, n = check_int("m", doc["m"], 1), check_int("n", doc["n"], 1)
    rows = doc["vectors"]
    if not isinstance(rows, list) or len(rows) != m:
        raise ValueError("vectors must be a list of m rows")
    # One object array: a ragged row or a non-number entry shows in its shape or types.
    table = np.array(rows, dtype=object)
    if table.shape != (m, n, 2) or not set(map(type, table.ravel().tolist())) <= {int, float}:
        for i, row in enumerate(rows):  # error path only, and it always raises
            if not isinstance(row, list) or len(row) != n:
                raise ValueError(f"vector {i} must be a list of n entries")
            for j, entry in enumerate(row):
                if not (isinstance(entry, list) and len(entry) == 2
                        and set(map(type, entry)) <= {int, float}):
                    raise ValueError(f"entry ({i}, {j}) must be a [re, im] pair")
    try:
        # (m, n, 2) doubles reinterpreted as (m, n) complex: bit-exact, no arithmetic.
        data = table.astype(np.float64).view(np.complex128)[..., 0]
    except OverflowError:  # an integer entry beyond float range; VectorSet rejects inf
        raise ValueError("vectors entries must lie within float range") from None
    labels = doc.get("labels")  # optional; checked, then dropped
    if "labels" in doc and not (isinstance(labels, list) and len(labels) == m
                                and all(isinstance(s, str) for s in labels)):
        raise ValueError("labels must be a list of m strings")
    return VectorSet(vectors=data, field=doc["field"])


def write_vector_set(path: str, vs: VectorSet):
    # The bytes of canonical_json(vector_set_to_dict(vs)), rows in one pass.
    doc = {**vector_set_to_dict(vs), "vectors": _pairs(vs)}
    atomic_write(path, canonical_json(doc) + "\n")


def read_vector_set(path: str) -> VectorSet:
    with open(path, encoding="utf-8") as handle:
        return vector_set_from_dict(parse_json(handle.read()))


def optimize_result_to_dict(res: OptimizeResult) -> dict:
    return {
        "vectors": vector_set_to_dict(res.vectors),
        "final_potential": res.final_potential,
        "bound": res.bound,
        "gap": res.gap,
        "iterations": res.iterations,
        "trajectory": list(res.trajectory),
    }
