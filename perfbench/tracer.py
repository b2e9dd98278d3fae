"""Outside-in tracer: spans at welchkit's layer boundaries, from the outside.

Nothing under src/ changes.  ``installed`` wraps every public welchkit
function at each *other* module's namespace that imported it (for example
``welchkit.cli.gram_matrix``, ``welchkit.rank_scan.gram_matrix`` and
``welchkit.kernels.hermitian_eigenvalues``), plus ``GramMatrix.spectrum``.
Calls between modules therefore open a span, while helpers called inside
their own module, such as ``eval_kernel`` once per Gram entry, stay unwrapped
and cost nothing.  A span is named ``<layer>.<function>`` after the module
that defines the function.

Spans live in memory (name, start, end, parent, session, command and a few
counts read from the call's arguments and result) until the benchmark writes
them out at exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import pkgutil
import time
from dataclasses import dataclass, field

PACKAGE = "welchkit"
LAYERS = ("cli", "serialize", "kernels", "linalg", "bounds", "features", "frames", "rank_scan")
# Methods that are layer boundaries although no other module imports them.
METHODS = (("kernels", "GramMatrix", "spectrum"),)

READ_SPANS = ("serialize.read_vector_set", "serialize.parse_json")
WRITE_BYTE_SPANS = ("serialize.atomic_write", "serialize.write_vector_set")
REPORTS = (
    "coherence_report", "power_sum_report", "gram_rank_report",
    "generalized_report", "shifted_report", "shifted_unit_report",
)
GRAM_VARIANTS = ("homogeneous", "shifted", "gaussian")


def _pairs(args, result):
    return {"pairs": args["vs"].m ** 2}


# Counts recorded per span, from the bound arguments and the result.
COUNTERS = {
    "kernels.gram_matrix": lambda a, r: {"variant": a["spec"].variant, "m": r.m},
    "linalg.hermitian_eigenvalues": lambda a, r: {"m": r.source_dim},
    "linalg.clamp_psd": lambda a, r: {"clamped": r.clamp_applied},
    "features.feature_matrix": lambda a, r: {"entries": r.feature_dim * r.m},
    "frames.minimize_frame_potential": lambda a, r: {
        "iterations": r.iterations,
        "max_iters_hit": r.iterations >= a["cfg"].max_iters,
    },
    "rank_scan.rank_scan": lambda a, r: {"trials": a["trials"]},
    "serialize.read_vector_set": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "serialize.parse_json": lambda a, r: {"bytes": len(a["text"].encode())},
    "serialize.atomic_write": lambda a, r: {"bytes": len(a["text"].encode())},
    "serialize.write_vector_set": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "bounds.coherence_report": lambda a, r: {"pairs": a["vs"].m * (a["vs"].m - 1) // 2},
    "bounds.power_sum_report": _pairs,
    "bounds.generalized_report": _pairs,
    "bounds.shifted_report": _pairs,
    "bounds.shifted_unit_report": _pairs,
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    session: int
    command: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def as_dict(self, index: int, workload: str) -> dict:
        return {
            "id": index, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end, "workload": workload,
            "session": self.session, "command": self.command, "counts": self.counts,
        }


class Tracer:
    """Collects spans; ``session`` and ``command`` tag the spans opened next."""

    def __init__(self, session: int = 0):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.session = session
        self.command: int | None = None

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None, self.session, self.command)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def _modules():
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        yield importlib.import_module(f"{PACKAGE}.{info.name}")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the layer boundaries for the duration of the block, then restore."""
    saved = []
    for module in _modules():
        for attr, obj in list(vars(module).items()):
            home = getattr(obj, "__module__", "") or ""
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or home == module.__name__
                or not home.startswith(PACKAGE + ".")
            ):
                continue
            layer = home.split(".")[1]
            saved.append((module, attr, obj))
            setattr(module, attr, tracer.wrap(f"{layer}.{obj.__name__}", obj))
    for layer, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
        original = vars(cls)[method]
        saved.append((cls, method, original))
        setattr(cls, method, tracer.wrap(f"{layer}.{method}", original))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced session (spans of that session only)."""
    own = self_times(spans)

    def self_s(predicate) -> float:
        return sum(t for s, t in zip(spans, own) if predicate(s))

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    mains = [i for i, s in enumerate(spans) if s.name == "cli.main"]
    main_set = set(mains)
    main_time = sum(spans[i].end - spans[i].start for i in mains)
    below_cli = sum(s.end - s.start for s in spans if s.parent in main_set)
    grams = named("kernels.gram_matrix")
    eigs = named("linalg.hermitian_eigenvalues")
    spectrum_ids = [i for i, s in enumerate(spans) if s.name == "kernels.spectrum"]
    solved = {s.parent for s in eigs}
    minimizes = named("frames.minimize_frame_potential")

    out = {
        "cli.self_s": self_s(lambda s: s.name.startswith("cli.")),
        "serialize.read_s": self_s(lambda s: s.name in READ_SPANS),
        "serialize.write_s": self_s(
            lambda s: s.name.startswith("serialize.") and s.name not in READ_SPANS
        ),
        "serialize.bytes_read": sum(total(n, "bytes") for n in READ_SPANS),
        "serialize.bytes_written": sum(total(n, "bytes") for n in WRITE_BYTE_SPANS),
        "kernels.gram_s": self_s(lambda s: s.name == "kernels.gram_matrix"),
    }
    for variant in GRAM_VARIANTS:
        out[f"kernels.gram.{variant}_s"] = self_s(
            lambda s: s.name == "kernels.gram_matrix" and s.counts.get("variant") == variant
        )
    out.update({
        "kernels.gram_calls": len(grams),
        "kernels.gram_entries": sum(s.counts["m"] ** 2 for s in grams),
        "kernels.spectrum_cache_hit_ratio": _ratio(
            sum(1 for i in spectrum_ids if i not in solved), len(spectrum_ids)
        ),
        "linalg.eig_s": self_s(lambda s: s.name == "linalg.hermitian_eigenvalues"),
        "linalg.eig_calls": len(eigs),
        "linalg.eig_m3": sum(s.counts["m"] ** 3 for s in eigs),
        "linalg.rank_s": self_s(lambda s: s.name == "linalg.numerical_rank"),
        "linalg.clamp_ratio": _ratio(total("linalg.clamp_psd", "clamped"), len(eigs)),
    })
    for report in REPORTS:
        out[f"bounds.{report}_s"] = self_s(lambda s: s.name == f"bounds.{report}")
    out.update({
        "bounds.pairs": sum(total(f"bounds.{r}", "pairs") for r in REPORTS),
        "features.feature_matrix_s": self_s(lambda s: s.name == "features.feature_matrix"),
        "features.feature_entries": total("features.feature_matrix", "entries"),
        "frames.minimize_s": self_s(lambda s: s.name == "frames.minimize_frame_potential"),
        "frames.iterations": total("frames.minimize_frame_potential", "iterations"),
        "frames.max_iters_hit": _ratio(
            total("frames.minimize_frame_potential", "max_iters_hit"), len(minimizes)
        ),
        "rank_scan.scan_s": self_s(lambda s: s.name == "rank_scan.rank_scan"),
        "rank_scan.trials": total("rank_scan.rank_scan", "trials"),
    })
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = self_s(lambda s: s.name.startswith(layer + "."))
    out["trace.coverage"] = _ratio(below_cli, main_time)
    return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
