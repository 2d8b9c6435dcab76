"""Spans and counters around pgtool's public functions, for the traced run.

Each named function is wrapped in every pgtool namespace that binds it
(``from .x import y`` copies the binding, so patching only the defining
module would miss callers); methods are wrapped on their class.  A span
records name, start, end, parent span and op id.  Calls, total time and
self time (duration minus the time covered by child spans) are summed as
spans close, so every call counts even after the stored span list hits
its cap.  Field arithmetic is not wrapped: it runs millions of times per
table and would swamp the trace.
"""

from __future__ import annotations

import functools
import gc
import gzip
import sys
import time
from array import array
from collections import defaultdict

# Spans stored for the span file; calls and times count every span.
SPAN_CAP = 200_000
# (module, function) pairs and (module, class, method) triples that get spans.
SPANNED_FUNCTIONS = (
    ("linalg", "rref"),
    ("linalg", "in_rowspace"),
    ("linalg", "nullspace"),
    ("linalg", "solve_columns"),
    ("quadrics", "closure_points"),
    ("embeddings", "point_map_from_dict"),
    ("embeddings", "is_quadratic_embedding"),
    ("embeddings", "is_regular"),
    ("embeddings", "reconstruct_kappa"),
    ("embeddings", "build_Q_frame"),
    ("embeddings", "recover_automorphism"),
    ("arcs", "is_arc"),
    ("arcs", "unisecants_at"),
    ("arcs", "tangent_meet"),
    ("arcs", "segre_scan"),
    ("arcs", "is_regular_conic"),
)
SPANNED_METHODS = (
    ("projective", "ProjectiveSpace", "subspace"),
    ("projective", "ProjectiveSpace", "meet"),
    ("projective", "ProjectiveSpace", "lines"),
    ("projective", "ProjectiveSpace", "lines_through"),
)
# Hot enough that only a call count is kept.
COUNTED_METHODS = (
    ("projective", "ProjectiveSpace", "normalize"),
    ("veronese", "VeroneseMap", "apply"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.child_calls: dict[tuple[int, int], int] = defaultdict(int)
        self.class_calls: dict[tuple[str, int], int] = defaultdict(int)
        self.active = False
        self.op = -1
        self.op_class = ""
        self.stack: list[list] = []
        self.next_id = 0
        self.dropped = 0
        self.t_origin = time.perf_counter()
        self.spans = {
            "id": array("q"),
            "parent": array("q"),
            "op": array("q"),
            "name": array("i"),
            "start": array("d"),
            "end": array("d"),
        }

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def span(self, name: str, fn, on_args=None, on_result=None):
        idx = self._index(name)
        tracer, stack = self, self.stack
        calls, total, self_time = self.calls, self.total, self.self_time
        child_calls, class_calls, spans = self.child_calls, self.class_calls, self.spans
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_args is not None:
                args = on_args(tracer, args)
            parent = stack[-1] if stack else None
            sid = tracer.next_id
            tracer.next_id += 1
            frame = [0.0, sid, idx]  # child time, span id, name index
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                total[idx] += dur
                self_time[idx] += dur - frame[0]
                class_calls[(tracer.op_class, idx)] += 1
                if parent is not None:
                    parent[0] += dur
                    child_calls[(parent[2], idx)] += 1
                if len(spans["id"]) < SPAN_CAP:
                    spans["id"].append(sid)
                    spans["parent"].append(parent[1] if parent is not None else -1)
                    spans["op"].append(tracer.op)
                    spans["name"].append(idx)
                    spans["start"].append(t0 - tracer.t_origin)
                    spans["end"].append(t1 - tracer.t_origin)
                else:
                    tracer.dropped += 1
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- aggregates ---------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of a spanned function."""
        if name not in self.names:
            return 0, 0.0, 0.0
        i = self.names.index(name)
        return self.calls[i], self.total[i], self.self_time[i]

    def children(self, parent: str, child: str) -> int:
        if parent not in self.names or child not in self.names:
            return 0
        return self.child_calls.get((self.names.index(parent), self.names.index(child)), 0)

    def calls_in_class(self, op_class: str, name: str) -> int:
        if name not in self.names:
            return 0
        return self.class_calls.get((op_class, self.names.index(name)), 0)

    def write_spans(self, path: str) -> int:
        cols = self.spans
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\top\tname\tstart_us\tend_us\n")
            for i in range(len(cols["id"])):
                fh.write(
                    f"{cols['id'][i]}\t{cols['parent'][i]}\t{cols['op'][i]}\t"
                    f"{self.names[cols['name'][i]]}\t{cols['start'][i] * 1e6:.1f}\t"
                    f"{cols['end'][i] * 1e6:.1f}\n"
                )
        return len(cols["id"])


def _rref_cells(tracer: Tracer, args):
    field, rows, *rest = args
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    tracer.counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    return (field, rows, *rest)


def _lines_returned(name: str):
    def hook(tracer: Tracer, result):
        tracer.counts[name + ".returned"] += len(result)

    return hook


def install() -> Tracer:
    """Wrap the traced functions in every loaded pgtool module; tracing starts inactive."""
    import pgtool  # noqa: F401  (loads every submodule through the package)

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name == "pgtool" or name.startswith("pgtool.")]
    for mod_name, fn_name in SPANNED_FUNCTIONS:
        orig = getattr(sys.modules[f"pgtool.{mod_name}"], fn_name)
        on_args = _rref_cells if fn_name == "rref" else None
        wrapped = tracer.span(f"{mod_name}.{fn_name}", orig, on_args=on_args)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
    for mod_name, cls_name, meth in SPANNED_METHODS:
        cls = getattr(sys.modules[f"pgtool.{mod_name}"], cls_name)
        name = f"{mod_name}.{meth}"
        on_result = _lines_returned(name) if meth in ("lines", "lines_through") else None
        setattr(cls, meth, tracer.span(name, cls.__dict__[meth], on_result=on_result))
    for mod_name, cls_name, meth in COUNTED_METHODS:
        cls = getattr(sys.modules[f"pgtool.{mod_name}"], cls_name)
        setattr(cls, meth, tracer.counter(f"{mod_name}.{meth}", cls.__dict__[meth]))
    return tracer


def cache_sizes() -> dict[str, int]:
    """Read-only look at pgtool's unbounded caches at run end."""
    from pgtool import projective, quadrics

    memo = sum(
        len(obj._closure_memo)
        for obj in gc.get_objects()
        if isinstance(obj, quadrics._ClosureContext)
    )
    return {
        "quadrics.closure_memo.entries": memo,
        "projective.subspace_points.entries": projective._subspace_points.cache_info().currsize,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, caches: dict[str, int], accepts: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[f"{name}.calls"] = (tracer.stat(name)[0], "count")

    def self_s(name):
        out[f"{name}.self_s"] = (tracer.stat(name)[2], "s")

    calls("linalg.rref")
    self_s("linalg.rref")
    out["linalg.rref.cells"] = (tracer.counts["linalg.rref.cells"], "count")
    calls("linalg.in_rowspace")
    self_s("linalg.in_rowspace")
    calls("linalg.nullspace")
    calls("linalg.solve_columns")
    calls("quadrics.closure_points")
    self_s("quadrics.closure_points")
    n, tot, _ = tracer.stat("quadrics.closure_points")
    out["quadrics.closure_points.us_per_call"] = (_ratio(tot, n) * 1e6, "us")
    out["quadrics.closure_points.calls_per_accept"] = (
        _ratio(tracer.calls_in_class("accept", "quadrics.closure_points"), accepts),
        "count/op",
    )
    out["quadrics.closure_memo.entries"] = (caches["quadrics.closure_memo.entries"], "count")
    self_s("embeddings.is_quadratic_embedding")
    out["embeddings.is_quadratic_embedding.subsets_per_call"] = (
        _ratio(
            tracer.children("embeddings.is_quadratic_embedding", "quadrics.closure_points"),
            tracer.stat("embeddings.is_quadratic_embedding")[0],
        ),
        "count/call",
    )
    self_s("embeddings.point_map_from_dict")
    calls("projective.subspace")
    self_s("projective.subspace")
    out["projective.normalize.calls"] = (tracer.counts["projective.normalize"], "count")
    calls("projective.meet")
    for name in ("projective.lines", "projective.lines_through"):
        self_s(name)
        out[f"{name}.spans_per_line"] = (
            _ratio(tracer.children(name, "projective.subspace"), tracer.counts[name + ".returned"]),
            "count/line",
        )
    for name in ("arcs.is_arc", "arcs.unisecants_at"):
        calls(name)
        self_s(name)
    for name in (
        "embeddings.is_regular",
        "arcs.tangent_meet",
        "embeddings.reconstruct_kappa",
        "embeddings.build_Q_frame",
        "embeddings.recover_automorphism",
    ):
        self_s(name)
    out["veronese.apply.calls"] = (tracer.counts["veronese.apply"], "count")
    out["projective.subspace_points.entries"] = (caches["projective.subspace_points.entries"], "count")
    self_s("arcs.segre_scan")
    self_s("arcs.is_regular_conic")
    return out
