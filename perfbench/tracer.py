"""Span recorder that wraps matsketch's public functions from outside.

No span goes inside the program: ``install`` replaces each traced function
under every name a matsketch module binds it to (modules import each other
with ``from .x import y``, so ``approx.svd`` and ``linalg.svd`` are two
names for one function), and calls inside a module resolve through that
module's globals, so they are caught too.

A span records name, start, end, parent span and thread.  Spans stay in
memory and are written out by the caller at the end.  ``child_s`` is the
time of same-thread child spans plus the stream iteration done inside the
span, so a span's self time is ``duration - child_s``.  Spans on a worker
thread name their parent but do not count as its children: the parent was
waiting, not working, while they ran.

Stream iteration is not recorded per row.  Each traversal of a stream from
``matio.open_stream`` becomes one aggregate ``streams.pass`` span whose
duration is the summed time spent inside ``next()``.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def set(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = value

    def _finish(self, rec: dict) -> None:
        with self._lock:
            self.spans.append(rec)

    def call(self, name: str, fn, *args, parent: dict | None = None, **kwargs):
        """Run ``fn`` inside a span; ``parent`` links a span started on another thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "thread": threading.get_ident(),
            "start": perf_counter(),
            "child_s": 0.0,
        }
        stack.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = perf_counter()
            rec["duration"] = rec["end"] - rec["start"]
            stack.pop()
            if stack and stack[-1] is parent:
                parent["child_s"] += rec["duration"]
            self._finish(rec)

    def timed_rows(self, rows):
        """Yield from ``rows``, charging the time inside ``next()`` to a pass span."""
        stack = self._stack()
        busy = 0.0
        count = 0
        start = None
        parent = None
        try:
            while True:
                t0 = perf_counter()
                if start is None:
                    start = t0
                    parent = stack[-1] if stack else None
                try:
                    item = next(rows)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    busy += dt
                    if stack:
                        stack[-1]["child_s"] += dt
                count += 1
                yield item
        finally:
            if start is not None:
                self.count("streams.rows", count)
                self._finish({
                    "id": next(self._ids),
                    "name": "streams.pass",
                    "parent": parent["id"] if parent else None,
                    "thread": threading.get_ident(),
                    "start": start,
                    "end": start + busy,
                    "duration": busy,
                    "child_s": 0.0,
                    "rows": count,
                })


def _replace(original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` under every name in every matsketch module."""
    for name, module in list(sys.modules.items()):
        if name != "matsketch" and not name.startswith("matsketch."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap(tracer: Tracer, module, attr: str, span: str, before=None, after=None):
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        result = tracer.call(span, original, *args, **kwargs)
        if after is not None:
            after(result)
        return result

    _replace(original, wrapper)


# Functions traced as spans, by module.  Span names are module.function.
TRACED = {
    "matio": ("read_matrix", "sha256_file"),
    "sampling": (
        "row_weights", "stream_weights", "draw_weighted_indices", "materialize_chosen",
        "sample_sketch",
    ),
    "approx": ("projector_top_k", "approximation_error", "low_rank_approximate"),
    "linalg": ("svd", "spectral_norm", "sym_spectral_norm", "numerical_rank"),
    "cutnorm": ("cut_norm_exact",),
}


def install(tracer: Tracer) -> None:
    """Wrap matsketch's layers in every module the CLI reaches."""
    import matsketch.cli  # noqa: F401  (loads those modules before rebinding)
    from matsketch import matio, parallel, reports

    def hashed(path, *args, **kwargs):
        tracer.count("matio.bytes_hashed", os.path.getsize(path))

    def linalg_bytes(a, *args, **kwargs):
        tracer.count("linalg.bytes_in", np.asarray(a).nbytes)

    def subsets(a, *args, **kwargs):
        shape = np.shape(a)
        if np.size(a):
            tracer.count("cutnorm.subsets", 2 ** min(shape))

    def sketch_outcome(sketch):
        tracer.set("sampling.distinct_ratio", np.unique(sketch.chosen_indices).size / sketch.d)

    def approx_outcome(result):
        report = result[1]
        if report.error_spectral is not None and report.bound:
            tracer.set("approx.bound_ratio", report.error_spectral / report.bound)

    hooks = {
        "sha256_file": (hashed, None),
        "svd": (linalg_bytes, None),
        "spectral_norm": (linalg_bytes, None),
        "sym_spectral_norm": (linalg_bytes, None),
        "numerical_rank": (linalg_bytes, None),
        "cut_norm_exact": (subsets, None),
        "materialize_chosen": (None, sketch_outcome),
        "sample_sketch": (None, sketch_outcome),
        "low_rank_approximate": (None, approx_outcome),
    }
    for mod_name, attrs in TRACED.items():
        for attr in attrs:
            before, after = hooks.get(attr, (None, None))
            module = sys.modules[f"matsketch.{mod_name}"]
            _wrap(tracer, module, attr, f"{mod_name}.{attr}", before, after)

    # Stream iteration: give the stream open_stream returns a timed __iter__.
    timed_classes: dict[type, type] = {}

    def timed_class(cls):
        if cls not in timed_classes:
            def __iter__(self):
                return tracer.timed_rows(cls.__iter__(self))
            timed_classes[cls] = type(cls.__name__, (cls,), {"__iter__": __iter__})
        return timed_classes[cls]

    open_stream = matio.open_stream

    @functools.wraps(open_stream)
    def traced_open_stream(*args, **kwargs):
        stream = open_stream(*args, **kwargs)
        stream.__class__ = timed_class(type(stream))
        return stream

    _replace(open_stream, traced_open_stream)

    # Trial fan-out: one span per call, and one per task on its worker thread.
    run_indexed = parallel.run_indexed

    @functools.wraps(run_indexed)
    def traced_run_indexed(fn, count):
        workers = min(parallel.thread_count(), count) if count > 1 else 1
        tracer.set("parallel.workers", max(workers, tracer.counters.get("parallel.workers", 0)))

        def run(fn, count):
            outer = tracer._stack()[-1]
            return run_indexed(lambda i: tracer.call("parallel.task", fn, i, parent=outer), count)

        return tracer.call("parallel.run_indexed", run, fn, count)

    _replace(run_indexed, traced_run_indexed)

    # Reports: construction plus write, patched on the class itself.
    report_cls = reports.ExperimentReport
    for attr, span in (("__init__", "reports.init"), ("write", "reports.write")):
        method = getattr(report_cls, attr)

        def traced(*args, _method=method, _span=span, **kwargs):
            return tracer.call(_span, _method, *args, **kwargs)

        setattr(report_cls, attr, functools.wraps(method)(traced))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced CLI call (see perfbench/README.md)."""
    spans = tracer.spans
    by_name: dict[str, list[dict]] = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)

    def total(*names):
        return sum(r["duration"] for n in names for r in by_name.get(n, ()))

    def self_time(*names):
        return sum(r["duration"] - r["child_s"] for n in names for r in by_name.get(n, ()))

    c = tracer.counters
    task_ids = {r["id"] for r in by_name.get("parallel.task", ())}
    tasks = [r["duration"] for r in by_name.get("parallel.task", ())]
    oracle_s = total("cutnorm.cut_norm_exact")
    par_wall = total("parallel.run_indexed")
    workers = c.get("parallel.workers", 0)
    return {
        "matio.read_s": self_time("matio.read_matrix"),
        "matio.hash_s": self_time("matio.sha256_file"),
        "matio.bytes_hashed": c.get("matio.bytes_hashed", 0),
        "streams.iter_s": total("streams.pass"),
        "streams.rows": c.get("streams.rows", 0),
        "streams.passes": len(by_name.get("streams.pass", ())),
        "sampling.weights_s": self_time("sampling.row_weights", "sampling.stream_weights"),
        "sampling.draw_s": self_time("sampling.draw_weighted_indices"),
        "sampling.materialize_s": self_time("sampling.materialize_chosen"),
        "sampling.sketch_s": self_time("sampling.sample_sketch"),
        "sampling.distinct_ratio": c.get("sampling.distinct_ratio", 0),
        "approx.projector_s": self_time("approx.projector_top_k"),
        "approx.error_s": self_time("approx.approximation_error"),
        "approx.self_s": self_time("approx.low_rank_approximate"),
        "approx.bound_ratio": c.get("approx.bound_ratio", 0),
        "linalg.svd_s": self_time("linalg.svd"),
        "linalg.svd_calls": len(by_name.get("linalg.svd", ())),
        "linalg.norm_s": self_time(
            "linalg.spectral_norm", "linalg.sym_spectral_norm", "linalg.numerical_rank"
        ),
        "linalg.bytes_in": c.get("linalg.bytes_in", 0),
        "cutnorm.oracle_s": oracle_s,
        "cutnorm.oracle_calls": len(by_name.get("cutnorm.cut_norm_exact", ())),
        "cutnorm.subsets": c.get("cutnorm.subsets", 0),
        "cutnorm.subsets_per_s": c.get("cutnorm.subsets", 0) / oracle_s if oracle_s else 0,
        "cutnorm.bound_terms_s": sum(
            r["duration"]
            for r in by_name.get("cutnorm.cut_norm_exact", ())
            if r["parent"] not in task_ids
        ),
        "parallel.wall_s": par_wall,
        "parallel.task_s": sum(tasks),
        "parallel.max_task_s": max(tasks, default=0),
        "parallel.workers": workers,
        "parallel.busy_frac": sum(tasks) / (par_wall * workers) if par_wall and workers else 0,
        "reports.write_s": self_time("reports.init", "reports.write"),
        "cli.self_s": self_time("cli.main"),
    }
