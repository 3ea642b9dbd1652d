"""Span tracing of vpfa's layers from outside the program.

A :class:`Tracer` replaces each traced function at the name its caller
looks it up by (for example ``vpfa.trainer.adam_step``, which ``train``
calls through the ``vpfa.trainer`` module globals) with a wrapper that
records one span per call: name, start, end, parent span and run id.
Spans stay in memory until :meth:`Tracer.write`.  Outside
:meth:`Tracer.installed` nothing is wrapped, so untraced passes run the
program's own functions.

Work counts (FLOPs, bytes, records) are attached to the spans whose
metrics need them.  FLOPs and Adam bytes are computed from tensor shapes,
not measured, and their units say so.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import statistics
import time
from pathlib import Path
from typing import NamedTuple


def _batch_rows(z) -> int:
    return 1 if getattr(z, "ndim", 2) == 1 else int(z.shape[0])


def _matmul_flop(params, rows: int) -> int:
    """2 * rows * (multiply-adds of the four weight matrices)."""
    d, h = params.dim, params.hidden
    return 2 * rows * (2 * d * h + 2 * h * h)


def _forward_work(args, kwargs, result):
    params, z = args[0], args[1]
    return (("flop", _matmul_flop(params, _batch_rows(z))),)


def _backward_work(args, kwargs, result):
    # Every layer computes a weight gradient and an input gradient: two
    # matmuls of the forward matmul's size.
    params, trace = args[0], args[1]
    return (("flop", 2 * _matmul_flop(params, int(trace.z.shape[0]))),)


def _adam_work(args, kwargs, result):
    # Minimal traffic of one step: read g, theta, m, v and write m, v, theta.
    tensors = args[0]
    return (("bytes", 7 * 8 * sum(int(t.size) for t in tensors.values())),)


def _load_work(args, kwargs, result):
    return (("bytes", os.path.getsize(args[0])),)


def _save_work(args, kwargs, result):
    return (("bytes", os.path.getsize(args[1])),)


def _evaluate_work(args, kwargs, result):
    return (("queries", len(args[0])), ("gallery", len(args[1])))


def _generate_work(args, kwargs, result):
    return (("records", len(result)),)


# Traced layer functions: span name -> (patch targets, work counter).
# A target is "module:attribute" or "module:Class.attribute"; each is the
# name some caller in the program resolves at call time.
LAYER_FUNCTIONS = {
    "vpnet.forward": (("vpfa.trainer:forward", "vpfa.retrieval:forward"), _forward_work),
    "vpnet.backward": (("vpfa.trainer:backward",), _backward_work),
    "vpnet.init_params": (("vpfa.vpnet:init_params",), None),
    "vpnet.save_params": (("vpfa.cli:save_params",), None),
    "vpnet.load_params": (("vpfa.cli:load_params",), None),
    "trainer.adam_step": (("vpfa.trainer:adam_step",), _adam_work),
    "trainer.train": (("vpfa.cli:train",), None),
    "trainer.build_prototype_pairs": (("vpfa.trainer:build_prototype_pairs",), None),
    "trainer.sample_training_pairs": (("vpfa.trainer:sample_training_pairs",), None),
    "embeddings.load_set": (("vpfa.cli:load_set",), _load_work),
    "embeddings.save_set": (("vpfa.cli:save_set",), _save_work),
    "embeddings.partition": (("vpfa.embeddings:EmbeddingSet.partition",), None),
    "retrieval.evaluate": (("vpfa.cli:evaluate",), _evaluate_work),
    "retrieval.apply_panning": (("vpfa.cli:apply_panning",), None),
    "retrieval.compare_centroids": (("vpfa.cli:compare_centroids",), None),
    "retrieval.centroid_distances": (
        ("vpfa.cli:centroid_distances", "vpfa.retrieval:centroid_distances"), None,
    ),
    "retrieval.project_2d": (("vpfa.cli:project_2d",), None),
    "stats.split_cosine": (("vpfa.stats:split_cosine",), None),
    "stats.cca_with_random_baseline": (("vpfa.stats:cca_with_random_baseline",), None),
    "stats.grouped_pearson": (("vpfa.stats:grouped_pearson",), None),
    "synthgen.generate": (("vpfa.cli:generate",), _generate_work),
}

CLI_COMMANDS = ("gen", "stats", "eval", "train", "apply", "centroids", "project")

# Extra metrics per span beyond ``.s`` and ``.calls``.
_EXTRAS = {
    "vpnet.forward": ("p50_us", "p99_us", "gflop"),
    "vpnet.backward": ("p50_us", "p99_us", "gflop"),
    "trainer.adam_step": ("p50_us", "p99_us", "bytes"),
    "trainer.train": ("self_s",),
    "embeddings.load_set": ("MBps",),
    "embeddings.save_set": ("MBps",),
    "retrieval.evaluate": ("queries", "gallery"),
    "retrieval.apply_panning": ("self_s",),
    "synthgen.generate": ("records_per_s",),
    **{f"cli.{c}": ("self_s",) for c in CLI_COMMANDS},
}

_UNITS = {
    "s": "s", "self_s": "s", "calls": "count", "p50_us": "us", "p99_us": "us",
    "gflop": "GFLOP_computed", "bytes": "B_computed", "MBps": "MB/s",
    "queries": "count", "gallery": "count", "records_per_s": "1/s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for span in (*LAYER_FUNCTIONS, *(f"cli.{c}" for c in CLI_COMMANDS)):
        for part in ("s", "calls", *_EXTRAS.get(span, ())):
            out[f"{span}.{part}"] = _UNITS[part]
    out["trace.overhead_s"] = "s"
    return out


def _resolve(target: str):
    module_name, attr_path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Span(NamedTuple):
    """One traced call.  Tuples of plain values keep the garbage collector's
    work, and so the tracing overhead, from growing with the span count."""

    id: int
    name: str
    parent: int | None
    run: str
    start_ns: int
    end_ns: int
    work: tuple = ()  # (counter, value) pairs


class Tracer:
    """Records spans of wrapped calls; install it with :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int | None]:
        # Spans opened so far = closed + still open, so ids are unique.
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, name, parent, start_ns, end_ns, work=()) -> None:
        self._stack.pop()
        self.spans.append(Span(span_id, name, parent, self.run_id, start_ns, end_ns, work))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block."""
        span_id, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(span_id, name, parent, start, time.perf_counter_ns())

    def _wrap(self, name, original, work_fn):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(span_id, name, parent, start, time.perf_counter_ns())
                raise
            end = time.perf_counter_ns()
            work = work_fn(args, kwargs, result) if work_fn is not None else ()
            tracer._close(span_id, name, parent, start, end, work)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, run_id: str):
        """Wrap every layer function for the duration of the block."""
        self.run_id = run_id
        patched = []
        try:
            for name, (targets, work_fn) in LAYER_FUNCTIONS.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    original = getattr(owner, attr)
                    setattr(owner, attr, self._wrap(name, original, work_fn))
                    patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({**span._asdict(), "work": dict(span.work)}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate spans into the per-layer metrics of :func:`metric_units`.

        Self time is a span's duration minus the durations of its direct
        children; spans nest because the program is single-threaded.
        ``p99_us`` is the nearest-rank 99th percentile, a tail estimate
        only when ``calls`` is at least 1000 (below 100 calls it is the
        maximum).
        """
        child_ns: dict[int, int] = {}
        for rec in self.spans:
            if rec.parent is not None:
                child_ns[rec.parent] = child_ns.get(rec.parent, 0) + rec.end_ns - rec.start_ns
        by_name: dict[str, list[Span]] = {}
        for rec in self.spans:
            by_name.setdefault(rec.name, []).append(rec)

        out = {}
        for metric in metric_units():
            span, _, part = metric.rpartition(".")
            if span == "trace":
                continue
            recs = by_name.get(span, [])
            durations = sorted((r.end_ns - r.start_ns) / 1e9 for r in recs)
            total = sum(durations)
            work = {}
            for r in recs:
                for key, value in r.work:
                    work[key] = work.get(key, 0) + value
            out[metric] = _layer_value(part, recs, durations, total, work, child_ns)
        return out


def _layer_value(part, recs, durations, total, work, child_ns) -> float:
    if part == "s":
        return total
    if part == "calls":
        return len(recs)
    if part == "self_s":
        return total - sum(child_ns.get(r.id, 0) for r in recs) / 1e9
    if not recs:
        return 0.0
    if part == "p50_us":
        return statistics.median(durations) * 1e6
    if part == "p99_us":
        return durations[math.ceil(0.99 * len(durations)) - 1] * 1e6
    if part == "gflop":
        return work["flop"] / 1e9
    if part == "bytes":
        return work["bytes"]
    if part == "MBps":
        return work["bytes"] / 1e6 / total
    if part in ("queries", "gallery"):
        return work[part]
    if part == "records_per_s":
        return work["records"] / total
    raise KeyError(part)
