"""Span tracer that wraps fiva's layers from outside the package.

Entering a :class:`Tracer` rebinds every public function and public method
defined in the layer modules, plus ``Gallery.__post_init__`` (which builds a
gallery's matrix), in every ``fiva`` namespace that holds them.  A call made
through any import path therefore opens a span; ``src/`` is not modified.
Leaving the tracer restores the originals.

A span is ``(id, parent, start_ns, end_ns, name, a, b)``; ``a`` and ``b`` are
per-call counts some functions report (see ``_COUNTS``).  Spans stay in one
``array('q')`` until the run ends.  Each record is appended with a single
``extend``, so records stay whole when ``parallel_map`` workers close spans
concurrently, and those workers inherit the ``parallel_map`` span as parent.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "io", "sphere", "sampling", "tracking", "gallery", "metrics",
          "detector", "synth", "util")
_PRIVATE_SPANS = {"Gallery": ("__post_init__",)}
_FIELDS = 7


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _file_size(target) -> int:
    return os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0


def _anchor_cells(args, kwargs, result):
    anchors = _arg(args, kwargs, 1, "anchors")
    return len(anchors) * anchors.dim, 0


_COUNTS = {
    "sampling.sample_fake": _anchor_cells,  # K * D multiply-adds for one query
    "tracking.TrackerState.track": lambda args, kwargs, result: (int(result.matched), 0),
    "io.read_container": lambda args, kwargs, result: (_file_size(_arg(args, kwargs, 0, "source")), 0),
    "io.write_container": lambda args, kwargs, result: (_file_size(_arg(args, kwargs, 0, "destination")), 0),
    "metrics.id_retrieval_rate": lambda args, kwargs, result: (len(result.per_query), 0),
    "metrics.temporal_consistency": lambda args, kwargs, result: (
        sum(len(video) ** 2 for video in _arg(args, kwargs, 0, "videos")), 0),
    "detector.score_distribution": lambda args, kwargs, result: (len(result.scores), 0),
    "sphere.build_anchor_set": lambda args, kwargs, result: (len(result), len(result.skipped)),
}

UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "tracking.mint_us_p50": "us",
    "tracking.mint_us_p99": "us",
    "tracking.match_us_p50": "us",
    "tracking.match_us_p99": "us",
    "tracking.mints": "count",
    "tracking.matches": "count",
    "tracking.match_ratio": "ratio",
    "tracking.save_state_s": "s",
    "tracking.load_state_s": "s",
    "sampling.rows": "count",
    "sampling.us_per_row": "us",
    "sampling.gflop_computed": "GFLOP",
    "sampling.gflops": "GFLOP/s",
    "metrics.probes": "count",
    "metrics.retrieval_self_s": "s",
    "metrics.us_per_probe": "us",
    "metrics.temporal_self_s": "s",
    "metrics.temporal_pairs": "count",
    "util.parallel_map_calls": "count",
    "util.parallel_map_s": "s",
    "io.read_s": "s",
    "io.write_s": "s",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    "io.read_mb_per_s": "MB/s",
    "io.write_mb_per_s": "MB/s",
    "gallery.build_s": "s",
    "detector.pairs": "count",
    "detector.us_per_pair": "us",
    "sphere.build_anchor_set_s": "s",
    "sphere.anchors_built": "count",
    "sphere.pairs_skipped": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(x: float, y: float) -> float:
    return float(x) / float(y) if y else 0.0


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Tracer:
    """Context manager that records spans around fiva's layer functions."""

    def __init__(self) -> None:
        self._records = array("q")
        self._names: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name: str, fn):
        name_id = len(self._names)
        self._names.append(name)
        count = _COUNTS.get(name)
        carry = name == "util.parallel_map"
        records, ids, stack_of, clock = self._records, self._ids, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span = next(ids)
            if carry:
                args = (self._in_span(span, args[0]),) + args[1:]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            a, b = count(args, kwargs, result) if count else (0, 0)
            records.extend((span, parent, start, end, name_id, a, b))
            return result

        return traced

    def _in_span(self, span: int, fn):
        """``fn`` run with ``span`` as the parent, in whatever thread calls it."""

        def run(item):
            stack = self._stack()
            stack.append(span)
            try:
                return fn(item)
            finally:
                stack.pop()

        return run

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        namespaces = [m for n, m in list(sys.modules.items()) if n == "fiva" or n.startswith("fiva.")]
        for layer in LAYERS:
            module = sys.modules.get(f"fiva.{layer}")
            if module is None:  # a layer module the package no longer has
                continue
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for namespace in namespaces:
                        for key, value in list(vars(namespace).items()):
                            if value is obj:
                                self._patch(namespace, key, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        return self

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _PRIVATE_SPANS.get(cls.__name__, ()):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, member.__func__)))

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (every key of ``UNITS``
        except ``trace.wall_s`` and ``trace.overhead_s``)."""
        rec = np.frombuffer(self._records, dtype=np.int64).reshape(-1, _FIELDS)
        ids, parents, starts, ends, names, a, b = rec.T
        seconds = (ends - starts) / 1e9
        self_s = seconds - _covered_by_children(ids, parents, starts, ends) / 1e9
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self._names], dtype=np.int64)
        span_layer = layer_of[names] if len(names) else names
        name_ids = {n: i for i, n in enumerate(self._names)}
        parent_of = dict(zip(ids.tolist(), parents.tolist()))

        def where(*wanted: str) -> np.ndarray:
            return np.isin(names, [name_ids[n] for n in wanted if n in name_ids])

        def inclusive(mask: np.ndarray) -> float:
            """Wall time of the masked spans, not counting one nested in another."""
            chosen = set(ids[mask].tolist())
            total = 0.0
            for i in np.flatnonzero(mask):
                ancestor = parent_of.get(int(ids[i]), 0)
                while ancestor and ancestor not in chosen:
                    ancestor = parent_of.get(ancestor, 0)
                if not ancestor:
                    total += seconds[i]
            return total

        m = {f"{layer}.self_s": float(self_s[span_layer == i].sum()) for i, layer in enumerate(LAYERS)}

        track = where("tracking.TrackerState.track")
        track_us, matched = seconds[track] * 1e6, a[track] == 1
        m["tracking.mint_us_p50"] = _percentile(track_us[~matched], 50)
        m["tracking.mint_us_p99"] = _percentile(track_us[~matched], 99)
        m["tracking.match_us_p50"] = _percentile(track_us[matched], 50)
        m["tracking.match_us_p99"] = _percentile(track_us[matched], 99)
        m["tracking.mints"] = int((~matched).sum())
        m["tracking.matches"] = int(matched.sum())
        m["tracking.match_ratio"] = _ratio(matched.sum(), len(matched))
        m["tracking.save_state_s"] = inclusive(where("tracking.save_state"))
        m["tracking.load_state_s"] = inclusive(where("tracking.load_state"))

        sample = where("sampling.sample_fake")
        sample_s, gflop = inclusive(sample), 2 * int(a[sample].sum()) / 1e9
        m["sampling.rows"] = int(sample.sum())
        m["sampling.us_per_row"] = _ratio(sample_s * 1e6, sample.sum())
        m["sampling.gflop_computed"] = gflop
        m["sampling.gflops"] = _ratio(gflop, sample_s)

        retrieval = where("metrics.retrieve", "metrics.id_retrieval_rate", "metrics.neg_id_retrieval_rate")
        temporal = where("metrics.temporal_consistency", "metrics.pairwise_distance_matrix")
        m["metrics.probes"] = int(a[where("metrics.id_retrieval_rate")].sum())
        m["metrics.retrieval_self_s"] = float(self_s[retrieval].sum())
        m["metrics.us_per_probe"] = _ratio(inclusive(retrieval) * 1e6, m["metrics.probes"])
        m["metrics.temporal_self_s"] = float(self_s[temporal].sum())
        m["metrics.temporal_pairs"] = int(a[where("metrics.temporal_consistency")].sum())

        pool = where("util.parallel_map")
        m["util.parallel_map_calls"] = int(pool.sum())
        m["util.parallel_map_s"] = inclusive(pool)

        reads, writes = where("io.read_container"), where("io.write_container")
        m["io.read_s"], m["io.write_s"] = inclusive(reads), inclusive(writes)
        m["io.bytes_read"], m["io.bytes_written"] = int(a[reads].sum()), int(a[writes].sum())
        m["io.read_mb_per_s"] = _ratio(m["io.bytes_read"] / 1e6, m["io.read_s"])
        m["io.write_mb_per_s"] = _ratio(m["io.bytes_written"] / 1e6, m["io.write_s"])

        m["gallery.build_s"] = inclusive(where("gallery.Gallery.__post_init__"))

        scored = where("detector.score_distribution")
        m["detector.pairs"] = int(a[scored].sum())
        m["detector.us_per_pair"] = _ratio(
            inclusive(where("detector.detect", "detector.score_distribution")) * 1e6, m["detector.pairs"])

        build = where("sphere.build_anchor_set")
        m["sphere.build_anchor_set_s"] = inclusive(build)
        m["sphere.anchors_built"] = int(a[build].sum())
        m["sphere.pairs_skipped"] = int(b[build].sum())

        m["trace.spans"] = len(ids)
        return m


def _covered_by_children(ids, parents, starts, ends) -> np.ndarray:
    """Per span, the length of the union of its children's intervals.

    Children of one span overlap only when ``parallel_map`` runs them on
    several threads; the sweep over start-sorted children handles both.
    """
    covered: dict[int, int] = defaultdict(int)
    order = np.lexsort((starts, parents))
    current, reach = None, 0
    for parent, start, end in zip(parents[order].tolist(), starts[order].tolist(), ends[order].tolist()):
        if parent != current:
            current, reach = parent, start
        if end > reach:
            covered[parent] += end - max(start, reach)
            reach = end
    return np.array([covered.get(i, 0) for i in ids.tolist()], dtype=np.float64)
