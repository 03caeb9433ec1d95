"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

Timing wrappers are installed on the names that callers look up, for
example ``evcompress.pipeline.encode_window`` (what ``compress_window``
calls) and ``evcompress.metrics.reconstruct_pixel`` (what
``reconstructed_time_histogram`` calls), so that the program runs its usual
code path.  Each wrapped call records a span ``(name, start, end, parent)``;
self time is a span's duration minus the part its child spans cover.  Counts
are taken at the same boundaries.  ``encode_window`` runs under tracemalloc
to get its peak allocation, on every call whose window has more events than
any earlier window of the same transform in the pass.  The wrappers' own bookkeeping is recorded as
``tracing`` spans, so that it is not charged to the caller's self time.

A wrapped name that the program no longer has is reported as absent; its
metrics read 0 and the run goes on.

Per-layer metrics are per pass over the workload's stream: times are the
median over the run's passes of the pass totals, and counts must repeat
exactly in every pass.  Ingest metrics (``io.read_events``, ``io.events``,
``pipeline.windowize``, ``pipeline.windows``, ``pipeline.empty_windows``)
are per ingest, and decode metrics (``io.read_descriptor``,
``pruning.to_dense_tensor``) per decode round, since a pass may repeat both.  Evaluate-phase
metrics (``reconstruct.*``, ``metrics.*``) come from the first pass, the
only one that evaluates, and so does ``python.gc.ms``: the time the
collector ran during that pass, which no single layer owns.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

ns = time.perf_counter_ns
TRANSFORMS = ("dct", "dtft", "dwt")

PER_LAYER_UNITS = {
    "io.read_events.ms": "ms",
    "io.events": "count",
    "io.write_descriptor.ms": "ms",
    "io.descriptor_bytes": "bytes",
    "io.read_descriptor.ms": "ms",
    "pipeline.windowize.ms": "ms",
    "pipeline.windows": "count",
    "pipeline.empty_windows": "count",
    "pipeline.compress_window.self_ms": "ms",
    "events.columns.ms": "ms",
    "calibration.windows.sparse": "count",
    "calibration.windows.moderate": "count",
    "calibration.windows.dense": "count",
    **{f"transforms.encode_window.ms.{t}": "ms" for t in TRANSFORMS},
    "transforms.atom_samples": "count",
    "transforms.active_pixels": "count",
    "transforms.encode_window.peak_mb": "MB",
    **{f"pruning.pack_descriptor.ms.{t}": "ms" for t in TRANSFORMS},
    "pruning.retained_coefficients": "count",
    "pruning.to_dense_tensor.ms": "ms",
    "reconstruct.render_original_frame.ms": "ms",
    "reconstruct.render_reconstructed_frame.ms": "ms",
    "reconstruct.reconstruct_pixel.calls": "count",
    "metrics.ssim.ms": "ms",
    "metrics.emd.ms": "ms",
    "python.gc.ms": "ms",
    "tracing.bookkeeping.ms": "ms",
}
PER_INGEST = {"io.read_events.ms", "io.events", "pipeline.windowize.ms", "pipeline.windows",
              "pipeline.empty_windows"}
PER_DECODE = {"io.read_descriptor.ms", "pruning.to_dense_tensor.ms"}
# the end-to-end timings, as measured with the wrappers in place; against an
# untraced run of the same seed they give the tracing overhead
TRACED_END_TO_END = ("setup_s", "ingest_kev_s", "compress_kev_s", "window_ms_dct", "window_ms_dtft",
                     "window_ms_dwt", "window_ms_tail10", "decode_windows_s", "evaluate_windows_s",
                     "peak_rss_mb")
# which wrapped function each metric needs; a metric whose function is absent reads 0
_NEEDS = {
    "io.read_events": "io.read_events", "io.events": "io.read_events",
    "io.write_descriptor": "io.write_descriptor", "io.descriptor_bytes": "io.write_descriptor",
    "io.read_descriptor": "io.read_descriptor",
    "pipeline.windowize": "pipeline.windowize", "pipeline.windows": "pipeline.windowize",
    "pipeline.empty_windows": "pipeline.windowize",
    "pipeline.compress_window": "pipeline.compress_window",
    "calibration.windows": "pipeline.compress_window",
    "transforms.": "pipeline.encode_window", "pruning.pack_descriptor": "pipeline.pack_descriptor",
    "pruning.retained_coefficients": "pipeline.pack_descriptor",
    "pruning.to_dense_tensor": "pruning.to_dense_tensor",
    "reconstruct.render_original_frame": "metrics.render_original_frame",
    "reconstruct.render_reconstructed_frame": "metrics.render_reconstructed_frame",
    "reconstruct.reconstruct_pixel": "reconstruct.reconstruct_pixel",
    "metrics.ssim": "metrics.ssim", "metrics.emd": "metrics.emd_temporal",
}


def _transform_name(value) -> str:
    return getattr(value, "name", str(value)).lower()


class Tracer:
    def __init__(self, ec):
        self.ec = ec
        self.spans: list = []  # (name, start, end, parent index or None)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peak_bytes = 0
        self._largest: dict[str, int] = {}
        self.absent: list[str] = []
        self._originals: list = []
        self._pass_start = 0
        self.per_pass: list[dict] = []
        self._gc_started = 0
        self._gc_ns = 0

    # -- wrappers -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, ns(), 0, self.stack[-1] if self.stack else None])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = ns()
        self.stack.pop()

    def _bookkeeping(self, started: int) -> None:
        self.spans.append(["tracing", started, ns(), self.stack[-1] if self.stack else None])

    def _wrap(self, module_name: str, attr: str, name, after=None, around=None) -> None:
        module = getattr(self.ec, module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(name(args) if callable(name) else name)
            try:
                if around is not None:
                    result = around(original, args, kwargs)
                else:
                    result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                started = ns()
                after(args, result)
                tracer._bookkeeping(started)
            return result

        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper)

    def _count_calls(self, module_name: str, attr: str, counter: str) -> None:
        module = getattr(self.ec, module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        c = self.counts

        def after_read(args, events):
            c["io.events"] += len(events)

        def after_windowize(args, windows):
            c["pipeline.windows"] += len(windows)
            c["pipeline.empty_windows"] += sum(1 for w in windows if len(w) == 0)

        def after_compress(args, result):
            regime = result[1].regime
            c[f"calibration.windows.{regime.name.lower() if regime is not None else 'forced'}"] += 1

        def after_encode(args, per_pixel):
            window, _, candidates = args[:3]
            c["transforms.atom_samples"] += candidates * len(window)
            c["transforms.active_pixels"] += len(per_pixel)

        def encode_under_tracemalloc(original, args, kwargs):
            # the (K, n_events) atom matrix dominates the peak, so only a call
            # with more events than every earlier one of its transform in this
            # pass can set a new maximum; tracing the others would only slow them
            key, n = _transform_name(args[1]), len(args[0])
            if n <= self._largest.get(key, -1):
                return original(*args, **kwargs)
            self._largest[key] = n
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        def after_pack(args, descriptor):
            c["pruning.retained_coefficients"] += sum(len(v) for v in descriptor.pixels.values())

        def after_write(args, result):
            c["io.descriptor_bytes"] += args[1].stat().st_size

        self._wrap("io", "read_events", "io.read_events", after_read)
        self._wrap("pipeline", "windowize", "pipeline.windowize", after_windowize)
        self._wrap("pipeline", "compress_window", "pipeline.compress_window", after_compress)
        self._wrap("pipeline", "encode_window", lambda a: f"transforms.encode_window.{_transform_name(a[1])}",
                   after_encode, around=encode_under_tracemalloc)
        self._wrap("pipeline", "pack_descriptor", lambda a: f"pruning.pack_descriptor.{_transform_name(a[2])}",
                   after_pack)
        self._wrap("io", "write_descriptor", "io.write_descriptor", after_write)
        self._wrap("io", "read_descriptor", "io.read_descriptor")
        self._wrap("pruning", "to_dense_tensor", "pruning.to_dense_tensor")
        self._wrap("metrics", "evaluate_window", "metrics.evaluate_window")
        self._wrap("metrics", "render_original_frame", "reconstruct.render_original_frame")
        self._wrap("metrics", "render_reconstructed_frame", "reconstruct.render_reconstructed_frame")
        self._wrap("metrics", "ssim", "metrics.ssim")
        for attr in ("event_time_histogram", "reconstructed_time_histogram", "emd_temporal"):
            self._wrap("metrics", attr, "metrics.emd")
        self._count_calls("reconstruct", "reconstruct_pixel", "reconstruct.reconstruct_pixel.calls")
        self._count_calls("metrics", "reconstruct_pixel", "reconstruct.reconstruct_pixel.calls")
        gc.callbacks.append(self._on_gc)
        if not hasattr(self.ec.events.EventWindow, "columns"):
            self.absent.append("events.EventWindow.columns")

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = ns()
        else:
            self._gc_ns += ns() - self._gc_started

    def original(self, module, attr: str):
        """The unwrapped function behind a wrapped name, for calls that must not be traced."""
        for mod, name, function in self._originals:
            if mod is module and name == attr:
                return function
        return getattr(module, attr)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def columns(self, window) -> None:
        """Time the first access of ``EventWindow.columns`` before compress_window needs it."""
        if "events.EventWindow.columns" in self.absent:
            return
        span = self._open("events.columns")
        try:
            window.columns
        finally:
            self._close(span)

    # -- per pass -------------------------------------------------------------

    def start_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counts.clear()
        self.peak_bytes = 0
        self._largest.clear()
        self._gc_ns = 0

    def end_pass(self, result) -> None:
        spans = self.spans[self._pass_start:]
        total = defaultdict(int)
        child = defaultdict(int)
        for name, start, end, parent in spans:
            total[name] += end - start
            if parent is not None and parent >= self._pass_start:
                child[self.spans[parent][0]] += end - start
        self.per_pass.append({
            "ms": {name: total[name] / 1e6 for name in total},
            "self_ms": {name: (total[name] - child[name]) / 1e6 for name in total},
            "counts": dict(self.counts),
            "peak_mb": self.peak_bytes / 2**20,
            "gc_ms": self._gc_ns / 1e6,
            "ingests": result.ingests,
            "decodes": result.decodes,
            "evaluated": bool(result.reports),
        })

    # -- report ---------------------------------------------------------------

    def _value(self, metric: str, unit: str, passes: list[dict]) -> float:
        if metric == "transforms.encode_window.peak_mb":
            return max(p["peak_mb"] for p in passes)
        if metric == "python.gc.ms":
            return passes[0]["gc_ms"]
        per = "ingests" if metric in PER_INGEST else "decodes" if metric in PER_DECODE else None
        scale = (lambda p: 1.0 / p[per]) if per else (lambda p: 1.0)
        if unit == "ms":
            if metric.endswith(".self_ms"):
                key, name = "self_ms", metric.removesuffix(".self_ms")
            elif metric == "tracing.bookkeeping.ms":
                key, name = "ms", "tracing"
            else:
                key, name = "ms", metric.replace(".ms.", ".").removesuffix(".ms")
            return statistics.median(p[key].get(name, 0.0) * scale(p) for p in passes)
        counts = [p["counts"].get(metric, 0) * scale(p) for p in passes]
        if any(c != counts[0] for c in counts):
            print(f"tracing: {metric} differs between passes: {counts}", file=sys.stderr)
        return counts[0]

    def metrics(self, values: dict, units: dict, dump_path) -> dict:
        """Per-layer metrics per pass; evaluate-phase ones from the pass that evaluated."""
        evaluating = [p for p in self.per_pass if p["evaluated"]]
        out = {}
        for metric, unit in PER_LAYER_UNITS.items():
            evaluate_phase = metric.startswith(("reconstruct.", "metrics."))
            out[metric] = {"value": self._value(metric, unit, evaluating if evaluate_phase else self.per_pass),
                           "unit": unit}
        for name in TRACED_END_TO_END:
            out[f"traced.{name}"] = {"value": values[name], "unit": units[name]}
        for metric in out:
            needs = next((fn for prefix, fn in _NEEDS.items() if metric.startswith(prefix)), None)
            if needs in self.absent:
                out[metric]["value"] = 0.0
        if self.absent:
            print(f"tracing: absent from the program: {', '.join(self.absent)}", file=sys.stderr)
        dump_path.parent.mkdir(parents=True, exist_ok=True)
        with dump_path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")
        return out
