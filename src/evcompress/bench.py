"""Throughput benchmarking of the three encoders on one stream.

Each transform is forced over the whole stream and the encode + prune +
pack path is timed per window (windowization and I/O excluded; a warm-up
pass over all windows is run first and never counted; the cyclic garbage
collector is paused while it runs).  Throughput is events processed divided
by the wall time of the repetitions, never by a sum of per-window times.
Runs are single-threaded, so the per-encoder numbers are directly
comparable.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .calibration import TransformKind
from .errors import ContractError
from .events import Event, SensorGeometry
from .pipeline import PipelineConfig, compress_window, windowize

__all__ = ["EncoderBenchmark", "BenchReport", "bench_encoders"]


@dataclass(frozen=True, slots=True)
class EncoderBenchmark:
    """One transform's measurements."""

    transform: TransformKind
    mean_ms: float
    std_ms: float
    throughput_kev_s: float
    relative_efficiency: float  # percent of the best transform's throughput


@dataclass(frozen=True)
class BenchReport:
    """Comparison of the three encoders on one stream."""

    encoders: dict[TransformKind, EncoderBenchmark]
    event_count: int
    window_count: int
    repetitions: int
    timer_reliable: bool


def bench_encoders(
    events: Sequence[Event],
    geometry: SensorGeometry,
    budget: int,
    candidate_count: int,
    repetitions: int,
    window_duration: float = 0.033,
) -> BenchReport:
    """Benchmark DCT, DTFT, and DWT compression over the given stream."""
    if repetitions < 5:
        raise ContractError(f"need at least 5 repetitions for stable statistics, got {repetitions}")
    if not events:
        raise ContractError("cannot benchmark an empty stream")
    windows = windowize(events, window_duration, geometry)
    event_count = sum(len(w) for w in windows)
    results: dict[TransformKind, EncoderBenchmark] = {}
    mean_window_seconds: list[float] = []
    for transform in (TransformKind.DCT, TransformKind.DTFT, TransformKind.DWT):
        config = PipelineConfig(
            window_duration=window_duration,
            budget=budget,
            candidate_count=candidate_count,
            force_transform=transform,
        )

        def run_once() -> tuple[np.ndarray, float]:
            started = time.perf_counter()
            snaps = [compress_window(w, config, None)[1] for w in windows]
            return np.array([s.encode_seconds for s in snaps]), time.perf_counter() - started

        # As timeit does: a full collection walks every object the calling
        # process holds, so its pauses would time the caller's heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            run_once()  # warm-up, excluded from statistics
            runs = [run_once() for _ in range(repetitions)]
        finally:
            if enabled:
                gc.enable()
        per_window = np.concatenate([times for times, _ in runs])
        total_seconds = sum(wall for _, wall in runs)
        mean_window_seconds.append(float(per_window.mean()))
        results[transform] = EncoderBenchmark(
            transform=transform,
            mean_ms=float(per_window.mean() * 1e3),
            std_ms=float(per_window.std() * 1e3),
            throughput_kev_s=event_count * repetitions / total_seconds / 1e3,
            relative_efficiency=0.0,
        )
    best = max(b.throughput_kev_s for b in results.values())
    results = {  # ratio first: the best transform lands on exactly 100.0
        t: replace(b, relative_efficiency=100.0 * (b.throughput_kev_s / best)) for t, b in results.items()
    }
    resolution = time.get_clock_info("perf_counter").resolution
    timer_reliable = resolution <= 0.01 * min(mean_window_seconds)
    return BenchReport(
        encoders=results,
        event_count=event_count,
        window_count=len(windows),
        repetitions=repetitions,
        timer_reliable=timer_reliable,
    )
