"""End-to-end streaming compression: windowing, density monitoring, logging.

A stream is tiled into consecutive half-open windows aligned to absolute
time ``t = 0`` (window ``k`` covers ``[k*T, (k+1)*T)``), so window indices
are reproducible across sub-sequences.  Empty windows inside the span are
kept (they carry density 0 and produce empty descriptors), which keeps
window indices dense for downstream concatenation.

Each window flows through density -> regime -> transform -> encode ->
prune -> pack, and one decision-log entry records what happened.  Window
processing is pure and embarrassingly parallel after the sequential
windowization; this implementation runs windows in order with a single log
appender, which also guarantees ordered output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .calibration import DensityThresholds, Regime, TransformKind, classify_regime, select_transform
from .errors import ConfigurationError, ContractError, EvCompressError, PipelineError
from .events import Event, EventArray, EventWindow, SensorGeometry, compute_density
from .pruning import RetentionPolicy, WindowDescriptor, pack_descriptor, retention_budget
from .transforms import encode_window

__all__ = [
    "PipelineConfig",
    "DensitySnapshot",
    "DecisionLog",
    "MonitorSummary",
    "EncodeTimeStats",
    "DECISION_LOG_HEADER",
    "windowize",
    "compress_window",
    "compress_stream",
    "monitor_summary",
]

DECISION_LOG_HEADER = "window,density,regime,transform,events,encode_ms"


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Compression knobs shared by every window of a run.

    ``force_transform`` bypasses density-driven selection (useful for
    benchmarking single encoders); when set, thresholds become optional.
    """

    window_duration: float = 0.033
    budget: int = 16
    candidate_count: int = 64
    force_transform: TransformKind | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.window_duration) or self.window_duration <= 0.0:
            raise ConfigurationError(f"window duration must be > 0, got {self.window_duration}")
        if self.budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {self.budget}")
        if self.candidate_count < 1:
            raise ConfigurationError(f"candidate_count must be >= 1, got {self.candidate_count}")


@dataclass(frozen=True, slots=True)
class DensitySnapshot:
    """One decision-log record: what one window looked like and got.

    ``regime`` is None on forced-transform runs without thresholds.
    """

    window_index: int
    density: float
    regime: Regime | None
    transform: TransformKind
    event_count: int
    encode_seconds: float


class DecisionLog:
    """Append-only sequence of snapshots with strictly increasing indices."""

    def __init__(self) -> None:
        self._snapshots: list[DensitySnapshot] = []

    def append(self, snapshot: DensitySnapshot) -> None:
        if self._snapshots and snapshot.window_index <= self._snapshots[-1].window_index:
            raise ContractError(
                f"window index {snapshot.window_index} not greater than "
                f"{self._snapshots[-1].window_index}"
            )
        self._snapshots.append(snapshot)

    @property
    def snapshots(self) -> tuple[DensitySnapshot, ...]:
        return tuple(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

    def __iter__(self):
        return iter(self._snapshots)

    def to_csv(self, path: str | Path) -> None:
        lines = [DECISION_LOG_HEADER]
        for snap in self._snapshots:
            regime = snap.regime.name if snap.regime is not None else ""
            lines.append(
                f"{snap.window_index},{snap.density!r},{regime},{snap.transform.name},"
                f"{snap.event_count},{snap.encode_seconds * 1e3!r}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _window_index(t: np.ndarray, duration: float) -> np.ndarray:
    k = np.floor_divide(t, duration)
    # float division can land one window off near exact boundaries
    k += (k + 1.0) * duration <= t
    k -= k * duration > t
    return k.astype(np.int64)


def windowize(
    events: Sequence[Event],
    duration: float,
    geometry: SensorGeometry,
) -> list[EventWindow]:
    """Tile a sorted stream into consecutive windows of the given duration.

    Windows start at the first event's window index (aligned to absolute
    time 0) and run through the last event's; empty windows in between are
    emitted.  Each window's events are a slice of the stream's columns.
    Raises :class:`ContractError` on unsorted input or out-of-geometry
    coordinates.
    """
    if not math.isfinite(duration) or duration <= 0.0:
        raise ConfigurationError(f"window duration must be > 0, got {duration}")
    events = EventArray.from_events(events)
    if not len(events):
        return []
    if np.any(np.diff(events.t) < 0.0):
        raise ContractError("events must be sorted by timestamp before windowing")
    bad = np.flatnonzero((events.x >= geometry.width) | (events.y >= geometry.height))
    if bad.size:
        i = int(bad[0])
        raise ContractError(
            f"event {i}: coordinates ({events.x[i]}, {events.y[i]}) outside "
            f"{geometry.height}x{geometry.width} sensor"
        )
    ks = _window_index(events.t, duration)
    first, last = int(ks[0]), int(ks[-1])
    edges = np.searchsorted(ks, np.arange(first, last + 2)).tolist()
    return [
        EventWindow(t_start=k * duration, duration=duration, events=events[lo:hi], geometry=geometry)
        for k, lo, hi in zip(range(first, last + 1), edges, edges[1:])
    ]


def compress_window(
    window: EventWindow,
    config: PipelineConfig,
    thresholds: DensityThresholds | None,
    window_index: int = 0,
) -> tuple[WindowDescriptor, DensitySnapshot]:
    """Compress one window and report the decision taken.

    The snapshot's encode time covers encode + prune + pack (no I/O).
    """
    if thresholds is None and config.force_transform is None:
        raise ConfigurationError("thresholds are required unless a transform is forced")
    started = time.perf_counter()
    density = compute_density(window)
    regime = classify_regime(density, thresholds) if thresholds is not None else None
    transform = config.force_transform if config.force_transform is not None else select_transform(regime)
    r = retention_budget(config.budget, config.candidate_count)
    # DCT keeps the first r indices regardless of magnitude, so only those
    # atoms need evaluating; magnitude selection needs the whole grid.
    eval_count = r if transform is TransformKind.DCT else config.candidate_count
    per_pixel = encode_window(window, transform, eval_count)
    descriptor = pack_descriptor(
        per_pixel,
        RetentionPolicy(config.budget),
        transform,
        window.geometry,
        window.t_start,
        window.duration,
        candidate_count=eval_count,
    )
    elapsed = time.perf_counter() - started
    snapshot = DensitySnapshot(
        window_index=window_index,
        density=density,
        regime=regime,
        transform=transform,
        event_count=len(window),
        encode_seconds=elapsed,
    )
    return descriptor, snapshot


def compress_stream(
    events: Sequence[Event],
    geometry: SensorGeometry,
    config: PipelineConfig,
    thresholds: DensityThresholds | None,
) -> tuple[list[WindowDescriptor], DecisionLog]:
    """Compress a sorted stream window by window.

    Returns descriptors in window order plus the decision log.  A failing
    window aborts the run with :class:`PipelineError` naming its index.
    """
    windows = windowize(events, config.window_duration, geometry)
    descriptors: list[WindowDescriptor] = []
    log = DecisionLog()
    for index, window in enumerate(windows):
        try:
            descriptor, snapshot = compress_window(window, config, thresholds, window_index=index)
        except EvCompressError as exc:
            raise PipelineError(f"window {index}: {exc}") from exc
        descriptors.append(descriptor)
        log.append(snapshot)
    return descriptors, log


@dataclass(frozen=True, slots=True)
class EncodeTimeStats:
    """Wall-time summary for one transform's windows, in milliseconds."""

    count: int
    mean_ms: float
    std_ms: float
    min_ms: float
    max_ms: float


@dataclass(frozen=True)
class MonitorSummary:
    """Aggregates over a decision log."""

    window_count: int
    sparse_count: int
    moderate_count: int
    dense_count: int
    density_mean: float
    density_min: float
    density_max: float
    encode_stats: dict[TransformKind, EncodeTimeStats]


def monitor_summary(log: DecisionLog) -> MonitorSummary:
    """Summarize a decision log; an empty log yields the zeroed summary."""
    snaps = log.snapshots
    if not snaps:
        return MonitorSummary(0, 0, 0, 0, 0.0, 0.0, 0.0, {})
    densities = np.array([s.density for s in snaps])
    counts = {regime: 0 for regime in Regime}
    for s in snaps:
        if s.regime is not None:
            counts[s.regime] += 1
    stats: dict[TransformKind, EncodeTimeStats] = {}
    for transform in TransformKind:
        times = np.array([s.encode_seconds for s in snaps if s.transform is transform]) * 1e3
        if times.size == 0:
            continue
        stats[transform] = EncodeTimeStats(
            count=times.size,
            mean_ms=float(times.mean()),
            std_ms=float(times.std()),
            min_ms=float(times.min()),
            max_ms=float(times.max()),
        )
    return MonitorSummary(
        window_count=len(snaps),
        sparse_count=counts[Regime.SPARSE],
        moderate_count=counts[Regime.MODERATE],
        dense_count=counts[Regime.DENSE],
        density_mean=float(densities.mean()),
        density_min=float(densities.min()),
        density_max=float(densities.max()),
        encode_stats=stats,
    )
