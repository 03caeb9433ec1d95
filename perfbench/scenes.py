"""Seeded event-stream generator for the benchmark workloads.

Every stream is made here with numpy from a seed, never with
``evcompress.emulate``, so that a change to the program cannot change its own
inputs.  The program only ever sees the files written by :func:`write_events`.

All streams use the 346x260 DAVIS346 geometry (the sensor of the MVSEC
recordings) and timestamps in whole microseconds.  Each workload's
per-window event counts are fixed quantiles of one distribution, placed in a
seed-dependent order, so that the split of windows between the three
transforms and the window sizes each transform sees are the same for every
seed; the seed changes the order of the windows and every event's time,
place and polarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

HEIGHT = 260
WIDTH = 346
EVENT_DTYPE = np.dtype([("t", "<f8"), ("x", "<u2"), ("y", "<u2"), ("p", "<i1")])
CSV_HEADER = "t,x,y,p"


@dataclass(frozen=True)
class Workload:
    name: str
    format: str  # "binary" or "csv", as read_events takes it
    window_us: int
    windows: int  # windows in the measured stream
    calibration_windows: int  # windows in the held-out calibration split
    budget: int = 16
    atoms: int = 64

    @property
    def window_s(self) -> float:
        return self.window_us / 1e6


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flicker", "binary", window_us=10_000, windows=120, calibration_windows=40),
        Workload("background", "binary", window_us=20_000, windows=100, calibration_windows=40),
        Workload("bursty-csv", "csv", window_us=20_000, windows=100, calibration_windows=40),
    )
}
_WORKLOAD_IDS = {"flicker": 1, "background": 2, "bursty-csv": 3}
_SPLIT_IDS = {"stream": 0, "calibration": 1}


class Events:
    """Struct-of-arrays event stream, sorted by time (stable)."""

    def __init__(self, t_us: np.ndarray, x: np.ndarray, y: np.ndarray, p: np.ndarray):
        order = np.argsort(t_us, kind="stable")
        self.t_us = t_us[order].astype(np.int64)
        self.x = x[order].astype(np.int64)
        self.y = y[order].astype(np.int64)
        self.p = p[order].astype(np.int64)

    @property
    def t(self) -> np.ndarray:
        """Seconds as the file holds them: the double nearest to ``t_us / 1e6``."""
        return self.t_us / 1e6

    def __len__(self) -> int:
        return int(self.t_us.shape[0])


def _rng(workload: str, seed: int, split: str) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_IDS[workload], _SPLIT_IDS[split]])


def _levels(n: int, quantile, rng: np.random.Generator) -> np.ndarray:
    """The ``n`` mid-quantiles of a fixed distribution, in a random order."""
    return rng.permutation(quantile((np.arange(n) + 0.5) / n))


def _lognormal_quantile(sigma: float):
    inv = np.vectorize(NormalDist().inv_cdf)
    return lambda u: np.exp(sigma * inv(u))


def _noise(rng, n: int, t0: int, span_us: int):
    """``n`` background-activity events: uniform in time and place, random polarity."""
    return (t0 + rng.integers(0, span_us, n), rng.integers(0, WIDTH, n), rng.integers(0, HEIGHT, n),
            rng.choice([-1, 1], n))


def _hot_pixels(rng, t0: int, span_us: int):
    """Four hot pixels firing six ON events each per window, as real sensors have.

    They also pin the frames' dynamic range, which MSE and SSIM normalise by.
    """
    xs, ys = np.array([17, 101, 230, 333]), np.array([12, 200, 64, 241])
    n = 6 * xs.size
    return t0 + rng.integers(0, span_us, n), np.repeat(xs, 6), np.repeat(ys, 6), np.ones(n, np.int64)


def _stack(parts) -> Events:
    return Events(*(np.concatenate(c) for c in zip(*parts)))


def _flicker(w: Workload, n_windows: int, rng) -> Events:
    # A 16x16 LED blob flickering at 400 Hz over weak background activity.
    # Each blob event follows one on (+1) or off (-1) edge of the flicker
    # with an exponential latency; a window's blob event count follows its
    # brightness level.
    levels = _levels(n_windows, _lognormal_quantile(0.5), rng)
    half_period, x0, y0, side = 1_250, 165, 120, 16
    phase = 300  # fixed, so that every seed sees the edges at the same window times
    parts = []
    for k, level in enumerate(levels):
        t0 = k * w.window_us
        first = -(-(t0 - phase) // half_period)  # first edge at or after t0
        edges = np.arange(first, first + w.window_us // half_period)
        n = round(9_000 * level)
        edge = rng.choice(edges, n)
        pix = rng.integers(0, side * side, n)
        t = phase + edge * half_period + np.floor(rng.exponential(120.0, n)).astype(np.int64)
        t = t0 + (t - t0) % w.window_us  # latency that crosses the window end wraps round
        parts.append((t, x0 + pix % side, y0 + pix // side, np.where(edge % 2 == 0, 1, -1)))
        parts.append(_noise(rng, 90, t0, w.window_us))
    return _stack(parts)


def _background(w: Workload, n_windows: int, rng) -> Events:
    # Background-activity noise over the whole sensor, its rate following a
    # per-window level, plus a brightening edge sweeping across x at 40 px/s
    # (one event per pixel it passes, mostly), and hot pixels.
    levels = _levels(n_windows, _lognormal_quantile(0.5), rng)
    x_start, speed_px_us = int(rng.integers(0, WIDTH)), 40e-6
    parts = []
    for k, level in enumerate(levels):
        t0 = k * w.window_us
        parts.append(_noise(rng, round(1_000 * level), t0, w.window_us))
        parts.append(_hot_pixels(rng, t0, w.window_us))
        t = t0 + rng.integers(0, w.window_us, 250)
        x = (x_start + np.floor(speed_px_us * t).astype(np.int64)) % WIDTH
        parts.append((t, x, rng.integers(0, HEIGHT, 250), np.ones(250, np.int64)))
    return _stack(parts)


def _bursty(w: Workload, n_windows: int, rng) -> Events:
    # Quiet stretches (background activity only) broken by bursts of motion:
    # a ring-shaped object whose edge fires events, its activity spanning two
    # decades, over hot pixels.  Burst levels rise to a peak and fall back;
    # the seed decides the order of the bursts and the gaps between them.
    n_quiet = round(0.25 * n_windows)  # so quiet windows are the sparse quarter
    n_burst = n_windows - n_quiet
    quiet_levels = 0.6 + 0.8 * (np.arange(n_quiet) + 0.5) / n_quiet  # background rate only
    burst_levels = 2.0 * 50.0 ** ((np.arange(n_burst) + 0.5) / n_burst)  # log-uniform in [2, 100]
    sizes = np.full(n_burst // 8, 8)
    sizes[: n_burst - sizes.sum()] += 1
    chunks = np.split(rng.permutation(burst_levels), np.cumsum(sizes)[:-1])
    bursts = []
    for chunk in chunks:
        up = np.sort(chunk)
        bursts.append(np.concatenate([up[0::2], up[1::2][::-1]]))  # rise then fall
    # quiet windows before each burst and after the last: stars and bars
    cuts = np.sort(rng.choice(n_quiet + len(bursts), len(bursts), replace=False))
    gaps = np.diff(cuts, prepend=-1) - 1
    quiet = list(rng.permutation(quiet_levels))
    levels: list[float] = []
    for g, b in zip(gaps, rng.permutation(len(bursts))):
        levels.extend(quiet[:g])
        del quiet[:g]
        levels.extend(bursts[b])
    levels.extend(quiet)

    parts = []
    radius = 15.0
    angle = float(rng.uniform(0, 2 * np.pi))
    for k, level in enumerate(levels):
        t0 = k * w.window_us
        parts.append(_hot_pixels(rng, t0, w.window_us))
        if level < 2.0:
            parts.append(_noise(rng, round(200 * level), t0, w.window_us))
            continue
        parts.append(_noise(rng, 200, t0, w.window_us))
        n = round(200 * level)
        frac = rng.random(n)
        # the centre travels round the sensor middle, faster when busier
        phi = angle + 0.004 * level * frac
        angle += 0.004 * level
        cx, cy = WIDTH / 2 + 90.0 * np.cos(phi), HEIGHT / 2 + 70.0 * np.sin(phi)
        theta = rng.uniform(0, 2 * np.pi, n)
        r = radius + rng.normal(0.0, 1.0, n)
        x = np.clip(np.floor(cx + r * np.cos(theta)), 0, WIDTH - 1).astype(np.int64)
        y = np.clip(np.floor(cy + r * np.sin(theta)), 0, HEIGHT - 1).astype(np.int64)
        # the leading half of the edge brightens, the trailing half darkens
        p = np.where(np.cos(theta - phi - np.pi / 2) >= 0.0, 1, -1)
        parts.append((t0 + np.floor(frac * w.window_us).astype(np.int64), x, y, p))
    return _stack(parts)


_SCENES = {"flicker": _flicker, "background": _background, "bursty-csv": _bursty}


def make_events(workload: str, seed: int, split: str) -> Events:
    """The stream (``split="stream"``) or calibration split of a workload."""
    w = WORKLOADS[workload]
    n = w.windows if split == "stream" else w.calibration_windows
    return _SCENES[workload](w, n, _rng(workload, seed, split))


def write_events(events: Events, path: Path, fmt: str) -> None:
    """Write the records exactly as the program's README documents them."""
    if fmt == "binary":
        rec = np.empty(len(events), dtype=EVENT_DTYPE)
        rec["t"], rec["x"], rec["y"], rec["p"] = events.t, events.x, events.y, events.p
        path.write_bytes(rec.tobytes())
        return
    sec, usec = np.divmod(events.t_us, 1_000_000)
    rows = [f"{s}.{u:06d},{x},{y},{p}" for s, u, x, y, p in
            zip(sec.tolist(), usec.tolist(), events.x.tolist(), events.y.tolist(), events.p.tolist())]
    path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
