"""Independent checks of everything one benchmark run produced.

Nothing here calls the program's evaluation paths, and nothing compares
against a stored copy of earlier output.  Expected values come from the
generator's own arrays and from the definitions in the program's README and
module docstrings, computed another way with numpy:

* ingest: the events read back equal the generated arrays, and window ``k``
  holds exactly the events with ``k*T <= t < (k+1)*T``;
* selection: the thresholds are ``np.percentile(..., [25, 75])`` of the
  benchmark's own densities ``N / (H*W*T)`` on the calibration split, and
  each descriptor's transform is the one the regime rule gives;
* coefficients: on a seeded sample of pixels in every window, the retained
  values equal the closed-form sums to float32 rounding; DCT keeps exactly
  positions ``0 .. r-1``; DTFT and DWT keep the ``r`` largest magnitudes of
  the full 64-atom vector, ties to the lower position, no zeros;
* exact ties: in every DTFT window, each pixel whose events all share one
  time (a single event, most often) has all 64 moduli equal to ``|sum p|``,
  so it must keep exactly positions ``0 .. r-1``;
* decode: every descriptor, just after its pass wrote it, equals its file as
  this module parses it with the values rounded to float32
  (:func:`written_matches_file`); ``read_descriptor`` returns what the file
  holds, and ``to_dense_tensor`` holds each pixel's real parts in channel
  order;
* evaluate: on DCT windows the reconstructed frame equals the net-polarity
  frame; on the evaluated windows, MSE, SSIM and EMD recomputed from the
  benchmark's own frames, histograms and closed-form inverse agree with the
  program's (tolerances below);
* every pass wrote the same bytes and scored the same metrics.

Where floating-point evaluation order differs between the program and the
closed forms, comparisons allow ``VALUE_RTOL`` relative (one float32
rounding) plus ``SUM_ATOL`` times ``sum |p| * max |atom|`` (rounding
accumulated over the events and along the program's recurrences).  In the
sampled pixels, magnitudes closer than that are treated as ties that may go
either way, except where both values are exact in binary (Haar atoms of even
scale and the DC atom), where the lower position must win; the exact-tie
check above covers the DTFT ties that are provable.

A failed check is charged to the window whose output it concerns.  The
exact-tie check fails through a known fault of ``prune_magnitude`` (it ranks
the program's rounding noise), on every DTFT window of every workload; it is
counted as failed but is ``known``, so it does not make the run incorrect.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct
from pathlib import Path

import numpy as np

import scenes

VALUE_RTOL = 2.0**-24  # one float32 rounding
SUM_ATOL = 1e-9  # per unit of sum |p| * max |atom|
METRIC_RTOL = 1e-8
METRIC_ATOL = 1e-12
COEFF_SAMPLE = 16  # pixels per window whose coefficients are recomputed
SSIM_WINDOW, SSIM_SIGMA, SSIM_K1, SSIM_K2 = 11, 1.5, 0.01, 0.03

DWT, DTFT, DCT = 0, 1, 2  # on-disk transform codes
_HEADER = struct.Struct("<4sBBHHddHHI")
_PIXEL = struct.Struct("<HHH")


class Verdict:
    def __init__(self):
        self.failed_windows: set[int] = set()
        self.run_failures: list[str] = []  # failures that no single window owns
        self.unexpected: list[str] = []
        self.known: list[str] = []  # failures through a fault named in the module docstring

    def check(self, ok: bool, what: str, window: int | None = None, known: bool = False) -> bool:
        if not ok:
            if window is None:
                self.run_failures.append(what)
            else:
                self.failed_windows.add(window)
            (self.known if known else self.unexpected).append(what)
        return ok


@dataclasses.dataclass
class Parsed:
    """A descriptor file as this module reads it, independent of the program."""

    transform: int
    height: int
    width: int
    t_start: float
    duration: float
    budget: int
    candidates: int
    pixel_ids: np.ndarray  # y * W + x, in file order
    counts: np.ndarray
    positions: np.ndarray
    values: np.ndarray  # float64, or complex128 for DTFT; exactly the stored float32s


def parse_descriptor(blob: bytes) -> Parsed:
    magic, version, code, h, w, t0, dur, budget, cands, n_pix = _HEADER.unpack_from(blob, 0)
    if magic != b"EECV" or version != 1 or code not in (DWT, DTFT, DCT):
        raise ValueError(f"bad descriptor header {magic!r} v{version} code {code}")
    entry = np.dtype([("pos", "<u2"), ("re", "<f4"), ("im", "<f4")] if code == DTFT
                     else [("pos", "<u2"), ("re", "<f4")])
    offset = _HEADER.size
    ids, counts, chunks = [], [], []
    for _ in range(n_pix):
        x, y, r = _PIXEL.unpack_from(blob, offset)
        offset += _PIXEL.size
        chunks.append(np.frombuffer(blob, entry, r, offset))
        offset += r * entry.itemsize
        ids.append(y * w + x)
        counts.append(r)
    if offset != len(blob):
        raise ValueError(f"{len(blob) - offset} bytes after the last pixel")
    entries = np.concatenate(chunks) if chunks else np.zeros(0, entry)
    values = entries["re"].astype(np.float64)
    if code == DTFT:
        values = values + 1j * entries["im"].astype(np.float64)
    return Parsed(code, h, w, t0, dur, budget, cands, np.asarray(ids, np.int64),
                  np.asarray(counts, np.int64), entries["pos"].astype(np.int64), values)


# --------------------------------------------------------------------------
# closed forms


def haar_scale(positions) -> np.ndarray:
    """Scale ``j`` of each Haar position ``2^j + m`` (the DC position 0 gets 0)."""
    return np.array([max(int(p).bit_length() - 1, 0) for p in np.ravel(positions)], np.int64)


def haar(positions: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Haar atoms on [0, 1): DC at 0, then position 2^j + m is scale j, shift m."""
    positions = np.asarray(positions, np.int64)
    j = haar_scale(positions)
    m = positions - (1 << j)
    u = taus[None, :] * (1 << j)[:, None] - m[:, None]
    amp = (2.0 ** (j / 2.0))[:, None]
    out = np.where((u >= 0.0) & (u < 0.5), amp, 0.0) - np.where((u >= 0.5) & (u < 1.0), amp, 0.0)
    out[positions == 0] = 1.0
    return out


def atoms(transform: int, positions: np.ndarray, taus: np.ndarray) -> np.ndarray:
    k = np.asarray(positions, np.float64)[:, None]
    if transform == DCT:
        return np.cos(np.pi * k * taus[None, :])
    if transform == DTFT:
        angle = 2.0 * np.pi * k * taus[None, :]
        return np.cos(angle) - 1j * np.sin(angle)
    return haar(positions, taus)


def exact_in_binary(transform: int, positions: np.ndarray) -> np.ndarray:
    """Positions whose sums are exact in any order: DC, and Haar atoms of even scale."""
    positions = np.asarray(positions)
    if transform != DWT:
        return positions == 0
    return (positions == 0) | (haar_scale(positions) % 2 == 0)


def _grid_tables(samples: int):
    taus = (np.arange(samples) + 0.5) / samples
    k = np.arange(64, dtype=np.float64)[:, None]
    return {
        DCT: np.cos(np.pi * k * taus),
        DTFT: (np.cos(2 * np.pi * k * taus), np.sin(2 * np.pi * k * taus)),
        DWT: haar(np.arange(64), taus),
    }


def reconstruct(parsed: Parsed, tables) -> np.ndarray:
    """Per-pixel signals on the midpoint grid, by the inverse in reconstruct.py's docstring."""
    if parsed.pixel_ids.size == 0:
        return np.zeros((0, tables[DCT].shape[1]))
    pos = parsed.positions
    weight = np.ones(pos.shape[0]) if parsed.transform == DWT else np.where(pos == 0, 1.0, 2.0)
    if parsed.transform == DTFT:
        cos, sin = tables[DTFT]
        rows = parsed.values.real[:, None] * cos[pos] - parsed.values.imag[:, None] * sin[pos]
    else:
        rows = parsed.values[:, None] * tables[parsed.transform][pos]
    rows *= weight[:, None]
    starts = np.concatenate([[0], np.cumsum(parsed.counts)[:-1]])
    signals = np.zeros((parsed.counts.shape[0], rows.shape[1]))
    has = parsed.counts > 0
    signals[has] = np.add.reduceat(rows, starts[has], axis=0)
    return signals


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Gaussian SSIM with a separable filter, valid region only."""
    c = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(c**2) / (2.0 * SSIM_SIGMA**2))
    g /= g.sum()
    view = np.lib.stride_tricks.sliding_window_view

    def blur(img):
        return view(view(img, SSIM_WINDOW, axis=0) @ g, SSIM_WINDOW, axis=1) @ g

    peak = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    c1, c2 = (SSIM_K1 * peak) ** 2, (SSIM_K2 * peak) ** 2
    mu_a, mu_b = blur(a), blur(b)
    var_a = blur(a * a) - mu_a**2
    var_b = blur(b * b) - mu_b**2
    cov = blur(a * b) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def mse(a: np.ndarray, b: np.ndarray) -> float:
    peak = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.mean(((a - b) / peak) ** 2))


def emd(a: np.ndarray, b: np.ndarray) -> float:
    if a.sum() == 0 and b.sum() == 0:
        return 0.0
    return float(np.abs(np.cumsum(a / a.sum()) - np.cumsum(b / b.sum())).sum() / a.shape[0])


def _close(prog: float, mine: float) -> bool:
    return abs(prog - mine) <= METRIC_RTOL * abs(mine) + METRIC_ATOL


# --------------------------------------------------------------------------
# windows as the generator defines them


def window_bounds(t: np.ndarray, duration: float) -> list[tuple[int, int, int]]:
    """``(k, lo, hi)``: events ``lo:hi`` are those with ``k*T <= t < (k+1)*T``."""
    if t.size == 0:
        return []

    def index_of(x):
        k = math.floor(x / duration)
        while k * duration > x:
            k -= 1
        while (k + 1) * duration <= x:
            k += 1
        return k

    first, last = index_of(float(t[0])), index_of(float(t[-1]))
    edges = np.array([k * duration for k in range(first, last + 2)])
    cut = np.searchsorted(t, edges, side="left")
    return [(k, int(cut[i]), int(cut[i + 1])) for i, k in enumerate(range(first, last + 1))]


def _same_events(events, stream, lo: int, hi: int) -> bool:
    """Whether a sequence of the program's events equals generated events ``lo:hi``."""
    if len(events) != hi - lo:
        return False
    for field, want in (("t", stream.t), ("x", stream.x), ("y", stream.y), ("p", stream.p)):
        got = np.fromiter((getattr(e, field) for e in events), np.float64, len(events))
        if not np.array_equal(got, want[lo:hi]):
            return False
    return True


def expected_transform(density: float, tau_low: float, tau_high: float) -> int:
    if density < tau_low:
        return DWT
    if density < tau_high:
        return DTFT
    return DCT


# --------------------------------------------------------------------------


def check_run(ec, workload, seed, passes, thresholds, grid) -> Verdict:
    """Check the last pass's events, windows and files, and the first pass's metrics."""
    v = Verdict()
    last = passes[-1]
    reports = passes[0].reports
    stream = scenes.make_events(workload.name, seed, "stream")
    calib = scenes.make_events(workload.name, seed, "calibration")
    T = workload.window_s
    pixels = scenes.HEIGHT * scenes.WIDTH
    t_all = stream.t

    # ingest ---------------------------------------------------------------
    v.check(_same_events(last.events, stream, 0, len(stream)),
            "ingest: events read back differ from the generated ones")
    bounds = window_bounds(t_all, T)
    if not v.check(len(bounds) == len(last.windows),
                   f"ingest: {len(last.windows)} windows, expected {len(bounds)}"):
        return v
    for index, ((k, lo, hi), window) in enumerate(zip(bounds, last.windows)):
        v.check(window.t_start == k * T and window.duration == T and _same_events(window.events, stream, lo, hi),
                f"ingest: window {k} does not hold exactly the events of [kT, (k+1)T)", index)

    # selection --------------------------------------------------------------
    cal_counts = [hi - lo for _, lo, hi in window_bounds(calib.t, T)]
    tau_low, tau_high = np.percentile([n / (pixels * T) for n in cal_counts], [25, 75])
    v.check(thresholds.tau_low == tau_low and thresholds.tau_high == tau_high,
            f"selection: thresholds ({thresholds.tau_low!r}, {thresholds.tau_high!r}) "
            f"!= percentiles ({tau_low!r}, {tau_high!r})")

    tables = _grid_tables(grid.samples)
    rng = np.random.default_rng([seed, 7])
    r = min(workload.budget, workload.atoms)
    prog_means = []
    mine_means = []
    for index, ((k, lo, hi), path) in enumerate(zip(bounds, last.paths)):
        if not path.exists() or reports.get(index, ()) is None:
            continue  # counted as a failed operation already
        blob = path.read_bytes()
        try:
            parsed = parse_descriptor(blob)
        except (ValueError, struct.error) as exc:
            v.check(False, f"window {index}: descriptor file does not parse: {exc}", index)
            continue
        density = (hi - lo) / (pixels * T)
        want = expected_transform(density, tau_low, tau_high)
        v.check(parsed.transform == want,
                f"selection: window {index} density {density!r} got transform {parsed.transform}, want {want}", index)
        w = _WindowTruth(stream, lo, hi, k * T, T)
        _check_coefficients(v, index, parsed, w, workload, r, rng)
        if parsed.transform == DTFT:
            _check_exact_ties(v, index, parsed, w, r)
        descriptor = _check_decode(v, ec, index, path, parsed)
        mine = _check_evaluate(v, ec, index, parsed, descriptor, w, tables, grid, reports.get(index))
        if mine is not None:
            prog_means.append(reports[index])
            mine_means.append(mine)

    if mine_means:
        prog = np.mean(prog_means, axis=0)
        mine = np.mean(mine_means, axis=0)
        for name, a, b in zip(("mse", "ssim", "emd"), prog, mine):
            v.check(_close(float(a), float(b)), f"evaluate: mean {name} {a!r} != recomputed {b!r}")

    # every pass wrote what it held, and the same bytes as the last pass -------
    for number, p in enumerate(passes):
        for index in sorted(p.unfaithful):
            v.check(False, f"decode: pass {number} window {index}: file is not the written descriptor "
                           "rounded to float32", index)
    for number, p in enumerate(passes[:-1]):
        for index, (a, b) in enumerate(zip(p.paths, last.paths)):
            v.check(a.exists() and b.exists() and a.read_bytes() == b.read_bytes(),
                    f"pass {number} window {index}: descriptor differs from the last pass's", index)
    return v


class _WindowTruth:
    """One window of the generated stream: its events by pixel, and times."""

    def __init__(self, stream, lo, hi, t_start, duration):
        self.x = stream.x[lo:hi]
        self.y = stream.y[lo:hi]
        self.p = stream.p[lo:hi].astype(np.float64)
        self.tau = (stream.t[lo:hi] - t_start) / duration
        self.ids = self.y * scenes.WIDTH + self.x
        self.active = np.unique(self.ids)
        self.t_start = t_start

    def coefficients(self, transform, pixel_id, count):
        """Closed-form coefficients of one pixel, and the bound sum |p| * max|atom| per position."""
        sel = self.ids == pixel_id
        positions = np.arange(count)
        phi = atoms(transform, positions, self.tau[sel])
        amplitude = 2.0 ** (haar_scale(positions) / 2.0) if transform == DWT else 1.0
        return phi @ self.p[sel], np.abs(self.p[sel]).sum() * amplitude * np.ones(count)

    def net_frame(self):
        frame = np.zeros((scenes.HEIGHT, scenes.WIDTH))
        np.add.at(frame, (self.y, self.x), self.p)
        return frame

    def time_histogram(self, bins):
        idx = np.clip(np.floor(self.tau * bins).astype(np.int64), 0, bins - 1)
        return np.bincount(idx, minlength=bins).astype(np.float64)


def _check_coefficients(v, index, parsed, w, workload, r, rng):
    check = functools.partial(v.check, window=index)
    where = f"coefficients: window {index}"
    check(parsed.height == scenes.HEIGHT and parsed.width == scenes.WIDTH
            and parsed.t_start == w.t_start and parsed.duration == workload.window_s
            and parsed.budget == workload.budget, f"{where}: header fields differ from the window")
    ok_order = bool(np.all(np.diff(parsed.pixel_ids) > 0))
    missing = np.setdiff1d(w.active, parsed.pixel_ids)
    extra = np.setdiff1d(parsed.pixel_ids, w.active)
    check(ok_order and extra.size == 0, f"{where}: pixels out of order or not active")
    count = r if parsed.transform == DCT else workload.atoms
    if parsed.transform != DCT:
        check(parsed.candidates == workload.atoms, f"{where}: {parsed.candidates} candidate atoms")
    for pid in missing[:4].tolist():  # an absent pixel must have an all-zero vector
        coeffs, scale = w.coefficients(parsed.transform, pid, count)
        check(bool(np.all(np.abs(coeffs) <= SUM_ATOL * scale)), f"{where}: active pixel {pid} dropped")
    if parsed.transform == DCT:
        check(bool(np.all(parsed.counts == r))
                and np.array_equal(parsed.positions, np.tile(np.arange(r), parsed.counts.shape[0])),
                f"{where}: DCT does not keep exactly positions 0..{r - 1}")
    else:
        check(bool(np.all(parsed.counts <= r)), f"{where}: more than {r} coefficients kept")
    if parsed.pixel_ids.size == 0:
        return
    starts = np.concatenate([[0], np.cumsum(parsed.counts)[:-1]])
    sample = {0, int(np.argmax(parsed.counts))}
    sample.update(rng.choice(parsed.pixel_ids.size, min(COEFF_SAMPLE, parsed.pixel_ids.size), replace=False).tolist())
    for row in sorted(sample):
        pid = int(parsed.pixel_ids[row])
        s, n = int(starts[row]), int(parsed.counts[row])
        pos = parsed.positions[s:s + n]
        kept = parsed.values[s:s + n]
        full, scale = w.coefficients(parsed.transform, pid, count)
        problem = _pixel_problem(parsed.transform, pos, kept, full, scale, r)
        check(problem is None, f"{where} pixel {pid}: {problem}")


def _check_exact_ties(v, index, parsed, w, r):
    """Pixels whose events share one time must keep positions ``0 .. r-1``."""
    order = np.argsort(w.ids, kind="stable")
    ids, tau, p = w.ids[order], w.tau[order], w.p[order]
    first = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    one_time = np.minimum.reduceat(tau, first) == np.maximum.reduceat(tau, first)
    tied = ids[first][one_time & (np.add.reduceat(p, first) != 0)]
    rows = np.searchsorted(parsed.pixel_ids, tied)
    present = rows < parsed.pixel_ids.size
    present[present] = parsed.pixel_ids[rows[present]] == tied[present]
    starts = np.cumsum(parsed.counts) - parsed.counts
    good = present.copy()
    good[present] = parsed.counts[rows[present]] == r
    for j in np.flatnonzero(good):
        s = starts[rows[j]]
        good[j] = np.array_equal(parsed.positions[s:s + r], np.arange(r))
    v.check(bool(good.all()),
            f"exact ties: window {index}: {int((~good).sum())} of {tied.size} pixels whose events share one time "
            f"do not keep positions 0..{r - 1}", index, known=True)


def _pixel_problem(transform, pos, kept, full, scale, r):
    """Why a pixel's retained coefficients are wrong, or None."""
    if np.unique(pos).size != pos.size or np.any(pos >= full.size):
        return f"positions {pos.tolist()} repeat or leave the grid"
    tol = SUM_ATOL * scale
    mine = full[pos]
    for part in ((np.real,) if transform != DTFT else (np.real, np.imag)):
        err = np.abs(part(kept) - part(mine))
        if np.any(err > VALUE_RTOL * np.abs(part(mine)) + tol[pos]):
            i = int(np.argmax(err - VALUE_RTOL * np.abs(part(mine)) - tol[pos]))
            return f"value at position {int(pos[i])} is {kept[i]!r}, closed form gives {mine[i]!r}"
    if transform == DCT:
        return None
    if np.any(kept == 0):
        return "an exact zero was kept"
    mag = np.abs(full)
    exact = exact_in_binary(transform, np.arange(full.size))
    dropped = np.setdiff1d(np.arange(full.size), pos)
    if pos.size < r and np.any(mag[dropped] > tol[dropped]):
        return f"kept {pos.size} < {r} while nonzero coefficients were dropped"
    for a, b in zip(pos[:-1], pos[1:]):
        if mag[a] < mag[b] - tol[a] - tol[b]:
            return f"position {int(a)} (|c|={mag[a]!r}) stored before larger position {int(b)} (|c|={mag[b]!r})"
        if mag[a] == mag[b] and exact[a] and exact[b] and a > b:
            return f"tie between positions {int(b)} and {int(a)} not ordered to the lower position"
    if pos.size:
        weakest = pos[np.argmin(mag[pos])]
        for j in dropped.tolist():
            if mag[j] > mag[weakest] + tol[j] + tol[weakest]:
                return f"dropped position {j} (|c|={mag[j]!r}) is larger than kept {int(weakest)}"
            for i in pos.tolist():
                if mag[j] == mag[i] and exact[i] and exact[j] and j < i:
                    return f"tie between kept {i} and dropped lower position {j}"
    return None


def _check_decode(v, ec, index, path, parsed):
    check = functools.partial(v.check, window=index)
    where = f"decode: window {index}"
    descriptor = ec.io.read_descriptor(path)
    items = list(descriptor.pixels.items())
    ids = np.array([y * scenes.WIDTH + x for (x, y), _ in items], np.int64)
    positions = np.array([rc.index.position for _, ret in items for rc in ret], np.int64)
    values = np.array([rc.value for _, ret in items for rc in ret],
                      np.complex128 if parsed.transform == DTFT else np.float64)
    check(int(descriptor.transform) == parsed.transform and descriptor.t_start == parsed.t_start
            and descriptor.duration == parsed.duration and descriptor.budget == parsed.budget
            and descriptor.candidate_count == parsed.candidates
            and np.array_equal(ids, parsed.pixel_ids)
            and np.array_equal(positions, parsed.positions) and np.array_equal(values, parsed.values),
            f"{where}: read_descriptor differs from the file's bytes")

    dense = ec.pruning.to_dense_tensor(descriptor)
    want = np.zeros((parsed.height, parsed.width, parsed.budget))
    rows = np.repeat(parsed.pixel_ids, parsed.counts)
    chan = np.arange(parsed.positions.size) - np.repeat(np.cumsum(parsed.counts) - parsed.counts, parsed.counts)
    want[rows // parsed.width, rows % parsed.width, chan] = parsed.values.real
    check(dense.values.shape == want.shape and np.array_equal(dense.values, want),
            f"{where}: to_dense_tensor does not hold the real parts in channel order")
    return descriptor


def written_matches_file(descriptor, path: Path) -> bool:
    """Whether a descriptor as the program wrote it is its file with values rounded to float32."""
    try:
        parsed = parse_descriptor(path.read_bytes())
    except (OSError, ValueError, struct.error):
        return False
    items = list(descriptor.pixels.items())
    values = np.array([rc.value for _, ret in items for rc in ret],
                      np.complex128 if parsed.transform == DTFT else np.float64)
    narrow = np.complex64 if parsed.transform == DTFT else np.float32
    with np.errstate(over="ignore"):
        rounded = values.astype(narrow).astype(values.dtype)
    return (int(descriptor.transform) == parsed.transform and descriptor.t_start == parsed.t_start
            and descriptor.duration == parsed.duration and descriptor.budget == parsed.budget
            and descriptor.candidate_count == parsed.candidates
            and np.array_equal([y * parsed.width + x for (x, y), _ in items], parsed.pixel_ids)
            and np.array_equal([len(ret) for _, ret in items], parsed.counts)
            and np.array_equal([rc.index.position for _, ret in items for rc in ret], parsed.positions)
            and np.array_equal(rounded, parsed.values))


def _check_evaluate(v, ec, index, parsed, descriptor, w, tables, grid, report):
    """The DCT frame on every DCT window; metrics recomputed where the window was evaluated."""
    check = functools.partial(v.check, window=index)
    where = f"evaluate: window {index}"
    original = w.net_frame()
    if parsed.transform == DCT:
        # DC is always kept and the midpoint grid preserves it exactly
        rendered = ec.reconstruct.render_reconstructed_frame(descriptor, grid)
        slack = np.zeros_like(original)
        slack.flat[parsed.pixel_ids] = np.add.reduceat(np.abs(parsed.values), np.cumsum(parsed.counts) - parsed.counts)
        check(bool(np.all(np.abs(rendered - original) <= SUM_ATOL * (1.0 + slack))),
              f"{where}: DCT frame differs from the net-polarity frame")
    if report is None:
        return None
    signals = reconstruct(parsed, tables)
    frame = np.zeros_like(original)
    frame.flat[parsed.pixel_ids] = signals.mean(axis=1)
    hist = np.abs(signals).sum(axis=0) if signals.size else np.zeros(grid.samples)
    mine = (mse(original, frame), ssim(original, frame), emd(w.time_histogram(grid.samples), hist))
    for name, a, b in zip(("mse", "ssim", "emd"), report, mine):
        check(_close(a, b), f"{where}: {name} {a!r} != recomputed {b!r}")
    return mine


# --------------------------------------------------------------------------
# deliberate damage, to show that the checks above fire


def _pixel_offsets(blob: bytes) -> list[int]:
    code = blob[5]
    size = 10 if code == DTFT else 6
    offsets, offset = [], _HEADER.size
    for _ in range(_HEADER.unpack_from(blob, 0)[-1]):
        offsets.append(offset)
        offset += _PIXEL.size + _PIXEL.unpack_from(blob, offset)[2] * size
    return offsets


def _rewrite(path: Path, edit) -> None:
    blob = bytearray(path.read_bytes())
    edit(blob)
    path.write_bytes(bytes(blob))


def _change_value(passes, ec):
    last = passes[-1]
    def edit(blob):  # first retained value of the first pixel of window 0
        offset = _HEADER.size + _PIXEL.size + 2
        (value,) = struct.unpack_from("<f", blob, offset)
        struct.pack_into("<f", blob, offset, value * 1.5 + 1.0)
    _rewrite(last.paths[0], edit)


def _drop_pixel(passes, ec):
    last = passes[-1]
    def edit(blob):  # the last pixel record of window 1
        cut = _pixel_offsets(bytes(blob))[-1]
        struct.pack_into("<I", blob, _HEADER.size - 4, _HEADER.unpack_from(blob, 0)[-1] - 1)
        del blob[cut:]
    _rewrite(last.paths[1], edit)


def _swap_transform(passes, ec):
    last = passes[-1]
    index = next(i for i, t in enumerate(last.transforms) if t is not None and int(t) in (DWT, DCT))
    def edit(blob):  # DWT <-> DCT: both store real entries, so the file still parses
        blob[5] = DCT if blob[5] == DWT else DWT
    _rewrite(last.paths[index], edit)


def _flip_event(passes, ec):
    last = passes[-1]
    middle = len(last.events) // 2
    event = last.events[middle]
    last.events[middle] = dataclasses.replace(event, p=-event.p)


def _drop_event(passes, ec):
    last = passes[-1]
    window = next(w for w in last.windows[3:] if len(w.events))
    object.__setattr__(window, "events", window.events[:-1])


def _change_report(passes, ec):
    reports = passes[0].reports
    index = min(reports)
    mse_, ssim_, emd_ = reports[index]
    reports[index] = (mse_ * 1.5 + 1e-6, ssim_, emd_)


def _corrupt_writer(passes, ec):
    """From now on, window 2's file gets its last stored float changed after the program writes it."""
    write = ec.io.write_descriptor

    def corrupted(descriptor, path, *args, **kwargs):
        result = write(descriptor, path, *args, **kwargs)
        if Path(path).name == "window_000002.eecv":
            _rewrite(Path(path), lambda blob: struct.pack_into(
                "<f", blob, len(blob) - 4, struct.unpack_from("<f", blob, len(blob) - 4)[0] * 1.5 + 1.0))
        return result

    ec.io.write_descriptor = corrupted


BEFORE_PASSES = {"writer"}  # damage done to the program itself, before anything runs
CORRUPTIONS = {
    "writer": _corrupt_writer,
    "value": _change_value,
    "pixel": _drop_pixel,
    "transform": _swap_transform,
    "event": _flip_event,
    "window": _drop_event,
    "metric": _change_report,
}


def corrupt(kind: str, passes, ec) -> None:
    CORRUPTIONS[kind](passes, ec)
