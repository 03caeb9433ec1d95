"""Event-file ingestion, descriptor serialization, and the synthetic emulator.

Event files come in two shapes:

* CSV with header ``t,x,y,p``: ``t`` in decimal seconds, ``p`` in
  ``{-1, 1}`` or ``{0, 1}`` (0 maps to -1, the common dataset convention).
* A flat little-endian binary mirror of the same fields:
  ``f64 t, u16 x, u16 y, i8 p`` per record.

:func:`read_events` and :func:`emulate` return an
:class:`~evcompress.events.EventArray`: the binary file is viewed as a record
array and the CSV parsed by numpy, with every check made on whole columns.

Descriptor files carry a fixed header (magic ``EECV``, version 1) followed
by per-pixel retained-coefficient records; see :func:`write_descriptor` for
the exact byte layout.  Values are stored as f32 while all accumulation
upstream is f64: the quantization (<= 2^-24 relative) sits far below every
metric tolerance and halves the payload.  Readers reject unknown magic or
version, truncation, and trailing bytes, naming the byte offset.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .calibration import TransformKind
from .errors import ConfigurationError, FormatError, ParseError, ValidationError
from .events import Event, EventArray, SensorGeometry
from .pruning import WindowDescriptor
from .transforms import AtomGrid

__all__ = [
    "EmulatorConfig",
    "EVENT_CSV_HEADER",
    "read_events",
    "write_events",
    "read_descriptor",
    "write_descriptor",
    "emulate",
]

EVENT_CSV_HEADER = "t,x,y,p"
_EVENT_RECORD = np.dtype([("t", "<f8"), ("x", "<u2"), ("y", "<u2"), ("p", "<i1")])
_CSV_ROW = np.dtype([("t", "<f8"), ("x", "<i8"), ("y", "<i8"), ("p", "<i8")])
_COORD_MAX = 0xFFFF

DESCRIPTOR_MAGIC = b"EECV"
DESCRIPTOR_VERSION = 1
_HEADER = struct.Struct("<4sBBHHddHHI")  # magic, version, transform, H, W, t_start, duration, M, |K|, pixel_count
_PIXEL_HEADER = np.dtype([("x", "<u2"), ("y", "<u2"), ("r", "<u2")])
_ENTRY_REAL = np.dtype([("position", "<u2"), ("re", "<f4")])
_ENTRY_COMPLEX = np.dtype([("position", "<u2"), ("re", "<f4"), ("im", "<f4")])

EMULATOR_PATTERNS = ("uniform-noise", "moving-dot", "moving-edge")


def read_events(path: str | Path, format: str = "csv") -> EventArray:
    """Read an event file into columns, preserving file order.

    Raises :class:`ParseError` (with line number) for malformed CSV rows,
    :class:`FormatError` for malformed binary payloads, and
    :class:`ValidationError` for out-of-range field values; binary faults
    name the record and its byte offset.
    """
    path = Path(path)
    if format == "csv":
        return _read_events_csv(path)
    if format == "binary":
        return _read_events_binary(path)
    raise ConfigurationError(f"unknown event format {format!r}")


def _read_events_csv(path: Path) -> EventArray:
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != EVENT_CSV_HEADER:
            raise ParseError(f"line 1: expected header {EVENT_CSV_HEADER!r}, got {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header-only file holds no rows
                rows = np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)
            if not np.any((rows["x"] > _COORD_MAX) | (rows["y"] > _COORD_MAX)):
                return EventArray(rows["t"], rows["x"], rows["y"], np.where(rows["p"] == 0, -1, rows["p"]))
            failure = "coordinate overflows u16"
        except ValueError as exc:  # a ValidationError too
            failure = str(exc)
        # numpy does not name the file line, so read the rows again one at a time
        fh.seek(0)
        for lineno, line in enumerate(fh.read().split("\n")[1:], start=2):
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                t, x, y, p = float(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if x > _COORD_MAX or y > _COORD_MAX:
                raise ValidationError(f"line {lineno}: coordinate overflows u16: ({x}, {y})")
            try:
                Event(t=t, x=x, y=y, p=-1 if p == 0 else p)
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
    raise ParseError(failure)  # a number Python reads and numpy does not, such as 1_000


def _read_events_binary(path: Path) -> EventArray:
    blob = path.read_bytes()
    size = _EVENT_RECORD.itemsize
    if len(blob) % size:
        offset = len(blob) - len(blob) % size
        raise FormatError(
            f"record {offset // size} (byte {offset}): truncated event record ({len(blob) % size} stray bytes)"
        )
    records = np.frombuffer(blob, dtype=_EVENT_RECORD)
    p = records["p"]
    return EventArray(records["t"], records["x"], records["y"], np.where(p == 0, np.int8(-1), p),
                      where=lambda i: f"record {i} (byte {i * size})")


def write_events(path: str | Path, events: Iterable[Event], format: str = "csv") -> None:
    """Write events in file order to CSV or the binary record format."""
    path = Path(path)
    events = EventArray.from_events(events)
    if format == "csv":
        rows = zip(events.t.tolist(), events.x.tolist(), events.y.tolist(), events.p.tolist())
        lines = [EVENT_CSV_HEADER, *(f"{t!r},{x},{y},{p}" for t, x, y, p in rows)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    if format == "binary":
        wide = np.flatnonzero((events.x > _COORD_MAX) | (events.y > _COORD_MAX))
        if wide.size:
            raise ValidationError(f"coordinate overflows u16: ({events.x[wide[0]]}, {events.y[wide[0]]})")
        records = np.empty(len(events), dtype=_EVENT_RECORD)
        for name in _EVENT_RECORD.names:
            records[name] = getattr(events, name)
        path.write_bytes(records.tobytes())
        return
    raise ConfigurationError(f"unknown event format {format!r}")


def _record_bytes(header_at: np.ndarray, body_size: int) -> np.ndarray:
    """Mask of the pixel-header bytes in a body whose records start at ``header_at``."""
    is_header = np.zeros(body_size, dtype=bool)
    is_header[header_at[:, None] + np.arange(_PIXEL_HEADER.itemsize)] = True
    return is_header


def write_descriptor(descriptor: WindowDescriptor, path: str | Path) -> None:
    """Serialize a descriptor.

    Byte layout (little-endian): magic ``EECV`` (4 bytes), version u8 = 1,
    transform u8 (0=DWT, 1=DTFT, 2=DCT), H u16, W u16, t_start f64,
    duration f64, budget u16, candidate_count u16, pixel_count u32; then per
    pixel: x u16, y u16, r u16 and ``r`` entries of atom position u16 plus
    value f32 (re and im f32 when the transform is DTFT).  Pixels are
    written sorted by (y, x).  A value beyond the f32 range raises
    :class:`FormatError` naming its pixel and atom position.
    """
    d = descriptor
    geo = d.geometry
    for name, value in (("height", geo.height), ("width", geo.width),
                        ("budget", d.budget), ("candidate_count", d.candidate_count)):
        if value > _COORD_MAX:
            raise ValidationError(f"descriptor {name} {value} overflows u16")
    dtft = d.transform is TransformKind.DTFT
    entries = np.empty(d.positions.shape[0], dtype=_ENTRY_COMPLEX if dtft else _ENTRY_REAL)
    entries["position"] = d.positions
    overflow = np.zeros(entries.shape[0], dtype=bool)
    with np.errstate(over="ignore"):  # f64 -> f32 rounds as struct's "f" does; overflow is caught here
        for name, part in zip(("re", "im"), (d.values.real, d.values.imag) if dtft else (d.values,)):
            entries[name] = part
            overflow |= np.isinf(entries[name]) & ~np.isinf(part)
    if overflow.any():
        first = int(np.argmax(overflow))
        row = int(np.searchsorted(d.starts, first, side="right")) - 1
        pid = int(d.pixel_ids[row])
        raise FormatError(
            f"pixel ({pid % geo.width}, {pid // geo.width}) atom position {int(d.positions[first])}: "
            f"value {d.values[first].item()!r} outside the float32 range"
        )
    headers = np.empty(d.pixel_ids.shape[0], dtype=_PIXEL_HEADER)
    headers["x"] = d.pixel_ids % geo.width
    headers["y"] = d.pixel_ids // geo.width
    headers["r"] = d.counts
    header = _HEADER.pack(DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, int(d.transform), geo.height, geo.width,
                          d.t_start, d.duration, d.budget, d.candidate_count, headers.shape[0])
    blob = np.empty(len(header) + headers.nbytes + entries.nbytes, dtype=np.uint8)
    blob[:len(header)] = np.frombuffer(header, dtype=np.uint8)
    body = blob[len(header):]
    header_at = _PIXEL_HEADER.itemsize * np.arange(headers.shape[0]) + entries.itemsize * d.starts
    is_header = _record_bytes(header_at, body.shape[0])
    body[is_header] = headers.view(np.uint8)
    body[~is_header] = entries.view(np.uint8)
    Path(path).write_bytes(blob)


def read_descriptor(path: str | Path) -> WindowDescriptor:
    """Parse a descriptor file; the inverse of :func:`write_descriptor`.

    A damaged file raises :class:`FormatError` naming the first byte at
    which it departs from the layout.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError("byte 0: truncated while reading header")
    (magic, version, transform_code, height, width,
     t_start, duration, budget, candidate_count, pixel_count) = _HEADER.unpack_from(blob)
    if magic != DESCRIPTOR_MAGIC:
        raise FormatError(f"byte 0: bad magic {magic!r}, expected {DESCRIPTOR_MAGIC!r}")
    if version != DESCRIPTOR_VERSION:
        raise FormatError(f"byte 4: unsupported version {version}")
    try:
        transform = TransformKind(transform_code)
    except ValueError as exc:
        raise FormatError(f"byte 5: unknown transform code {transform_code}") from exc
    try:
        geometry = SensorGeometry(height=height, width=width)
        AtomGrid(transform, candidate_count)
        if budget < 1:
            raise ValidationError(f"budget must be >= 1, got {budget}")
    except (ValidationError, ConfigurationError) as exc:
        raise FormatError(f"byte 6: invalid header fields: {exc}") from exc

    dtft = transform is TransformKind.DTFT
    entry = _ENTRY_COMPLEX if dtft else _ENTRY_REAL
    # Each record's offset depends on the counts before it, so one walk finds
    # them; it stops at the first record whose header is cut off.
    size = len(blob)
    header_at = []
    offset = _HEADER.size
    for _ in range(pixel_count):
        if offset + _PIXEL_HEADER.itemsize > size:
            break
        header_at.append(offset)
        offset += _PIXEL_HEADER.itemsize + (blob[offset + 4] | blob[offset + 5] << 8) * entry.itemsize
    failures = []  # (byte, what is wrong there); the earliest is reported
    if len(header_at) < pixel_count:
        failures.append((offset, "truncated while reading pixel record"))
    elif offset < size:
        failures.append((offset, f"{size - offset} trailing bytes"))

    header_at = np.array(header_at, dtype=np.int64)
    body = np.frombuffer(blob, dtype=np.uint8, count=min(offset, size) - _HEADER.size, offset=_HEADER.size)
    is_header = _record_bytes(header_at - _HEADER.size, body.shape[0])
    headers = body[is_header].view(_PIXEL_HEADER)
    x, y, r = (headers[name].astype(np.int64) for name in ("x", "y", "r"))
    entry_bytes = body[~is_header]
    entries = entry_bytes[:entry_bytes.shape[0] - entry_bytes.shape[0] % entry.itemsize].view(entry)

    ids = y * width + x
    duplicate = np.ones(ids.shape[0], dtype=bool)
    duplicate[np.unique(ids, return_index=True)[1]] = False
    outside = (x >= width) | (y >= height)
    excess = r > min(budget, candidate_count)
    bad = outside | excess | duplicate
    if bad.any():
        i = int(np.argmax(bad))
        what = (f"pixel ({x[i]}, {y[i]}) outside {height}x{width} sensor" if outside[i]
                else f"retained count {r[i]} exceeds budget" if excess[i] else f"duplicate pixel ({x[i]}, {y[i]})")
        failures.append((int(header_at[i]), what))

    starts = np.cumsum(r) - r

    def entry_offset(j: int) -> int:
        row = int(np.searchsorted(starts, j, side="right")) - 1
        return int(header_at[row]) + _PIXEL_HEADER.itemsize + entry.itemsize * (j - int(starts[row]))

    if entries.shape[0] < r.sum():
        failures.append((entry_offset(entries.shape[0]), "truncated while reading coefficient entry"))
    positions = entries["position"].astype(np.int64)
    outside_grid = positions >= candidate_count
    finite = np.isfinite(entries["re"])
    if dtft:
        finite &= np.isfinite(entries["im"])
    bad = outside_grid | ~finite
    if bad.any():
        j = int(np.argmax(bad))
        what = (f"atom position {positions[j]} outside grid of {candidate_count}" if outside_grid[j]
                else "non-finite coefficient value")
        failures.append((entry_offset(j), what))
    if failures:
        byte, what = min(failures)
        raise FormatError(f"byte {byte}: {what}")

    values = np.empty(entries.shape[0], dtype=np.complex128 if dtft else np.float64)
    if dtft:
        values.real, values.imag = entries["re"], entries["im"]
    else:
        values[:] = entries["re"]
    return WindowDescriptor.from_columns(transform, geometry, t_start, duration, budget, candidate_count,
                                         ids, r, positions, values)


@dataclass(frozen=True, slots=True)
class EmulatorConfig:
    """Synthetic stream generator settings.

    ``rate`` is the mean event rate in events per pixel per second; the
    total count is Poisson with mean ``rate * H * W * duration``.  Patterns:
    ``uniform-noise`` spreads events uniformly, ``moving-dot`` and
    ``moving-edge`` concentrate them around a locus travelling at ``speed``
    pixels per second (wrapping at the sensor border).  ``polarity_bias`` is
    the probability of ``+1``.  A fixed ``seed`` makes the stream
    deterministic.
    """

    geometry: SensorGeometry
    duration: float
    rate: float
    pattern: str = "uniform-noise"
    speed: float = 0.0
    polarity_bias: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration) or self.duration <= 0.0:
            raise ConfigurationError(f"duration must be finite and > 0, got {self.duration}")
        if not math.isfinite(self.rate) or self.rate < 0.0:
            raise ConfigurationError(f"rate must be finite and >= 0, got {self.rate}")
        if self.pattern not in EMULATOR_PATTERNS:
            raise ConfigurationError(f"pattern must be one of {EMULATOR_PATTERNS}, got {self.pattern!r}")
        if not math.isfinite(self.speed) or self.speed < 0.0:
            raise ConfigurationError(f"speed must be finite and >= 0, got {self.speed}")
        if not (0.0 <= self.polarity_bias <= 1.0):
            raise ConfigurationError(f"polarity bias must lie in [0, 1], got {self.polarity_bias}")


def emulate(config: EmulatorConfig) -> EventArray:
    """Generate a synthetic event stream, sorted by timestamp.

    Deterministic for a fixed seed.  Timestamps are quantized to whole
    microseconds, matching what real sensors report.
    """
    rng = np.random.default_rng(config.seed)
    geo = config.geometry
    n = int(rng.poisson(config.rate * geo.pixel_count * config.duration))
    if n == 0:
        return EventArray([], [], [], [])
    t = np.floor(rng.random(n) * config.duration * 1e6) / 1e6
    if config.pattern == "uniform-noise":
        x = rng.integers(0, geo.width, n)
        y = rng.integers(0, geo.height, n)
    elif config.pattern == "moving-dot":
        # dot drifts diagonally; events scatter around it
        cx = geo.width / 2.0 + 0.6 * config.speed * t
        cy = geo.height / 2.0 + 0.8 * config.speed * t
        x = np.floor(cx + rng.normal(0.0, 1.5, n)).astype(np.int64) % geo.width
        y = np.floor(cy + rng.normal(0.0, 1.5, n)).astype(np.int64) % geo.height
    else:
        # vertical edge sweeping in x; rows uniform
        col = geo.width / 4.0 + config.speed * t
        x = np.floor(col + rng.normal(0.0, 1.0, n)).astype(np.int64) % geo.width
        y = rng.integers(0, geo.height, n)
    p = np.where(rng.random(n) < config.polarity_bias, 1, -1)
    order = np.argsort(t, kind="stable")
    return EventArray(t[order], x[order], y[order], p[order])
