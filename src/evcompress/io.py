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
from .pruning import RetainedCoefficient, WindowDescriptor
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
_PIXEL_HEADER = struct.Struct("<HHH")  # x, y, r
_ENTRY_REAL = struct.Struct("<Hf")  # atom position, value
_ENTRY_COMPLEX = struct.Struct("<Hff")  # atom position, re, im

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
    geo = descriptor.geometry
    for name, value in (("height", geo.height), ("width", geo.width),
                        ("budget", descriptor.budget), ("candidate_count", descriptor.candidate_count)):
        if value > _COORD_MAX:
            raise ValidationError(f"descriptor {name} {value} overflows u16")
    parts = [
        _HEADER.pack(
            DESCRIPTOR_MAGIC,
            DESCRIPTOR_VERSION,
            int(descriptor.transform),
            geo.height,
            geo.width,
            descriptor.t_start,
            descriptor.duration,
            descriptor.budget,
            descriptor.candidate_count,
            len(descriptor.pixels),
        )
    ]
    entry = _ENTRY_COMPLEX if descriptor.transform is TransformKind.DTFT else _ENTRY_REAL
    for (x, y) in sorted(descriptor.pixels, key=lambda xy: (xy[1], xy[0])):
        retained = descriptor.pixels[(x, y)]
        parts.append(_PIXEL_HEADER.pack(x, y, len(retained)))
        for rc in retained:
            try:
                if descriptor.transform is TransformKind.DTFT:
                    value = complex(rc.value)
                    parts.append(entry.pack(rc.index.position, value.real, value.imag))
                else:
                    parts.append(entry.pack(rc.index.position, rc.value))
            except OverflowError as exc:
                raise FormatError(
                    f"pixel ({x}, {y}) atom position {rc.index.position}: "
                    f"value {rc.value!r} outside the float32 range"
                ) from exc
    Path(path).write_bytes(b"".join(parts))


class _Cursor:
    """Byte reader that names the failing offset."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, fmt: struct.Struct, what: str) -> tuple:
        end = self.offset + fmt.size
        if end > len(self.blob):
            raise FormatError(f"byte {self.offset}: truncated while reading {what}")
        out = fmt.unpack_from(self.blob, self.offset)
        self.offset = end
        return out


def read_descriptor(path: str | Path) -> WindowDescriptor:
    """Parse a descriptor file; the inverse of :func:`write_descriptor`."""
    cursor = _Cursor(Path(path).read_bytes())
    (magic, version, transform_code, height, width,
     t_start, duration, budget, candidate_count, pixel_count) = cursor.take(_HEADER, "header")
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
        grid = AtomGrid(transform, candidate_count)
        if budget < 1:
            raise ValidationError(f"budget must be >= 1, got {budget}")
    except (ValidationError, ConfigurationError) as exc:
        raise FormatError(f"byte 6: invalid header fields: {exc}") from exc

    entry = _ENTRY_COMPLEX if transform is TransformKind.DTFT else _ENTRY_REAL
    pixels: dict[tuple[int, int], tuple[RetainedCoefficient, ...]] = {}
    for _ in range(pixel_count):
        pixel_offset = cursor.offset
        x, y, r = cursor.take(_PIXEL_HEADER, "pixel record")
        if x >= width or y >= height:
            raise FormatError(f"byte {pixel_offset}: pixel ({x}, {y}) outside {height}x{width} sensor")
        if r > min(budget, candidate_count):
            raise FormatError(f"byte {pixel_offset}: retained count {r} exceeds budget")
        if (x, y) in pixels:
            raise FormatError(f"byte {pixel_offset}: duplicate pixel ({x}, {y})")
        retained = []
        for _ in range(r):
            entry_offset = cursor.offset
            fields = cursor.take(entry, "coefficient entry")
            position = fields[0]
            if position >= candidate_count:
                raise FormatError(
                    f"byte {entry_offset}: atom position {position} outside grid of {candidate_count}"
                )
            value: float | complex
            if transform is TransformKind.DTFT:
                value = complex(fields[1], fields[2])
                finite = math.isfinite(fields[1]) and math.isfinite(fields[2])
            else:
                value = fields[1]
                finite = math.isfinite(fields[1])
            if not finite:
                raise FormatError(f"byte {entry_offset}: non-finite coefficient value")
            retained.append(RetainedCoefficient(grid.indices[position], value))
        pixels[(x, y)] = tuple(retained)
    if cursor.offset != len(cursor.blob):
        raise FormatError(f"byte {cursor.offset}: {len(cursor.blob) - cursor.offset} trailing bytes")
    return WindowDescriptor(
        transform=transform,
        geometry=geometry,
        t_start=t_start,
        duration=duration,
        budget=budget,
        candidate_count=candidate_count,
        pixels=pixels,
    )


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
