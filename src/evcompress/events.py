"""Core event/window types, time normalization, and the event density measure.

An event stream is a time-ordered sequence of signed impulses ``(t, x, y, p)``.
Windows are half-open time slices ``[t_start, t_start + duration)``; an event
whose timestamp equals the upper edge belongs to the next window, so
consecutive windows tile a stream without double counting.

Events travel as columns (:class:`EventArray`), with no per-event object
between a file and the encoder; :class:`Event` is the validated row type for
tests and small inputs, converted to columns once.

Timestamps are stored as double-precision seconds.  Event cameras report
integer microseconds; doubles hold those exactly over realistic session
lengths, so convert at ingestion and keep seconds everywhere else.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "Event",
    "EventArray",
    "SensorGeometry",
    "EventWindow",
    "make_window",
    "compute_density",
    "normalize_times",
]


@dataclass(frozen=True, slots=True)
class Event:
    """One sensor event: a polarity impulse at pixel ``(x, y)`` and time ``t``.

    Attributes:
        t: timestamp in seconds, finite and non-negative.
        x: column index, ``0 <= x < width`` of the owning sensor.
        y: row index, ``0 <= y < height`` of the owning sensor.
        p: polarity, exactly ``-1`` or ``+1``.  Datasets using ``{0, 1}`` are
           remapped at the I/O layer, never here.
    """

    t: float
    x: int
    y: int
    p: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.t) or self.t < 0.0:
            raise ValidationError(f"event timestamp must be finite and >= 0, got {self.t!r}")
        if self.p not in (-1, 1):
            raise ValidationError(f"event polarity must be -1 or +1, got {self.p!r}")
        if self.x < 0 or self.y < 0:
            raise ValidationError(f"event coordinates must be non-negative, got ({self.x}, {self.y})")


@dataclass(frozen=True, slots=True)
class SensorGeometry:
    """Sensor pixel grid: ``height`` rows by ``width`` columns."""

    height: int
    width: int

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ValidationError(f"sensor geometry must be at least 1x1, got {self.height}x{self.width}")

    @property
    def pixel_count(self) -> int:
        return self.height * self.width


class EventArray(Sequence[Event]):
    """Events as read-only columns: ``t`` f64 seconds, ``x``/``y`` i64, ``p`` i8.

    Every row passes the checks of :class:`Event`; a bad one raises
    :class:`ValidationError` naming the first, as ``where(index)`` spells it.
    As a ``Sequence[Event]``, indexing and iteration yield :class:`Event`
    rows, slicing yields an :class:`EventArray` of views, and ``==`` also
    compares against a list or tuple of events.
    """

    __slots__ = ("t", "x", "y", "p")

    def __init__(self, t, x, y, p, *, where: Callable[[int], str] = lambda i: f"event {i}") -> None:
        t, x, y, p = (np.asarray(column) for column in (t, x, y, p))
        if not (t.ndim == x.ndim == y.ndim == p.ndim == 1 and t.size == x.size == y.size == p.size):
            shapes = [c.shape for c in (t, x, y, p)]
            raise ValidationError(f"event columns must be 1-D and of one length, got shapes {shapes}")
        bad = ~np.isfinite(t) | (t < 0.0) | ((p != 1) & (p != -1)) | (x < 0) | (y < 0)
        if bad.any():
            i = int(bad.argmax())
            try:
                Event(float(t[i]), int(x[i]), int(y[i]), int(p[i]))
            except ValidationError as exc:  # the row type words the fault
                raise ValidationError(f"{where(i)}: {exc}") from None
        dtypes = (np.float64, np.int64, np.int64, np.int8)
        for name, column, dtype in zip(self.__slots__, (t, x, y, p), dtypes):
            column = np.ascontiguousarray(column, dtype=dtype).view()  # the caller's array stays writable
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> EventArray:
        """Columns of ``events`` in their order; an :class:`EventArray` is returned as is."""
        if isinstance(events, EventArray):
            return events
        return cls(*np.array([(ev.t, ev.x, ev.y, ev.p) for ev in events], dtype=np.float64).reshape(-1, 4).T)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("EventArray is read-only")

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            out = object.__new__(EventArray)  # rows of a valid array need no checks
            for name in self.__slots__:
                column = getattr(self, name)[index]  # a view for a slice, a copy for an index array
                column.flags.writeable = False
                object.__setattr__(out, name, column)
            return out
        return Event(float(self.t[index]), int(self.x[index]), int(self.y[index]), int(self.p[index]))

    def __iter__(self) -> Iterator[Event]:
        for t, x, y, p in zip(self.t.tolist(), self.x.tolist(), self.y.tolist(), self.p.tolist()):
            yield Event(t, x, y, p)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventArray):
            return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in self.__slots__)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


@dataclass(frozen=True)
class EventWindow:
    """A half-open time slice ``[t_start, t_start + duration)`` of a stream.

    Events are stored sorted by timestamp (stable on ties).  Instances are
    immutable after construction and safe to share across concurrent readers.
    Use :func:`make_window` to build a fully validated window from unordered
    input.
    """

    t_start: float
    duration: float
    events: EventArray
    geometry: SensorGeometry

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration) or self.duration <= 0.0:
            raise ValidationError(f"window duration must be finite and > 0, got {self.duration!r}")
        if not math.isfinite(self.t_start):
            raise ValidationError(f"window start must be finite, got {self.t_start!r}")

    def __len__(self) -> int:
        return len(self.events)


def make_window(
    events: Iterable[Event],
    t_start: float,
    duration: float,
    geometry: SensorGeometry,
) -> EventWindow:
    """Build a validated :class:`EventWindow` from events in any order.

    Events are sorted by timestamp; input order of equal timestamps is
    preserved.  Raises :class:`ValidationError` identifying the offending
    event index for out-of-range coordinates or out-of-window timestamps.
    """
    evs = EventArray.from_events(events)
    if not math.isfinite(duration) or duration <= 0.0:
        raise ValidationError(f"window duration must be finite and > 0, got {duration!r}")
    t_end = t_start + duration
    h, w = geometry.height, geometry.width
    outside = (evs.x >= w) | (evs.y >= h)
    bad = np.flatnonzero(outside | (evs.t < t_start) | (evs.t >= t_end))
    if bad.size:
        ev = evs[int(bad[0])]
        if outside[bad[0]]:
            raise ValidationError(f"event {bad[0]}: coordinates ({ev.x}, {ev.y}) outside {h}x{w} sensor")
        raise ValidationError(f"event {bad[0]}: timestamp {ev.t!r} outside window [{t_start!r}, {t_end!r})")
    order = np.argsort(evs.t, kind="stable")  # stable: ties keep input order
    return EventWindow(t_start=t_start, duration=duration, events=evs[order], geometry=geometry)


def compute_density(window: EventWindow) -> float:
    """Normalized event density: events per pixel per second.

    ``density = N / (H * W * T)`` where ``N`` is the window's event count.
    The normalization makes densities comparable across sensor resolutions
    and window durations.
    """
    return len(window.events) / (window.geometry.pixel_count * window.duration)


def normalize_times(window: EventWindow) -> np.ndarray:
    """Map event timestamps onto canonical window time ``tau = (t - t_start) / T``.

    Returns an array of values in ``[0, 1)`` in event order.
    """
    return (window.events.t - window.t_start) / window.duration
