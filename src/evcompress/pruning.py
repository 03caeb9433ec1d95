"""Retention budgeting, coefficient pruning, descriptor packing, tensor export.

Two pruning rules, matched to how each transform concentrates energy:

* DCT keeps the first ``r`` grid indices in frequency order, regardless of
  magnitudes: dense activity concentrates energy at low frequency.
* DTFT and DWT keep the ``r`` largest-magnitude coefficients (complex
  modulus for DTFT); ties go to the earlier grid position, i.e. the lower
  frequency or coarser scale.  Exact-zero coefficients carry no information
  and are never retained, so a pixel's retained list has length
  ``min(r, nonzero candidates)``.

``r = min(budget, candidate_count)`` so retention never exceeds the basis.
A coefficient counts as one unit of budget whether real or complex.

Pruning runs once per window, on the whole ``(pixels, K)`` coefficient
matrix that :func:`~evcompress.transforms.encode_window` returns: a slice
for DCT, one row-wise stable argsort for DTFT and DWT.  A descriptor holds
the result as columns (pixel ids, per-pixel counts, atom positions,
values) and is built only from columns.  :func:`prune_dct` and
:func:`prune_magnitude` are the same rule applied to one pixel's
:class:`~evcompress.transforms.CoefficientVector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, NoReturn, Sequence

import numpy as np

from .calibration import TransformKind
from .errors import ConfigurationError, ContractError
from .events import SensorGeometry
from .transforms import AtomGrid, AtomIndex, CoefficientVector, WindowCoefficients

__all__ = [
    "RetentionPolicy",
    "RetainedCoefficient",
    "WindowDescriptor",
    "DenseTensor",
    "retention_budget",
    "prune_dct",
    "prune_magnitude",
    "pack_descriptor",
    "to_dense_tensor",
]


@dataclass(frozen=True, slots=True)
class RetentionPolicy:
    """Per-pixel coefficient budget.  Default 16."""

    budget: int = 16

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ConfigurationError(f"retention budget must be >= 1, got {self.budget}")


class RetainedCoefficient(NamedTuple):
    """One kept coefficient: its atom index and value (complex for DTFT)."""

    index: AtomIndex
    value: float | complex


def _retained(
    indices: Sequence[AtomIndex], positions: np.ndarray, values: np.ndarray
) -> tuple[RetainedCoefficient, ...]:
    return tuple(map(RetainedCoefficient, [indices[pos] for pos in positions.tolist()], values.tolist()))


class WindowDescriptor:
    """The packed artifact of one compressed window, as columns.

    ``pixel_ids`` holds ``y * width + x`` of each retained pixel in
    ascending, i.e. (y, x), order; ``counts`` how many coefficients each
    keeps; ``positions`` and ``values`` (float64, complex128 for DTFT) those
    coefficients, pixel after pixel: grid order for DCT, descending
    magnitude (ties toward lower position) for DTFT/DWT.  Pixels whose
    candidate vector was entirely zero are absent.  Immutable once packed.

    The constructor takes those columns, pixels in any order, and sorts
    them.  It raises :class:`ContractError` naming the first bad pixel for
    whatever :func:`~evcompress.io.read_descriptor` would refuse once
    written: a duplicate or off-sensor pixel, a count above the budget,
    counts not summing to the entries, or a position off the grid.
    """

    __slots__ = ("transform", "geometry", "t_start", "duration", "budget", "candidate_count",
                 "pixel_ids", "counts", "starts", "positions", "values")

    def __init__(self, transform: TransformKind, geometry: SensorGeometry, t_start: float, duration: float,
                 budget: int, candidate_count: int, pixel_ids, counts, positions, values) -> None:
        AtomGrid(transform, candidate_count)  # reuse grid validation
        limit = retention_budget(budget, candidate_count)
        ids = np.asarray(pixel_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        values = np.asarray(values, dtype=np.complex128 if transform is TransformKind.DTFT else np.float64)
        if ids.ndim != 1 or counts.shape != ids.shape or positions.ndim != 1 or values.shape != positions.shape:
            raise ContractError("descriptor columns must be 1-D: one count per pixel id, one value per position")
        # whole-column reductions here; the offending pixel is searched for only on failure
        if (ids.size and (ids.min() < 0 or ids.max() >= geometry.pixel_count
                          or counts.min() < 0 or counts.max() > limit)
                or int(counts.sum()) != positions.shape[0]
                or positions.size and (positions.min() < 0 or positions.max() >= candidate_count)):
            _reject(transform, geometry, candidate_count, limit, ids, counts, positions)
        starts = np.cumsum(counts) - counts
        if ids.size > 1 and not np.all(ids[1:] > ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids, counts = ids[order], counts[order]
            moved = np.cumsum(counts) - counts
            entries = np.repeat(starts[order] - moved, counts) + np.arange(positions.shape[0])
            positions, values, starts = positions[entries], values[entries], moved
            if np.any(ids[1:] == ids[:-1]):
                pid = int(ids[np.argmax(ids[1:] == ids[:-1])])
                raise ContractError(f"duplicate pixel ({pid % geometry.width}, {pid // geometry.width})")
        for name, value in (("transform", transform), ("geometry", geometry), ("t_start", t_start),
                            ("duration", duration), ("budget", budget), ("candidate_count", candidate_count),
                            ("pixel_ids", ids), ("counts", counts), ("starts", starts),
                            ("positions", positions), ("values", values)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable WindowDescriptor")

    def entries(self, row: int) -> slice:
        """Where pixel row ``row``'s coefficients sit in ``positions`` and ``values``."""
        start = int(self.starts[row])
        return slice(start, start + int(self.counts[row]))

    @property
    def pixels(self) -> dict[tuple[int, int], tuple[RetainedCoefficient, ...]]:
        """``(x, y)`` -> that pixel's :class:`RetainedCoefficient` tuple, in (y, x) order, built on each read."""
        kept = _retained(AtomGrid(self.transform, self.candidate_count).indices, self.positions, self.values)
        width = self.geometry.width
        return {(pid % width, pid // width): kept[start:start + count] for pid, start, count
                in zip(self.pixel_ids.tolist(), self.starts.tolist(), self.counts.tolist())}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowDescriptor):
            return NotImplemented
        return (
            (self.transform, self.geometry, self.t_start, self.duration, self.budget, self.candidate_count)
            == (other.transform, other.geometry, other.t_start, other.duration, other.budget, other.candidate_count)
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("pixel_ids", "counts", "positions", "values"))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (f"WindowDescriptor(transform={self.transform.name}, geometry={self.geometry!r}, "
                f"t_start={self.t_start!r}, duration={self.duration!r}, budget={self.budget}, "
                f"candidate_count={self.candidate_count}, pixels={self.pixel_ids.shape[0]}, "
                f"coefficients={self.positions.shape[0]})")


def _reject(transform: TransformKind, geometry: SensorGeometry, candidate_count: int, limit: int,
            ids: np.ndarray, counts: np.ndarray, positions: np.ndarray) -> NoReturn:
    """Raise for the first pixel whose columns a whole-column check found wrong."""
    end = 0
    for pid, count in zip(ids.tolist(), counts.tolist()):
        pixel = f"pixel ({pid % geometry.width}, {pid // geometry.width})"
        start, end = end, end + count
        if not 0 <= pid < geometry.pixel_count:
            raise ContractError(f"{pixel} outside {geometry.height}x{geometry.width} sensor")
        if not 0 <= count <= limit:
            raise ContractError(f"{pixel} retained count {count} outside [0, {limit}]")
        if end > positions.shape[0]:
            raise ContractError(f"{pixel} counts entries past the last of {positions.shape[0]}")
        outside = (positions[start:end] < 0) | (positions[start:end] >= candidate_count)
        if outside.any():
            raise ContractError(f"{pixel} keeps atom position {positions[start + np.argmax(outside)]}, "
                                f"not an atom of a {transform.name} grid of {candidate_count}")
    raise ContractError(f"{positions.shape[0] - end} entries belong to no pixel")


def retention_budget(budget: int, candidate_count: int) -> int:
    """Effective retention count ``r = min(budget, candidate_count)``."""
    if budget < 1:
        raise ConfigurationError(f"retention budget must be >= 1, got {budget}")
    if candidate_count < 1:
        raise ConfigurationError(f"candidate_count must be >= 1, got {candidate_count}")
    return min(budget, candidate_count)


def _check_prune_args(coeffs: CoefficientVector, r: int, allowed: tuple[TransformKind, ...]) -> None:
    if coeffs.grid.transform not in allowed:
        names = "/".join(t.name for t in allowed)
        raise ContractError(f"pruning rule for {names} applied to {coeffs.grid.transform.name} coefficients")
    if not (0 <= r <= coeffs.grid.candidate_count):
        raise ContractError(
            f"retention count {r} outside [0, {coeffs.grid.candidate_count}]"
        )


def _prune(transform: TransformKind, coeffs: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, positions, values)`` kept from each row of a ``(pixels, K)`` matrix."""
    if transform is TransformKind.DCT:
        rows = coeffs.shape[0]
        return np.full(rows, r), np.tile(np.arange(r), rows), coeffs[:, :r].ravel()
    # stable sort on negated magnitude: equal |c| resolve to the earlier
    # (lower-frequency / coarser-scale) grid position
    order = np.argsort(-np.abs(coeffs), axis=1, kind="stable")[:, :r]
    kept = np.take_along_axis(coeffs, order, axis=1)
    nonzero = kept != 0  # zeros sort last and are never retained
    return nonzero.sum(axis=1), order[nonzero], kept[nonzero]


def prune_dct(coeffs: CoefficientVector, r: int) -> tuple[RetainedCoefficient, ...]:
    """Low-frequency retention: exactly the first ``r`` grid indices, in order."""
    _check_prune_args(coeffs, r, (TransformKind.DCT,))
    _, positions, values = _prune(TransformKind.DCT, coeffs.values[None, :], r)
    return _retained(coeffs.grid.indices, positions, values)


def prune_magnitude(coeffs: CoefficientVector, r: int) -> tuple[RetainedCoefficient, ...]:
    """Magnitude selection: up to ``r`` largest-|value| coefficients.

    Output is sorted by descending magnitude, then ascending grid position;
    ties between equal magnitudes resolve to the lower frequency / coarser
    scale.  Exact zeros are dropped, so fewer than ``r`` entries come back
    when the vector has fewer nonzero candidates.
    """
    _check_prune_args(coeffs, r, (TransformKind.DTFT, TransformKind.DWT))
    _, positions, values = _prune(coeffs.grid.transform, coeffs.values[None, :], r)
    return _retained(coeffs.grid.indices, positions, values)


def pack_descriptor(
    coefficients: WindowCoefficients,
    policy: RetentionPolicy,
    transform: TransformKind,
    geometry: SensorGeometry,
    t_start: float,
    duration: float,
) -> WindowDescriptor:
    """Prune a window's coefficient matrix and pack what is kept into a descriptor.

    ``coefficients`` is :func:`~evcompress.transforms.encode_window`'s
    result; its grid's transform must equal ``transform``, and its grid
    size becomes the descriptor's ``candidate_count``.  Each row keeps
    ``min(policy.budget, K)`` coefficients by the transform's rule, and
    rows that are entirely zero are dropped.
    """
    grid = coefficients.grid
    if grid.transform is not transform:
        raise ContractError(
            f"descriptor transform {transform.name} does not match grid transform {grid.transform.name}"
        )
    ids, coeffs = coefficients.pixel_ids, coefficients.coeffs
    live = np.any(coeffs, axis=1)
    if not live.all():
        ids, coeffs = ids[live], coeffs[live]
    r = retention_budget(policy.budget, grid.candidate_count)
    return WindowDescriptor(transform, geometry, t_start, duration, policy.budget, grid.candidate_count,
                            ids, *_prune(transform, coeffs, r))


@dataclass(frozen=True)
class DenseTensor:
    """``(H, W, M)`` channel layout of retained coefficients.

    Channel ``m`` of pixel ``(x, y)`` carries the real part of that pixel's
    m-th retained coefficient; channels past the retained count are exactly
    zero.  The descriptor's ``positions`` name each channel's atom in the
    same order, so the mapping back to its real parts is invertible.
    """

    values: np.ndarray
    transform: TransformKind
    budget: int


def to_dense_tensor(descriptor: WindowDescriptor) -> DenseTensor:
    """Lay a descriptor out as a dense ``(H, W, M)`` tensor for perception stacks."""
    h, w = descriptor.geometry.height, descriptor.geometry.width
    m = descriptor.budget
    values = np.zeros((h * w, m), dtype=np.float64)
    channels = np.arange(descriptor.positions.shape[0]) - np.repeat(descriptor.starts, descriptor.counts)
    values[np.repeat(descriptor.pixel_ids, descriptor.counts), channels] = descriptor.values.real
    values = values.reshape(h, w, m)
    values.setflags(write=False)
    return DenseTensor(values=values, transform=descriptor.transform, budget=m)
