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
matrix: a slice for DCT, one row-wise stable argsort for DTFT and DWT.  A
descriptor holds the result as columns (pixel ids, per-pixel counts, atom
positions, values), and :func:`prune_dct` / :func:`prune_magnitude` are
the same rule applied to one pixel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .calibration import TransformKind
from .errors import ConfigurationError, ContractError
from .events import SensorGeometry
from .transforms import AtomGrid, AtomIndex, CoefficientVector, PixelMap, WindowCoefficients

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

    ``WindowDescriptor(transform, geometry, t_start, duration, budget,
    candidate_count, pixels)`` builds one from a mapping of ``(x, y)`` to
    :class:`RetainedCoefficient` sequences; :attr:`pixels` reads it back
    that way.
    """

    __slots__ = ("transform", "geometry", "t_start", "duration", "budget", "candidate_count",
                 "pixel_ids", "counts", "starts", "positions", "values")

    def __init__(
        self,
        transform: TransformKind,
        geometry: SensorGeometry,
        t_start: float,
        duration: float,
        budget: int,
        candidate_count: int,
        pixels: Mapping[tuple[int, int], Sequence[RetainedCoefficient]],
    ) -> None:
        keys = list(pixels)
        retained = [tuple(pixels[key]) for key in keys]
        for (x, y), kept in zip(keys, retained):
            if not (0 <= x < geometry.width and 0 <= y < geometry.height):
                raise ContractError(f"pixel ({x}, {y}) outside {geometry.height}x{geometry.width} sensor")
            for rc in kept:
                if rc.index.transform is not transform or rc.index.position >= candidate_count:
                    raise ContractError(f"pixel ({x}, {y}) keeps {rc.index}, not an atom of a "
                                        f"{transform.name} grid of {candidate_count}")
        self._set(transform, geometry, t_start, duration, budget, candidate_count,
                  [y * geometry.width + x for x, y in keys], [len(kept) for kept in retained],
                  [rc.index.position for kept in retained for rc in kept],
                  [rc.value for kept in retained for rc in kept])

    @classmethod
    def from_columns(cls, transform: TransformKind, geometry: SensorGeometry, t_start: float, duration: float,
                     budget: int, candidate_count: int, pixel_ids, counts, positions, values) -> "WindowDescriptor":
        """A descriptor over columns laid out as the class docstring says; pixels may come in any order."""
        self = object.__new__(cls)
        self._set(transform, geometry, t_start, duration, budget, candidate_count,
                  pixel_ids, counts, positions, values)
        return self

    def _set(self, transform, geometry, t_start, duration, budget, candidate_count,
             pixel_ids, counts, positions, values) -> None:
        ids = np.asarray(pixel_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        values = np.asarray(values, dtype=np.complex128 if transform is TransformKind.DTFT else np.float64)
        starts = np.cumsum(counts) - counts
        if np.any(ids[1:] < ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids, counts = ids[order], counts[order]
            moved = np.cumsum(counts) - counts
            entries = np.repeat(starts[order] - moved, counts) + np.arange(positions.shape[0])
            positions, values, starts = positions[entries], values[entries], moved
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
    def pixels(self) -> PixelMap:
        """``(x, y)`` -> that pixel's :class:`RetainedCoefficient` tuple, built when read."""
        indices = AtomGrid(self.transform, self.candidate_count).indices

        def retained(row: int) -> tuple[RetainedCoefficient, ...]:
            span = self.entries(row)
            return _retained(indices, self.positions[span], self.values[span])

        return PixelMap(self.geometry.width, self.pixel_ids, retained)

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


def _stack(per_pixel: Mapping[tuple[int, int], CoefficientVector], geometry: SensorGeometry,
           candidate_count: int) -> tuple[np.ndarray, np.ndarray]:
    """``(pixel_ids, coeffs)`` of a mapping, rows in ascending pixel id."""
    keys = sorted(per_pixel, key=lambda xy: (xy[1], xy[0]))
    for x, y in keys:
        if not (0 <= x < geometry.width and 0 <= y < geometry.height):
            raise ContractError(f"pixel ({x}, {y}) outside {geometry.height}x{geometry.width} sensor")
    ids = np.array([y * geometry.width + x for x, y in keys], dtype=np.int64)
    return ids, np.array([per_pixel[key].values for key in keys]).reshape(-1, candidate_count)


def pack_descriptor(
    per_pixel: Mapping[tuple[int, int], CoefficientVector],
    policy: RetentionPolicy,
    transform: TransformKind,
    geometry: SensorGeometry,
    t_start: float,
    duration: float,
    candidate_count: int | None = None,
) -> WindowDescriptor:
    """Prune every pixel's coefficients and pack them into a descriptor.

    All coefficient vectors must share one grid, whose transform must equal
    ``transform``.  ``candidate_count`` is required when ``per_pixel`` is
    empty (there is no grid to read it from) and must agree with the shared
    grid otherwise.  Pixels whose vectors are entirely zero are dropped.
    :func:`~evcompress.transforms.encode_window`'s result is pruned as the
    matrix it holds; any other mapping is stacked into one first.
    """
    columnar = isinstance(per_pixel, WindowCoefficients) and per_pixel.width == geometry.width
    if columnar:
        grids = {per_pixel.grid} if len(per_pixel) else set()
    else:
        grids = {vec.grid for vec in per_pixel.values()}
    if len(grids) > 1:
        raise ContractError("all coefficient vectors in a window must share one grid")
    if grids:
        grid = next(iter(grids))
        if grid.transform is not transform:
            raise ContractError(
                f"descriptor transform {transform.name} does not match grid transform {grid.transform.name}"
            )
        if candidate_count is not None and candidate_count != grid.candidate_count:
            raise ContractError(
                f"candidate_count {candidate_count} does not match grid size {grid.candidate_count}"
            )
        candidate_count = grid.candidate_count
    elif candidate_count is None:
        raise ConfigurationError("candidate_count is required when packing an empty window")
    else:
        AtomGrid(transform, candidate_count)  # validate even with no pixels

    r = retention_budget(policy.budget, candidate_count)
    if columnar:
        ids, coeffs = per_pixel.pixel_ids, per_pixel.coeffs
    else:
        ids, coeffs = _stack(per_pixel, geometry, candidate_count)
    live = np.any(coeffs, axis=1)
    if not live.all():
        ids, coeffs = ids[live], coeffs[live]
    return WindowDescriptor.from_columns(transform, geometry, t_start, duration, policy.budget,
                                         candidate_count, ids, *_prune(transform, coeffs, r))


@dataclass(frozen=True)
class DenseTensor:
    """``(H, W, M)`` channel layout of retained coefficients.

    Channel ``m`` of pixel ``(x, y)`` carries the real part of that pixel's
    m-th retained coefficient; channels past the retained count are exactly
    zero.  ``channel_positions`` maps each pixel to its atom grid positions
    in channel order, so the mapping back to the descriptor's real parts is
    invertible.
    """

    values: np.ndarray
    transform: TransformKind
    budget: int
    descriptor: WindowDescriptor

    @property
    def channel_positions(self) -> PixelMap:
        """``(x, y)`` -> that pixel's atom positions in channel order, built when read."""
        d = self.descriptor
        return PixelMap(d.geometry.width, d.pixel_ids, lambda row: tuple(d.positions[d.entries(row)].tolist()))


def to_dense_tensor(descriptor: WindowDescriptor) -> DenseTensor:
    """Lay a descriptor out as a dense ``(H, W, M)`` tensor for perception stacks."""
    h, w = descriptor.geometry.height, descriptor.geometry.width
    m = descriptor.budget
    values = np.zeros((h * w, m), dtype=np.float64)
    channels = np.arange(descriptor.positions.shape[0]) - np.repeat(descriptor.starts, descriptor.counts)
    values[np.repeat(descriptor.pixel_ids, descriptor.counts), channels] = descriptor.values.real
    values = values.reshape(h, w, m)
    values.setflags(write=False)
    return DenseTensor(values=values, transform=descriptor.transform, budget=m, descriptor=descriptor)
