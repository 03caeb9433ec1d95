"""Transform atom families and Dirac-sampled per-pixel coefficient accumulation.

A pixel's events inside a window are modeled as a signed impulse train on
normalized window time ``tau in [0, 1)``.  Because the signal is a sum of
Dirac impulses, every transform coefficient reduces to a plain sum of atom
samples at the exact event times::

    c_k = sum_i p_i * phi_k(tau_i)

with no temporal binning anywhere.  The three atom families, all on
normalized time, are

* DCT:  ``phi_k(tau) = cos(pi * k * tau)``, ``k = 0, 1, ...``
* DTFT: ``phi_n(tau) = exp(-i * 2*pi*n * tau)``, ``n = 0, 1, ...``
  (polarity trains are real-valued, so negative frequencies are
  conjugate-redundant and the grid keeps non-negative ones only)
* DWT:  the Haar family, a constant scaling atom at position 0 and then
  ``psi_{j,m}(tau) = 2^(j/2) * psi(2^j * tau - m)`` with the mother wavelet
  ``psi = +1`` on ``[0, 1/2)`` and ``-1`` on ``[1/2, 1)``; supports are
  restricted to lie inside the window.

Grid orderings run from low frequency / coarse scale to high/fine: DCT and
DTFT by index, DWT as DC, (j=0,m=0), (j=1,m=0), (j=1,m=1), ... so that grid
position ``2^j + m`` always denotes scale ``j``, shift ``m``.

Accumulation is always in double precision; dense windows sum thousands of
terms.  No normalization factor is applied here: the sums are unnormalized
inner products, and all normalization lives in reconstruction.

Every family is evaluated by :func:`atom_rows`, which keeps two strategies
for DCT and DTFT.  Encoding asks for a leading block and gets one-multiply
recurrences (Chebyshev for DCT, phasor product for DTFT); reconstruction
asks for retained positions and gets the closed forms.  Both stay because
the golden digests pin the recurrence bits in the written descriptors and
the closed-form bits in the reconstructed frames and metrics, and because
the recurrences cost one multiply per sample while staying within 1e-12 of
the closed forms on a 64-atom grid, far inside the 1e-9 bound required of
fast evaluation paths.  Haar samples are exact, so DWT has one per-scale
scatter that serves both.
"""

from __future__ import annotations

from collections.abc import Callable, ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .calibration import TransformKind
from .errors import ConfigurationError, ContractError
from .events import EventWindow, normalize_times

__all__ = [
    "AtomIndex",
    "AtomGrid",
    "CoefficientVector",
    "PixelMap",
    "WindowCoefficients",
    "atom_rows",
    "encode_pixel",
    "encode_window",
]

# Events per block of atom rows: encoding holds at most (K, CHUNK_EVENTS)
# atom samples at once, however many events a window has.
CHUNK_EVENTS = 32_768


@dataclass(frozen=True, slots=True)
class AtomIndex:
    """One atom of a transform grid, identified by its canonical position.

    For DCT the position is the cosine index ``k``; for DTFT it is the
    frequency index ``n`` (angular frequency ``2*pi*n`` on normalized time).
    For DWT, position 0 is the constant scaling atom and position
    ``2^j + m`` is the Haar atom at scale ``j``, shift ``m``.
    """

    transform: TransformKind
    position: int

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ContractError(f"atom position must be >= 0, got {self.position}")

    @property
    def is_dc(self) -> bool:
        """True for the constant atom (position 0 in every family)."""
        return self.position == 0

    @property
    def scale_shift(self) -> tuple[int, int] | None:
        """Haar ``(scale, shift)`` for a DWT wavelet atom, else None."""
        if self.transform is not TransformKind.DWT or self.position == 0:
            return None
        j = self.position.bit_length() - 1
        return j, self.position - (1 << j)

    @classmethod
    def haar(cls, scale: int, shift: int) -> "AtomIndex":
        """DWT atom from ``(scale, shift)``; requires ``0 <= shift < 2**scale``."""
        if scale < 0 or not (0 <= shift < (1 << scale)):
            raise ContractError(f"invalid haar atom (scale={scale}, shift={shift})")
        return cls(TransformKind.DWT, (1 << scale) + shift)


@dataclass(frozen=True)
class AtomGrid:
    """The candidate atom set of one window: a transform plus its size.

    ``candidate_count`` atoms are taken in canonical order (positions
    ``0 .. candidate_count - 1``).  DWT grids must have power-of-two size so
    that scales close: size ``2^L`` covers DC plus all shifts of scales
    ``0 .. L-1``.
    """

    transform: TransformKind
    candidate_count: int

    def __post_init__(self) -> None:
        if self.candidate_count < 1:
            raise ConfigurationError(f"candidate_count must be >= 1, got {self.candidate_count}")
        if self.transform is TransformKind.DWT and self.candidate_count & (self.candidate_count - 1):
            raise ConfigurationError(
                f"DWT candidate_count must be a power of two, got {self.candidate_count}"
            )

    @cached_property
    def indices(self) -> tuple[AtomIndex, ...]:
        """All atom indices in canonical (low-to-high) order, built once."""
        return tuple(AtomIndex(self.transform, pos) for pos in range(self.candidate_count))


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients of one pixel over a full atom grid.

    ``values`` is aligned with the grid ordering: entry ``k`` belongs to
    ``grid.indices[k]``.  The dtype is complex128 for DTFT and float64
    otherwise (the imaginary part is identically zero outside DTFT, so it is
    not stored).  Arrays are frozen after construction.
    """

    grid: AtomGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        wanted = np.complex128 if self.grid.transform is TransformKind.DTFT else np.float64
        arr = np.asarray(self.values)
        if wanted is np.float64 and np.iscomplexobj(arr):
            raise ContractError(f"{self.grid.transform.name} coefficients must be real-valued")
        arr = np.array(arr, dtype=wanted)
        if arr.shape != (self.grid.candidate_count,):
            raise ContractError(
                f"coefficient vector has shape {arr.shape}, grid expects ({self.grid.candidate_count},)"
            )
        if not np.all(np.isfinite(arr)):
            raise ContractError("coefficient values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoefficientVector):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    @staticmethod
    def _trusted(grid: AtomGrid, values: np.ndarray) -> "CoefficientVector":
        # batch encoders validate whole coefficient matrices in one pass;
        # re-checking per pixel would dominate dense-window encode time
        vec = object.__new__(CoefficientVector)
        object.__setattr__(vec, "grid", grid)
        object.__setattr__(vec, "values", values)
        return vec


class PixelMap(Mapping):
    """Read-only ``(x, y) -> item`` view of per-pixel columns.

    ``pixel_ids`` holds ``y * width + x`` in ascending order, which is
    row-major, i.e. (y, x), pixel order; ``item(row)`` builds the value of
    the pixel in that row, only when it is read.
    """

    def __init__(self, width: int, pixel_ids: np.ndarray, item: Callable[[int], object]):
        self.width = width
        self.pixel_ids = pixel_ids
        self._item = item

    def __len__(self) -> int:
        return self.pixel_ids.shape[0]

    def __iter__(self):
        width = self.width
        return ((pid % width, pid // width) for pid in self.pixel_ids.tolist())

    def __getitem__(self, key):
        try:
            x, y = key
            inside = 0 <= x < self.width and y >= 0
        except (TypeError, ValueError):
            inside = False
        if inside:
            pid = y * self.width + x
            row = int(np.searchsorted(self.pixel_ids, pid))
            if row < len(self) and self.pixel_ids[row] == pid:
                return self._item(row)
        raise KeyError(key)

    def items(self) -> ItemsView:
        return _RowItems(self)

    def values(self) -> ValuesView:
        return _RowValues(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} pixels)"


class _RowItems(ItemsView):
    def __iter__(self):  # row by row, without a key lookup per item
        return zip(self._mapping, map(self._mapping._item, range(len(self._mapping))))


class _RowValues(ValuesView):
    def __iter__(self):
        return map(self._mapping._item, range(len(self._mapping)))


class WindowCoefficients(PixelMap):
    """Coefficients of a window's active pixels: row ``i`` of ``coeffs`` is pixel ``pixel_ids[i]``.

    Reads as a mapping from ``(x, y)`` to :class:`CoefficientVector`.
    """

    def __init__(self, grid: AtomGrid, width: int, pixel_ids: np.ndarray, coeffs: np.ndarray):
        super().__init__(width, pixel_ids, lambda row: CoefficientVector._trusted(grid, coeffs[row]))
        self.grid = grid
        self.coeffs = coeffs


def atom_rows(
    transform: TransformKind,
    atoms: int | np.ndarray,
    taus: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Sample atoms at the given times, each sample times its event's weight.

    ``atoms`` is a count, for the leading block of positions
    ``0 .. atoms - 1`` (DWT counts must be powers of two: whole scales), or
    an array of positions.  Returns one row per position and one column per
    time, complex128 for DTFT and float64 otherwise: entry ``[r, i]`` is
    ``weights[i] * phi_k(taus[i])`` for the ``r``-th position ``k``, with
    weights of 1 when none are given.  ``taus`` must lie in ``[0, 1)``.
    """
    taus = np.asarray(taus, dtype=np.float64)
    if np.ndim(atoms):
        positions = np.asarray(atoms, dtype=np.int64)
        if transform is TransformKind.DWT:  # Haar samples are exact: the leading block answers lookups
            count = 1 << int(positions.max(initial=0)).bit_length()
            return atom_rows(transform, count, taus, weights)[positions]
        if transform is TransformKind.DCT:
            rows = np.cos(np.pi * positions[:, None] * taus[None, :])
        else:
            rows = np.exp(-2j * np.pi * positions[:, None] * taus[None, :])
        return rows if weights is None else rows * weights
    count = int(atoms)
    AtomGrid(transform, count)  # reuse grid validation
    n = taus.shape[0]
    seed = 1.0 if weights is None else weights
    if transform is TransformKind.DWT:
        out = np.zeros((count, n), dtype=np.float64)
        out[0] = seed
        cols = np.arange(n)
        for j in range(count.bit_length() - 1):
            u = taus * (1 << j)
            m = np.floor(u).astype(np.int64)  # active shift at this scale; tau < 1 keeps m < 2^j
            amp = 2.0 ** (j / 2.0)
            signs = np.where(u - m < 0.5, amp, -amp)
            out[(1 << j) + m, cols] = signs if weights is None else signs * weights
        return out
    # Weights fold into the seed rows, so each recurrence step is one pass.
    out = np.empty((count, n), dtype=np.complex128 if transform is TransformKind.DTFT else np.float64)
    out[0] = seed
    if count > 1:
        first = np.cos(np.pi * taus) if transform is TransformKind.DCT else np.exp(-2j * np.pi * taus)
        if weights is None:
            out[1] = first
        else:
            np.multiply(first, weights, out=out[1])
        if transform is TransformKind.DCT:
            two_c1 = 2.0 * first
            for k in range(2, count):  # cos((k+1)x) = 2 cos(x) cos(kx) - cos((k-1)x)
                np.subtract(two_c1 * out[k - 1], out[k - 2], out=out[k])
        else:
            for k in range(2, count):
                np.multiply(out[k - 1], first, out=out[k])
    return out


def _accumulate(grid: AtomGrid, taus: np.ndarray, weights: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Coefficients ``(len(starts), K)`` of events grouped by pixel.

    ``starts`` indexes the first event of each pixel's run.  Atom rows are
    built for pixel-aligned chunks of at most :data:`CHUNK_EVENTS` events (a
    pixel with more gets a chunk of its own) and summed with
    ``np.add.reduceat``.  A run's sum does not depend on what else shares its
    chunk, so a pixel gets the same bits from :func:`encode_pixel` and
    :func:`encode_window`.
    """
    ends = np.append(starts[1:], taus.shape[0])
    dtype = np.complex128 if grid.transform is TransformKind.DTFT else np.float64
    out = np.empty((starts.shape[0], grid.candidate_count), dtype=dtype)
    seg = 0
    while seg < starts.shape[0]:
        lo = starts[seg]
        stop = max(seg + 1, int(np.searchsorted(ends, lo + CHUNK_EVENTS, side="right")))
        hi = ends[stop - 1]
        rows = atom_rows(grid.transform, grid.candidate_count, taus[lo:hi], weights[lo:hi])
        out[seg:stop] = np.add.reduceat(rows, starts[seg:stop] - lo, axis=1).T
        seg = stop
    return out


def encode_pixel(
    taus: Sequence[float] | np.ndarray,
    polarities: Sequence[float] | np.ndarray,
    grid: AtomGrid,
) -> CoefficientVector:
    """Accumulate one pixel's impulse train into grid coefficients.

    ``values[k] = sum_i polarities[i] * phi_k(taus[i])``.  An empty input
    yields the all-zero vector.
    """
    taus = np.asarray(taus, dtype=np.float64)
    pol = np.asarray(polarities, dtype=np.float64)
    if taus.shape != pol.shape or taus.ndim != 1:
        raise ContractError(
            f"taus and polarities must be 1-D and equal length, got {taus.shape} vs {pol.shape}"
        )
    if taus.size and (taus.min() < 0.0 or taus.max() >= 1.0):
        raise ContractError("normalized times must lie in [0, 1)")
    if taus.size == 0:
        dtype = np.complex128 if grid.transform is TransformKind.DTFT else np.float64
        return CoefficientVector(grid, np.zeros(grid.candidate_count, dtype=dtype))
    return CoefficientVector(grid, _accumulate(grid, taus, pol, np.zeros(1, dtype=np.int64))[0])


def encode_window(
    window: EventWindow,
    transform: TransformKind,
    candidate_count: int,
) -> WindowCoefficients:
    """Encode every active pixel of a window independently.

    The transform choice is window-level; accumulation is per pixel.  Pixels
    with no events are absent from the result (implicitly zero).  Keys are
    ``(x, y)`` pairs in row-major pixel order; the result holds one
    ``(pixels, K)`` coefficient matrix and the pixel ids, nothing per pixel.
    """
    grid = AtomGrid(transform, candidate_count)
    width = window.geometry.width
    dtype = np.complex128 if transform is TransformKind.DTFT else np.float64
    if len(window) == 0:
        return WindowCoefficients(grid, width, np.zeros(0, dtype=np.int64), np.zeros((0, candidate_count), dtype))
    taus = normalize_times(window)
    events = window.events
    pixel_ids = events.y * width + events.x
    order = np.argsort(pixel_ids, kind="stable")  # stable: events stay time-ordered per pixel
    ids_sorted = pixel_ids[order]
    starts = np.flatnonzero(np.r_[True, ids_sorted[1:] != ids_sorted[:-1]])
    coeffs = _accumulate(grid, taus[order], events.p[order], starts)
    if not np.all(np.isfinite(coeffs)):
        raise ContractError("coefficient values must be finite")
    coeffs.setflags(write=False)
    ids = ids_sorted[starts]
    ids.setflags(write=False)
    return WindowCoefficients(grid, width, ids, coeffs)
