"""Inverse-transform signal reconstruction and frame rendering.

Reconstruction treats unretained coefficients as exactly zero and inverts
with the orthogonality weights of each family on ``[0, 1)``::

    s_hat(tau) = sum_k w_k * Re[ c_k * conj(phi_k(tau)) ]

* DCT:  ``w_0 = 1``, ``w_k = 2`` for ``k >= 1`` (``integral cos^2(pi k tau) = 1/2``)
* DTFT: ``w_0 = 1``, ``w_n = 2`` for ``n >= 1`` (real signal, folded spectrum)
* DWT:  all weights 1 (Haar atoms are orthonormal)

Signals are sampled on a midpoint grid ``tau_g = (g + 1/2) / G``; midpoints
avoid the Haar discontinuities at dyadic rationals, and every cosine,
exponential, and Haar atom resolvable by the grid integrates to exactly zero
on it, so the sampled mean of a reconstruction equals its retained DC
coefficient.

Frames render a window as signed net polarity per pixel: the minimal rule
whose DC term every transform preserves exactly, which keeps frame fidelity
attributable to compression rather than to the rendering choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .calibration import TransformKind
from .errors import ConfigurationError, ContractError
from .events import EventWindow
from .pruning import RetainedCoefficient, WindowDescriptor
from .transforms import atom_rows

__all__ = [
    "TimeGrid",
    "reconstruct_pixel",
    "render_original_frame",
    "render_reconstructed_frame",
    "reconstruct_window",
]


@dataclass(frozen=True)
class TimeGrid:
    """Midpoint sampling grid over normalized window time ``[0, 1)``."""

    samples: int = 128

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise ConfigurationError(f"time grid needs at least 2 samples, got {self.samples}")

    @cached_property
    def points(self) -> np.ndarray:
        pts = (np.arange(self.samples) + 0.5) / self.samples
        pts.setflags(write=False)
        return pts


def _weights(transform: TransformKind, positions: np.ndarray) -> np.ndarray:
    if transform is TransformKind.DWT:
        return np.ones(positions.shape[0])
    return np.where(positions == 0, 1.0, 2.0)


def _signal(transform: TransformKind, positions: np.ndarray, values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """One pixel's reconstruction on the grid from its retained positions and values."""
    if positions.shape[0] == 0:
        return np.zeros(grid.samples, dtype=np.float64)
    atoms = atom_rows(transform, positions, grid.points)
    weighted = _weights(transform, positions) * values
    return (weighted[None, :] @ np.conj(atoms)).real[0]


def reconstruct_pixel(
    retained: Sequence[RetainedCoefficient],
    transform: TransformKind,
    grid: TimeGrid,
) -> np.ndarray:
    """Sample one pixel's reconstructed signal on the grid.

    Returns a length-``grid.samples`` float array; an empty retained set
    yields the all-zero signal.
    """
    for rc in retained:
        if rc.index.transform is not transform:
            raise ContractError(
                f"retained coefficient from {rc.index.transform.name} in a {transform.name} reconstruction"
            )
    positions = np.array([rc.index.position for rc in retained], dtype=np.int64)
    return _signal(transform, positions, np.array([rc.value for rc in retained]), grid)


def render_original_frame(window: EventWindow) -> np.ndarray:
    """Net-polarity frame of a window: ``frame[y, x] = sum of p at (x, y)``."""
    frame = np.zeros((window.geometry.height, window.geometry.width), dtype=np.float64)
    if len(window):
        np.add.at(frame, (window.events.y, window.events.x), window.events.p)
    return frame


def reconstruct_window(descriptor: WindowDescriptor, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct each retained pixel once; return its frame and temporal mass.

    The frame holds each pixel's mean reconstructed signal (see
    :func:`render_reconstructed_frame`); the mass is the rectified signal
    ``|s_hat|`` per grid sample, pooled over pixels.
    """
    d = descriptor
    signals = np.zeros((d.pixel_ids.shape[0], grid.samples), dtype=np.float64)
    for row in range(signals.shape[0]):
        span = d.entries(row)
        signals[row] = _signal(d.transform, d.positions[span], d.values[span], grid)
    frame = np.zeros((d.geometry.height, d.geometry.width), dtype=np.float64)
    frame.flat[d.pixel_ids] = signals.mean(axis=1)
    return frame, np.abs(signals).sum(axis=0)


def render_reconstructed_frame(descriptor: WindowDescriptor, grid: TimeGrid) -> np.ndarray:
    """Frame of a descriptor: per-pixel mean of the reconstructed signal.

    The midpoint-rule mean estimates ``integral_0^1 s_hat``, which equals
    the retained DC coefficient exactly whenever the DC atom is retained.
    """
    return reconstruct_window(descriptor, grid)[0]
