"""Fidelity metrics: MSE and SSIM on rendered frames, EMD on temporal mass.

MSE and SSIM share one dynamic-range convention: both frames are judged
against ``L = max(1, max(|a|, |b|))`` taken jointly over the pair, which
keeps values comparable across scenes and makes both metrics symmetric.

EMD compares temporal mass distributions pooled over all pixels of a window:
``G`` bins over normalized time, unit-normalized, scored with the 1-D
Wasserstein-1 distance ``sum_g |CDF_a(g) - CDF_b(g)| / G`` in
normalized-time units.  The reconstructed side uses rectified signal mass
(``|s_hat|``) because transport needs non-negative weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, ContractError, MetricUndefinedError
from .events import EventWindow, normalize_times
from .pruning import WindowDescriptor
from .reconstruct import TimeGrid, reconstruct_window, render_original_frame

__all__ = [
    "MetricsReport",
    "mse",
    "ssim",
    "emd_temporal",
    "event_time_histogram",
    "evaluate_window",
    "METRICS_CSV_HEADER",
    "metrics_csv_row",
]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

METRICS_CSV_HEADER = "window_index,transform,M,mse,ssim,emd"


@dataclass(frozen=True, slots=True)
class MetricsReport:
    """MSE / SSIM / EMD for one (original, reconstructed) window pair."""

    mse: float
    ssim: float
    emd: float


def _joint_range(a: np.ndarray, b: np.ndarray) -> float:
    peak = 0.0
    if a.size:
        peak = max(np.abs(a).max(), np.abs(b).max())
    return max(1.0, float(peak))


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error between frames after joint range normalization."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError(f"frame shapes differ: {a.shape} vs {b.shape}")
    scale = _joint_range(a, b)
    diff = (a - b) / scale
    return float(np.mean(diff * diff))


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local structural similarity over all fully covered 11x11 windows.

    Gaussian weighting (sigma 1.5), stability constants ``C1 = (0.01 L)^2``
    and ``C2 = (0.03 L)^2`` with the joint dynamic range ``L`` (floor 1).
    Frames smaller than the window are rejected.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError(f"frame shapes differ: {a.shape} vs {b.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ConfigurationError(
            f"frames must be at least {SSIM_WINDOW}x{SSIM_WINDOW} for SSIM, got {a.shape}"
        )
    kernel = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    dynamic_range = _joint_range(a, b)
    c1 = (SSIM_K1 * dynamic_range) ** 2
    c2 = (SSIM_K2 * dynamic_range) ** 2

    def local_mean(img: np.ndarray) -> np.ndarray:
        windows = sliding_window_view(img, (SSIM_WINDOW, SSIM_WINDOW))
        return np.tensordot(windows, kernel, axes=([2, 3], [0, 1]))

    mu_a = local_mean(a)
    mu_b = local_mean(b)
    var_a = local_mean(a * a) - mu_a * mu_a
    var_b = local_mean(b * b) - mu_b * mu_b
    cov = local_mean(a * b) - mu_a * mu_b
    ssim_map = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(ssim_map.mean())


def emd_temporal(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Wasserstein-1 distance between two temporal histograms on ``[0, 1)``.

    Both histograms must cover the same ``G`` bins with non-negative mass.
    They are normalized to unit mass before transport; two all-zero
    histograms are at distance 0, while exactly one being all-zero leaves
    the metric undefined and raises :class:`MetricUndefinedError`.
    """
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractError(f"histograms must be 1-D and equal length, got {a.shape} vs {b.shape}")
    if np.any(a < 0.0) or np.any(b < 0.0) or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ContractError("histogram masses must be finite and non-negative")
    total_a = a.sum()
    total_b = b.sum()
    if total_a == 0.0 and total_b == 0.0:
        return 0.0
    if total_a == 0.0 or total_b == 0.0:
        raise MetricUndefinedError("EMD is undefined when exactly one histogram has zero mass")
    cdf_gap = np.cumsum(a / total_a) - np.cumsum(b / total_b)
    return float(np.abs(cdf_gap).sum() / a.shape[0])


def event_time_histogram(window: EventWindow, bins: int) -> np.ndarray:
    """Unsigned per-bin event counts over normalized time, pooled over pixels."""
    hist = np.zeros(bins, dtype=np.float64)
    if len(window):
        taus = normalize_times(window)
        idx = np.clip((taus * bins).astype(np.int64), 0, bins - 1)
        np.add.at(hist, idx, 1.0)
    return hist


def evaluate_window(
    window: EventWindow,
    descriptor: WindowDescriptor,
    grid: TimeGrid,
) -> MetricsReport:
    """Score a descriptor against the window it was compressed from."""
    if descriptor.geometry != window.geometry:
        raise ContractError("descriptor geometry does not match the window")
    if not math.isclose(descriptor.duration, window.duration, rel_tol=1e-12, abs_tol=0.0):
        raise ContractError("descriptor duration does not match the window")
    original = render_original_frame(window)
    reconstructed, mass = reconstruct_window(descriptor, grid)
    return MetricsReport(
        mse=mse(original, reconstructed),
        ssim=ssim(original, reconstructed),
        emd=emd_temporal(event_time_histogram(window, grid.samples), mass),
    )


def metrics_csv_row(window_index: int, transform_name: str, budget: int, report: MetricsReport) -> str:
    """One CSV row matching :data:`METRICS_CSV_HEADER`."""
    return f"{window_index},{transform_name},{budget},{report.mse!r},{report.ssim!r},{report.emd!r}"
