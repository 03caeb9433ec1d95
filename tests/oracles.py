"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions, deliberately avoiding the
library's evaluation paths (recurrences, vectorized pruning, CDF tricks),
so a test comparing the two routes actually checks something.  The
exception is the second half: a frozen copy of the per-object descriptor
path, which the columnar library must match bit for bit.
"""

from __future__ import annotations

import itertools
import math
import struct
from pathlib import Path

import numpy as np

from evcompress import (
    AtomGrid,
    ConfigurationError,
    ContractError,
    FormatError,
    RetainedCoefficient,
    SensorGeometry,
    TransformKind,
    ValidationError,
    WindowDescriptor,
    atom_rows,
    retention_budget,
)

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def atom_sample(transform: TransformKind, position: int, tau: float) -> complex:
    """Closed-form atom value at one normalized time."""
    if transform is TransformKind.DCT:
        return math.cos(math.pi * position * tau)
    if transform is TransformKind.DTFT:
        angle = 2.0 * math.pi * position * tau
        return complex(math.cos(angle), -math.sin(angle))
    if position == 0:
        return 1.0
    scale = position.bit_length() - 1
    shift = position - (1 << scale)
    u = tau * (1 << scale) - shift
    if 0.0 <= u < 0.5:
        return 2.0 ** (scale / 2.0)
    if 0.5 <= u < 1.0:
        return -(2.0 ** (scale / 2.0))
    return 0.0


def binned_coefficients(
    taus: np.ndarray,
    polarities: np.ndarray,
    transform: TransformKind,
    candidate_count: int,
    bins: int = 10**6,
) -> np.ndarray:
    """Dense-binning encoder oracle.

    Bins the impulse train onto ``bins`` uniform sample points ``g / bins``
    (each impulse's mass goes to the nearest sample) and inner-products the
    binned train with the sampled atoms.  Empty bins contribute nothing, so
    only occupied bins are summed: the result is identical to the full
    dense sum.
    """
    mass: dict[int, float] = {}
    for tau, p in zip(taus, polarities):
        g = round(tau * bins)
        assert 0 <= g < bins
        mass[g] = mass.get(g, 0.0) + p
    occupied = sorted(mass)
    sample_taus = np.array([g / bins for g in occupied])
    weights = np.array([mass[g] for g in occupied])
    dtype = np.complex128 if transform is TransformKind.DTFT else np.float64
    out = np.zeros(candidate_count, dtype=dtype)
    for k in range(candidate_count):
        samples = np.array([atom_sample(transform, k, float(t)) for t in sample_taus], dtype=dtype)
        out[k] = np.sum(samples * weights)
    return out


def percentile_linear(values, q: float) -> float:
    """Linear-interpolation percentile: rank q*(n-1), interpolate neighbors."""
    xs = sorted(float(v) for v in values)
    rank = q * (len(xs) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(xs) - 1)
    frac = rank - lo
    return xs[lo] + frac * (xs[hi] - xs[lo])


def best_subset_energy(magnitudes: np.ndarray, r: int) -> float:
    """Exhaustive maximum of sum(|c|^2) over all size-r index subsets."""
    energies = [float(m) ** 2 for m in magnitudes]
    best = 0.0
    for subset in itertools.combinations(range(len(energies)), r):
        best = max(best, math.fsum(energies[i] for i in subset))
    return best


def mse_two_loop(a: np.ndarray, b: np.ndarray) -> float:
    """Direct two-loop MSE with the joint max(1, |.|) normalization."""
    peak = 1.0
    for row in range(a.shape[0]):
        for col in range(a.shape[1]):
            peak = max(peak, abs(a[row, col]), abs(b[row, col]))
    total = 0.0
    for row in range(a.shape[0]):
        for col in range(a.shape[1]):
            d = (a[row, col] - b[row, col]) / peak
            total += d * d
    return total / a.size


def ssim_sliding(a: np.ndarray, b: np.ndarray) -> float:
    """Direct sliding-window SSIM: explicit loops over valid positions."""
    half = (SSIM_WINDOW - 1) / 2.0
    coords = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(coords**2) / (2.0 * SSIM_SIGMA**2))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    peak = max(1.0, np.abs(a).max(), np.abs(b).max())
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    rows = a.shape[0] - SSIM_WINDOW + 1
    cols = a.shape[1] - SSIM_WINDOW + 1
    total = 0.0
    for row in range(rows):
        for col in range(cols):
            wa = a[row : row + SSIM_WINDOW, col : col + SSIM_WINDOW]
            wb = b[row : row + SSIM_WINDOW, col : col + SSIM_WINDOW]
            mu_a = float((kernel * wa).sum())
            mu_b = float((kernel * wb).sum())
            var_a = float((kernel * wa * wa).sum()) - mu_a * mu_a
            var_b = float((kernel * wb * wb).sum()) - mu_b * mu_b
            cov = float((kernel * wa * wb).sum()) - mu_a * mu_b
            total += ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
                (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
            )
    return total / (rows * cols)


def emd_linear_program(a: np.ndarray, b: np.ndarray) -> float:
    """Transport-LP oracle for the binned Wasserstein-1 distance.

    Minimizes sum f_ij * |i - j| / G over non-negative flows with marginals
    equal to the unit-normalized histograms.
    """
    from scipy.optimize import linprog

    bins = a.shape[0]
    a = a / a.sum()
    b = b / b.sum()
    cost = np.abs(np.subtract.outer(np.arange(bins), np.arange(bins))).reshape(-1) / bins
    a_eq = np.zeros((2 * bins, bins * bins))
    for i in range(bins):
        a_eq[i, i * bins : (i + 1) * bins] = 1.0  # row marginal
        a_eq[bins + i, i::bins] = 1.0  # column marginal
    result = linprog(
        cost,
        A_eq=a_eq,
        b_eq=np.concatenate([a, b]),
        bounds=(0.0, None),
        method="highs",
    )
    assert result.success
    return float(result.fun)


# --------------------------------------------------------------------------
# The per-object descriptor path, frozen.
#
# These are the pruning, packing, descriptor I/O, dense-tensor and
# reconstruction routines as they were when every retained coefficient was a
# ``RetainedCoefficient`` tuple: one pixel and one coefficient at a time,
# through ``struct``.  The columnar library must give the same bits; the
# tests in test_columnar.py and test_io.py compare the two.  Outputs whose
# library type changed shape are returned as plain tuples.

_HEADER = struct.Struct("<4sBBHHddHHI")
_PIXEL_HEADER = struct.Struct("<HHH")
_ENTRY_REAL = struct.Struct("<Hf")
_ENTRY_COMPLEX = struct.Struct("<Hff")


def _check_prune_args(coeffs, r, allowed):
    if coeffs.grid.transform not in allowed:
        names = "/".join(t.name for t in allowed)
        raise ContractError(f"pruning rule for {names} applied to {coeffs.grid.transform.name} coefficients")
    if not (0 <= r <= coeffs.grid.candidate_count):
        raise ContractError(f"retention count {r} outside [0, {coeffs.grid.candidate_count}]")


def prune_dct(coeffs, r):
    _check_prune_args(coeffs, r, (TransformKind.DCT,))
    indices = coeffs.grid.indices
    return tuple(map(RetainedCoefficient, indices[:r], coeffs.values[:r].tolist()))


def prune_magnitude(coeffs, r):
    _check_prune_args(coeffs, r, (TransformKind.DTFT, TransformKind.DWT))
    mags = np.abs(coeffs.values)
    order = np.argsort(-mags, kind="stable")[:r]
    keep = int(np.searchsorted(-mags[order], 0.0))
    order = order[:keep]
    indices = coeffs.grid.indices
    values = coeffs.values[order].tolist()
    return tuple(map(RetainedCoefficient, (indices[pos] for pos in order.tolist()), values))


def pack_descriptor(per_pixel, policy, transform, geometry, t_start, duration, candidate_count=None):
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
        AtomGrid(transform, candidate_count)

    r = retention_budget(policy.budget, candidate_count)
    prune = prune_dct if transform is TransformKind.DCT else prune_magnitude
    pixels = {}
    for key in sorted(per_pixel, key=lambda xy: (xy[1], xy[0])):
        vec = per_pixel[key]
        if not np.any(vec.values):
            continue
        pixels[key] = prune(vec, r)
    return WindowDescriptor(
        transform=transform,
        geometry=geometry,
        t_start=t_start,
        duration=duration,
        budget=policy.budget,
        candidate_count=candidate_count,
        pixels=pixels,
    )


def write_descriptor(descriptor, path) -> None:
    geo = descriptor.geometry
    for name, value in (("height", geo.height), ("width", geo.width),
                        ("budget", descriptor.budget), ("candidate_count", descriptor.candidate_count)):
        if value > 0xFFFF:
            raise ValidationError(f"descriptor {name} {value} overflows u16")
    parts = [
        _HEADER.pack(b"EECV", 1, int(descriptor.transform), geo.height, geo.width, descriptor.t_start,
                     descriptor.duration, descriptor.budget, descriptor.candidate_count, len(descriptor.pixels))
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


def read_descriptor(path):
    cursor = _Cursor(Path(path).read_bytes())
    (magic, version, transform_code, height, width,
     t_start, duration, budget, candidate_count, pixel_count) = cursor.take(_HEADER, "header")
    if magic != b"EECV":
        raise FormatError(f"byte 0: bad magic {magic!r}, expected {b'EECV'!r}")
    if version != 1:
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
    pixels = {}
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


def to_dense_tensor(descriptor):
    """``(values, channel_positions)`` of the dense ``(H, W, M)`` layout."""
    h, w = descriptor.geometry.height, descriptor.geometry.width
    values = np.zeros((h, w, descriptor.budget), dtype=np.float64)
    channel_positions = {}
    for (x, y), retained in descriptor.pixels.items():
        for chan, rc in enumerate(retained):
            values[y, x, chan] = rc.value.real if isinstance(rc.value, complex) else rc.value
        channel_positions[(x, y)] = tuple(rc.index.position for rc in retained)
    return values, channel_positions


def _reconstruction_weights(transform, positions):
    if transform is TransformKind.DWT:
        return np.ones(positions.shape[0])
    return np.where(positions == 0, 1.0, 2.0)


def reconstruct_pixel(retained, transform, grid):
    if not retained:
        return np.zeros(grid.samples, dtype=np.float64)
    for rc in retained:
        if rc.index.transform is not transform:
            raise ContractError(
                f"retained coefficient from {rc.index.transform.name} in a {transform.name} reconstruction"
            )
    positions = np.array([rc.index.position for rc in retained], dtype=np.int64)
    values = np.array([rc.value for rc in retained])
    atoms = atom_rows(transform, positions, grid.points)
    weighted = _reconstruction_weights(transform, positions) * values
    return (weighted[None, :] @ np.conj(atoms)).real[0]


def reconstruct_window(descriptor, grid):
    """``(frame, mass)``: each retained pixel reconstructed once."""
    signals = np.zeros((len(descriptor.pixels), grid.samples), dtype=np.float64)
    for row, retained in enumerate(descriptor.pixels.values()):
        signals[row] = reconstruct_pixel(retained, descriptor.transform, grid)
    frame = np.zeros((descriptor.geometry.height, descriptor.geometry.width), dtype=np.float64)
    if descriptor.pixels:
        xs, ys = np.array(list(descriptor.pixels)).T
        frame[ys, xs] = signals.mean(axis=1)
    return frame, np.abs(signals).sum(axis=0)
