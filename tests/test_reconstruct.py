from __future__ import annotations

import numpy as np
import pytest

from evcompress import (
    AtomGrid,
    AtomIndex,
    ConfigurationError,
    ContractError,
    RetainedCoefficient,
    RetentionPolicy,
    SensorGeometry,
    TimeGrid,
    TransformKind,
    encode_pixel,
    encode_window,
    pack_descriptor,
    prune_magnitude,
    reconstruct_pixel,
    render_original_frame,
    render_reconstructed_frame,
)
from evcompress.events import Event, make_window

from conftest import random_window

GEO = SensorGeometry(height=4, width=4)
GRID = TimeGrid(128)
ALL_TRANSFORMS = (TransformKind.DCT, TransformKind.DTFT, TransformKind.DWT)


class TestTimeGrid:
    def test_midpoints(self):
        grid = TimeGrid(4)
        np.testing.assert_allclose(grid.points, [0.125, 0.375, 0.625, 0.875])

    def test_minimum_samples(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(1)


class TestReconstructPixel:
    def test_dc_only_is_constant(self):
        retained = (RetainedCoefficient(AtomIndex(TransformKind.DCT, 0), 3.0),)
        signal = reconstruct_pixel(retained, TransformKind.DCT, GRID)
        np.testing.assert_array_equal(signal, np.full(128, 3.0))

    def test_empty_retained_set_is_zero(self):
        assert not reconstruct_pixel((), TransformKind.DWT, GRID).any()

    def test_mixed_transforms_rejected(self):
        retained = (RetainedCoefficient(AtomIndex(TransformKind.DCT, 0), 1.0),)
        with pytest.raises(ContractError):
            reconstruct_pixel(retained, TransformKind.DWT, GRID)

    def test_single_event_full_dtft_peaks_at_event_time(self, rng):
        # oracle: the reconstruction is a periodic-sinc kernel centered on the event
        grid64 = AtomGrid(TransformKind.DTFT, 64)
        for _ in range(10):
            tau_star = float(rng.random())
            vec = encode_pixel([tau_star], [1.0], grid64)
            retained = prune_magnitude(vec, 64)
            signal = reconstruct_pixel(retained, TransformKind.DTFT, GRID)
            peak_bin = int(np.argmax(signal))
            true_bin = min(int(tau_star * GRID.samples), GRID.samples - 1)
            distance = min(abs(peak_bin - true_bin), GRID.samples - abs(peak_bin - true_bin))
            assert distance <= 2

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_full_retention_inverts_on_the_grid(self, transform, rng):
        # with every coefficient kept, the sampled reconstruction equals the
        # orthogonal projection of the impulse train; re-encoding the sampled
        # signal divided by G must reproduce the coefficients
        count = 32
        grid = AtomGrid(transform, count)
        taus = np.floor(rng.random(12) * 1e6) / 1e6
        pols = rng.choice([-1.0, 1.0], 12)
        vec = encode_pixel(taus, pols, grid)
        retained = tuple(
            RetainedCoefficient(grid.indices[k], vec.values[k]) for k in range(count)
        )
        signal = reconstruct_pixel(retained, transform, GRID)
        atoms = np.array(
            [[_atom(transform, k, t) for t in GRID.points] for k in range(count)]
        )
        recovered = atoms @ signal / GRID.samples
        np.testing.assert_allclose(recovered, vec.values, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_linearity_over_disjoint_retained_sets(self, transform, rng):
        grid = AtomGrid(transform, 16)
        values = rng.normal(size=16) + (1j * rng.normal(size=16) if transform is TransformKind.DTFT else 0)
        first = tuple(RetainedCoefficient(grid.indices[k], values[k]) for k in range(0, 8))
        second = tuple(RetainedCoefficient(grid.indices[k], values[k]) for k in range(8, 16))
        both = first + second
        np.testing.assert_allclose(
            reconstruct_pixel(both, transform, GRID),
            reconstruct_pixel(first, transform, GRID) + reconstruct_pixel(second, transform, GRID),
            rtol=0,
            atol=1e-12,
        )

    def test_residual_monotone_in_budget(self, rng):
        grid = AtomGrid(TransformKind.DTFT, 64)
        taus = rng.random(30)
        pols = rng.choice([-1.0, 1.0], 30)
        vec = encode_pixel(taus, pols, grid)
        full = reconstruct_pixel(prune_magnitude(vec, 64), TransformKind.DTFT, GRID)
        previous = np.inf
        for r in range(1, 65):
            partial = reconstruct_pixel(prune_magnitude(vec, r), TransformKind.DTFT, GRID)
            residual = float(np.linalg.norm(full - partial))
            assert residual <= previous + 1e-9
            previous = residual


def _atom(transform: TransformKind, position: int, tau: float) -> complex:
    from oracles import atom_sample

    return atom_sample(transform, position, tau)


class TestRenderOriginalFrame:
    def test_empty_window(self):
        w = make_window([], 0.0, 1.0, GEO)
        assert not render_original_frame(w).any()

    def test_net_polarity(self):
        evs = [Event(0.1, 2, 1, 1), Event(0.2, 2, 1, 1), Event(0.3, 2, 1, -1)]
        w = make_window(evs, 0.0, 1.0, GEO)
        frame = render_original_frame(w)
        assert frame[1, 2] == 1.0
        assert frame.sum() == 1.0

    def test_order_invariant(self, rng):
        evs = [Event(float(t), int(rng.integers(4)), int(rng.integers(4)), int(rng.choice([-1, 1]))) for t in np.sort(rng.random(50))]
        w1 = make_window(evs, 0.0, 1.0, GEO)
        w2 = make_window(list(reversed(evs)), 0.0, 1.0, GEO)
        np.testing.assert_array_equal(render_original_frame(w1), render_original_frame(w2))


class TestRenderReconstructedFrame:
    def test_zero_pixel_descriptor(self):
        empty = encode_window(make_window([], 0.0, 1.0, GEO), TransformKind.DWT, 8)
        desc = pack_descriptor(empty, RetentionPolicy(4), TransformKind.DWT, GEO, 0.0, 1.0)
        assert not render_reconstructed_frame(desc, GRID).any()

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_dc_retention_reproduces_net_polarity(self, transform, rng):
        w = random_window(rng, 50, GEO)
        per_pixel = encode_window(w, transform, 32)
        desc = pack_descriptor(per_pixel, RetentionPolicy(32), transform, GEO, w.t_start, w.duration)
        np.testing.assert_allclose(
            render_reconstructed_frame(desc, GRID), render_original_frame(w), rtol=0, atol=1e-9
        )

    def test_full_dct_retention_matches_original_frame(self, rng):
        # oracle: DC carries the net polarity; every higher cosine integrates
        # to zero on the midpoint grid
        w = random_window(rng, 20, GEO)
        per_pixel = encode_window(w, TransformKind.DCT, 64)
        desc = pack_descriptor(per_pixel, RetentionPolicy(64), TransformKind.DCT, GEO, w.t_start, w.duration)
        np.testing.assert_allclose(
            render_reconstructed_frame(desc, GRID), render_original_frame(w), rtol=0, atol=1e-6
        )
