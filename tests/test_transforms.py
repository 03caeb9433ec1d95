from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from evcompress import (
    AtomGrid,
    AtomIndex,
    ConfigurationError,
    ContractError,
    SensorGeometry,
    TransformKind,
    atom_rows,
    encode_pixel,
    encode_window,
    make_window,
)
from evcompress.events import Event, EventArray
from evcompress.transforms import CHUNK_EVENTS

from conftest import random_window
from oracles import atom_sample, binned_coefficients

ALL_TRANSFORMS = (TransformKind.DCT, TransformKind.DTFT, TransformKind.DWT)


class TestAtomIndex:
    def test_haar_position_layout(self):
        assert AtomIndex.haar(0, 0).position == 1
        assert AtomIndex.haar(1, 0).position == 2
        assert AtomIndex.haar(1, 1).position == 3
        assert AtomIndex.haar(2, 3).position == 7

    def test_scale_shift_round_trip(self):
        for position in range(1, 64):
            idx = AtomIndex(TransformKind.DWT, position)
            j, m = idx.scale_shift
            assert AtomIndex.haar(j, m) == idx
            assert 0 <= m < (1 << j)

    def test_shift_bounded_by_scale(self):
        with pytest.raises(ContractError):
            AtomIndex.haar(1, 2)

    def test_dc_flag(self):
        assert AtomIndex(TransformKind.DCT, 0).is_dc
        assert not AtomIndex(TransformKind.DWT, 5).is_dc


class TestAtomGrid:
    def test_canonical_ordering_is_by_position(self):
        grid = AtomGrid(TransformKind.DWT, 8)
        assert [idx.position for idx in grid.indices] == list(range(8))
        assert [idx.scale_shift for idx in grid.indices] == [
            None, (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3),
        ]

    def test_dwt_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            AtomGrid(TransformKind.DWT, 12)

    def test_requires_positive_count(self):
        with pytest.raises(ConfigurationError):
            AtomGrid(TransformKind.DCT, 0)


def at_positions(transform: TransformKind, positions, taus) -> np.ndarray:
    return atom_rows(transform, np.array(positions), np.array(taus, dtype=np.float64))


class TestAtomValue:
    """``atom_rows`` at explicit positions: the closed forms (Haar: block lookups)."""

    def test_dct_dc_is_one(self):
        np.testing.assert_array_equal(at_positions(TransformKind.DCT, [0], [0.0, 0.3, 0.99]), np.ones((1, 3)))

    def test_dtft_quarter_turn(self):
        value = at_positions(TransformKind.DTFT, [1], [0.25])[0, 0]
        assert value == pytest.approx(-1j, abs=1e-15)

    def test_haar_second_half_is_negative(self):
        assert at_positions(TransformKind.DWT, [AtomIndex.haar(0, 0).position], [0.75, 0.25]).tolist() == [[-1.0, 1.0]]

    def test_haar_off_support_is_zero(self):
        assert at_positions(TransformKind.DWT, [AtomIndex.haar(2, 0).position], [0.9])[0, 0] == 0.0

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_matches_independent_closed_form(self, transform, rng):
        taus = rng.random(50)
        positions = (0, 1, 2, 5, 17, 63)
        rows = at_positions(transform, positions, taus)
        assert rows.shape == (len(positions), 50)
        for row, position in zip(rows, positions):
            for got, tau in zip(row, taus):
                assert got == pytest.approx(atom_sample(transform, position, float(tau)), abs=1e-15)

    def test_dwt_positions_are_leading_block_rows(self, rng):
        taus = rng.random(300)
        block = atom_rows(TransformKind.DWT, 64, taus)
        for positions in ([0], [5], [63, 0, 17, 2], list(range(64))):
            np.testing.assert_array_equal(at_positions(TransformKind.DWT, positions, taus), block[positions])


class TestAtomMatrix:
    """``atom_rows`` for a leading block: the recurrences (Haar: the per-scale scatter)."""

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_recurrences_match_closed_forms(self, transform, rng):
        taus = rng.random(257)
        rows = atom_rows(transform, 64, taus)
        direct = np.array(
            [[atom_sample(transform, k, float(t)) for t in taus] for k in range(64)]
        )
        np.testing.assert_allclose(rows, direct, rtol=0, atol=1e-12)

    def test_haar_orthonormal_on_fine_grid(self):
        # midpoint grid resolves every scale in a 64-atom grid exactly
        points = (np.arange(2**16) + 0.5) / 2**16
        rows = atom_rows(TransformKind.DWT, 64, points)
        gram = rows @ rows.T / 2**16
        np.testing.assert_allclose(gram, np.eye(64), rtol=0, atol=1e-3)


class TestEncodePixel:
    def test_single_event_at_zero_dct(self):
        grid = AtomGrid(TransformKind.DCT, 8)
        vec = encode_pixel([0.0], [1.0], grid)
        np.testing.assert_array_equal(vec.values, np.ones(8))

    def test_cancellation(self):
        grid = AtomGrid(TransformKind.DTFT, 8)
        vec = encode_pixel([0.3, 0.3], [1.0, -1.0], grid)
        np.testing.assert_array_equal(vec.values, np.zeros(8))

    def test_empty_is_zero_vector(self):
        grid = AtomGrid(TransformKind.DWT, 16)
        vec = encode_pixel([], [], grid)
        np.testing.assert_array_equal(vec.values, np.zeros(16))

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            encode_pixel([0.1, 0.2], [1.0], AtomGrid(TransformKind.DCT, 4))

    def test_rejects_tau_out_of_range(self):
        with pytest.raises(ContractError):
            encode_pixel([1.0], [1.0], AtomGrid(TransformKind.DCT, 4))

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_matches_dense_binning_oracle(self, transform, rng):
        # 10 microsecond-quantized events against the 1e6-bin oracle
        taus = np.floor(rng.random(10) * 1e6) / 1e6
        pols = rng.choice([-1.0, 1.0], 10)
        grid = AtomGrid(transform, 16)
        got = encode_pixel(taus, pols, grid).values
        want = binned_coefficients(taus, pols, transform, 16)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_linearity_over_partitions(self, transform, rng):
        grid = AtomGrid(transform, 32)
        taus = rng.random(40)
        pols = rng.choice([-1.0, 1.0], 40)
        whole = encode_pixel(taus, pols, grid).values
        parts = encode_pixel(taus[:13], pols[:13], grid).values + encode_pixel(taus[13:], pols[13:], grid).values
        np.testing.assert_allclose(whole, parts, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_polarity_antisymmetry(self, transform, rng):
        grid = AtomGrid(transform, 32)
        taus = rng.random(25)
        pols = rng.choice([-1.0, 1.0], 25)
        np.testing.assert_array_equal(
            encode_pixel(taus, -pols, grid).values,
            -encode_pixel(taus, pols, grid).values,
        )

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_dc_equals_net_polarity(self, transform, rng):
        grid = AtomGrid(transform, 16)
        pols = rng.choice([-1.0, 1.0], 30)
        vec = encode_pixel(rng.random(30), pols, grid)
        assert vec.values[0] == pytest.approx(pols.sum(), abs=1e-12)

    def test_dtft_magnitudes_shift_invariant(self, rng):
        grid = AtomGrid(TransformKind.DTFT, 32)
        taus = rng.random(40)
        pols = rng.choice([-1.0, 1.0], 40)
        delta = 0.37
        shifted = encode_pixel((taus + delta) % 1.0, pols, grid)
        base = encode_pixel(taus, pols, grid)
        np.testing.assert_allclose(np.abs(shifted.values), np.abs(base.values), rtol=0, atol=1e-12)

    def test_dtft_shift_covariance(self, rng):
        grid = AtomGrid(TransformKind.DTFT, 16)
        taus = rng.random(20)
        pols = rng.choice([-1.0, 1.0], 20)
        delta = 0.2121
        shifted = encode_pixel((taus + delta) % 1.0, pols, grid).values
        base = encode_pixel(taus, pols, grid).values
        phases = np.exp(-2j * np.pi * np.arange(16) * delta)
        np.testing.assert_allclose(shifted, base * phases, rtol=0, atol=1e-10)

    def test_deterministic(self, rng):
        grid = AtomGrid(TransformKind.DWT, 16)
        taus = rng.random(64)
        pols = rng.choice([-1.0, 1.0], 64)
        first = encode_pixel(taus, pols, grid).values
        second = encode_pixel(taus, pols, grid).values
        assert np.array_equal(first, second)


class TestEncodeWindow:
    GEO = SensorGeometry(height=5, width=7)

    def test_empty_window(self):
        w = make_window([], 0.0, 1.0, self.GEO)
        assert encode_window(w, TransformKind.DCT, 8) == {}

    def test_single_pixel(self):
        evs = [Event(0.1, 3, 2, 1), Event(0.5, 3, 2, -1)]
        w = make_window(evs, 0.0, 1.0, self.GEO)
        out = encode_window(w, TransformKind.DCT, 8)
        assert set(out) == {(3, 2)}

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_matches_per_pixel_partition_oracle(self, transform, rng):
        w = random_window(rng, 100, self.GEO)
        out = encode_window(w, transform, 16)
        grid = AtomGrid(transform, 16)
        by_pixel: dict[tuple[int, int], list[Event]] = {}
        for ev in w.events:
            by_pixel.setdefault((ev.x, ev.y), []).append(ev)
        assert set(out) == set(by_pixel)
        for key, evs in by_pixel.items():
            taus = [(ev.t - w.t_start) / w.duration for ev in evs]
            want = encode_pixel(taus, [ev.p for ev in evs], grid).values
            np.testing.assert_allclose(out[key].values, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_every_pixel_equals_encode_pixel_bit_for_bit(self, transform, rng):
        # more than one chunk of events, and one pixel with more than a chunk of its own
        geo = SensorGeometry(height=20, width=30)
        n = 2 * CHUNK_EVENTS + 5_000
        xs = rng.integers(0, geo.width, n)
        ys = rng.integers(0, geo.height, n)
        hot = rng.random(n) < 0.6
        xs[hot], ys[hot] = 7, 3
        assert hot.sum() > CHUNK_EVENTS
        events = EventArray(np.sort(rng.random(n)), xs, ys, rng.choice([-1, 1], n))
        w = make_window(events, 0.0, 1.0, geo)
        grid = AtomGrid(transform, 16)
        out = encode_window(w, transform, 16)
        assert len(out) == len(set(zip(xs.tolist(), ys.tolist())))
        for (x, y), vec in out.items():
            mine = (w.events.x == x) & (w.events.y == y)
            assert np.array_equal(vec.values, encode_pixel(w.events.t[mine], w.events.p[mine], grid).values)

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_dense_sensor_window_memory_is_bounded(self, transform, rng):
        # a DAVIS346-sized window: 297k events over 346x260 pixels at K=64
        geo = SensorGeometry(height=260, width=346)
        n = 297_000
        events = EventArray(
            np.sort(rng.random(n)), rng.integers(0, geo.width, n), rng.integers(0, geo.height, n),
            rng.choice([-1, 1], n),
        )
        w = make_window(events, 0.0, 1.0, geo)
        tracemalloc.start()
        try:
            out = encode_window(w, transform, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        itemsize = 16 if transform is TransformKind.DTFT else 8
        assert peak <= len(out) * 64 * itemsize + 96 * 2**20

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_dense_sensor_window_holds_only_its_columns(self, transform, rng):
        # the window above; once encode_window returns, only the (P, K) matrix and
        # the pixel ids (16 B per pixel allowed) may stay allocated, nothing per pixel
        geo = SensorGeometry(height=260, width=346)
        n = 297_000
        events = EventArray(
            np.sort(rng.random(n)), rng.integers(0, geo.width, n), rng.integers(0, geo.height, n),
            rng.choice([-1, 1], n),
        )
        w = make_window(events, 0.0, 1.0, geo)
        tracemalloc.start()
        try:
            out = encode_window(w, transform, 64)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        itemsize = 16 if transform is TransformKind.DTFT else 8
        assert held <= len(out) * (64 * itemsize + 16) + 2**20

    def test_dwt_non_power_of_two_rejected(self, rng):
        w = random_window(rng, 10, self.GEO)
        with pytest.raises(ConfigurationError):
            encode_window(w, TransformKind.DWT, 12)
