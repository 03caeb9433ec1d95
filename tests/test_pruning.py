from __future__ import annotations

import math

import numpy as np
import pytest

from evcompress import (
    AtomGrid,
    CoefficientVector,
    ConfigurationError,
    ContractError,
    RetentionPolicy,
    SensorGeometry,
    TransformKind,
    encode_window,
    pack_descriptor,
    prune_dct,
    prune_magnitude,
    retention_budget,
    to_dense_tensor,
)

from conftest import random_window
from oracles import best_subset_energy, channel_positions, coefficient_vectors, window_coefficients

GEO = SensorGeometry(height=4, width=4)


def vector(transform: TransformKind, values) -> CoefficientVector:
    values = np.asarray(values)
    return CoefficientVector(AtomGrid(transform, len(values)), values)


class TestRetentionBudget:
    @pytest.mark.parametrize("budget,count,expected", [(16, 64, 16), (16, 8, 8), (24, 24, 24)])
    def test_min_rule(self, budget, count, expected):
        assert retention_budget(budget, count) == expected

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigurationError):
            retention_budget(0, 8)

    def test_default_policy_is_16(self):
        assert RetentionPolicy().budget == 16


class TestPruneDct:
    def test_keeps_first_indices_regardless_of_magnitude(self):
        retained = prune_dct(vector(TransformKind.DCT, [5.0, 0.0, 9.0, 1.0]), 2)
        assert [rc.index.position for rc in retained] == [0, 1]
        assert [rc.value for rc in retained] == [5.0, 0.0]

    def test_full_budget_is_identity(self):
        vec = vector(TransformKind.DCT, [3.0, -1.0, 2.0])
        retained = prune_dct(vec, 3)
        assert [rc.value for rc in retained] == [3.0, -1.0, 2.0]

    def test_all_zero_vector_keeps_zero_values(self):
        retained = prune_dct(vector(TransformKind.DCT, [0.0] * 5), 3)
        assert [rc.index.position for rc in retained] == [0, 1, 2]
        assert all(rc.value == 0.0 for rc in retained)

    def test_transform_mismatch(self):
        with pytest.raises(ContractError):
            prune_dct(vector(TransformKind.DWT, [1.0, 2.0]), 1)


class TestPruneMagnitude:
    def test_top_two(self):
        retained = prune_magnitude(vector(TransformKind.DWT, [0.5, 2.0, -2.0, 0.1]), 2)
        assert sorted(rc.index.position for rc in retained) == [1, 2]

    def test_ties_favor_lower_position(self):
        retained = prune_magnitude(vector(TransformKind.DWT, [1.0, -1.0, 1.0, 0.0]), 2)
        assert [rc.index.position for rc in retained] == [0, 1]

    def test_budget_at_least_count_keeps_everything(self):
        vec = vector(TransformKind.DTFT, [1.0 + 1j, 0.5j, -2.0])
        retained = prune_magnitude(vec, 3)
        assert sorted(rc.index.position for rc in retained) == [0, 1, 2]

    def test_complex_modulus_ranks_dtft(self):
        vec = vector(TransformKind.DTFT, [3.0 + 4.0j, 4.0, 0.0 + 4.5j])
        retained = prune_magnitude(vec, 2)
        assert [rc.index.position for rc in retained] == [0, 2]  # |3+4j| = 5 first

    def test_output_sorted_by_descending_magnitude_then_position(self):
        vec = vector(TransformKind.DWT, [1.0, 3.0, -3.0, 2.0])
        retained = prune_magnitude(vec, 4)
        assert [rc.index.position for rc in retained] == [1, 2, 3, 0]

    def test_exact_zeros_never_retained(self):
        vec = vector(TransformKind.DWT, [0.0, 2.0, 0.0, 1.0])
        retained = prune_magnitude(vec, 4)
        assert [rc.index.position for rc in retained] == [1, 3]

    def test_transform_mismatch(self):
        with pytest.raises(ContractError):
            prune_magnitude(vector(TransformKind.DCT, [1.0, 2.0]), 1)

    @pytest.mark.parametrize("count", [5, 8, 12])
    def test_retained_energy_is_subset_optimal(self, count, rng):
        values = rng.normal(size=count) + 1j * rng.normal(size=count)
        vec = vector(TransformKind.DTFT, values)
        mags = np.abs(values)
        for r in range(1, count + 1):
            retained = prune_magnitude(vec, r)
            energy = math.fsum(abs(rc.value) ** 2 for rc in retained)
            assert energy == pytest.approx(best_subset_energy(mags, r), rel=1e-12)

    def test_nested_retained_sets(self, rng):
        values = rng.normal(size=16)
        values[rng.integers(0, 16, 4)] = values[0]  # inject ties
        vec = vector(TransformKind.DWT, values)
        previous: set[int] = set()
        for r in range(1, 17):
            current = {rc.index.position for rc in prune_magnitude(vec, r)}
            assert previous <= current
            previous = current

    def test_energy_monotone_in_budget(self, rng):
        vec = vector(TransformKind.DWT, rng.normal(size=16))
        energies = [
            math.fsum(abs(rc.value) ** 2 for rc in prune_magnitude(vec, r)) for r in range(1, 17)
        ]
        assert all(e2 >= e1 for e1, e2 in zip(energies, energies[1:]))

    def test_dtft_selected_set_invariant_under_time_shift(self, rng):
        # |c_n| is shift-invariant, so absent ties the retained index set is too
        from evcompress import AtomGrid, encode_pixel

        grid = AtomGrid(TransformKind.DTFT, 32)
        taus = rng.random(40)
        pols = rng.choice([-1.0, 1.0], 40)
        base = encode_pixel(taus, pols, grid)
        shifted = encode_pixel((taus + 0.31) % 1.0, pols, grid)
        for r in (4, 8, 16):
            assert {rc.index.position for rc in prune_magnitude(base, r)} == {
                rc.index.position for rc in prune_magnitude(shifted, r)
            }


class TestPackDescriptor:
    def test_empty_map(self):
        empty = window_coefficients({}, AtomGrid(TransformKind.DWT, 8), GEO.width)
        desc = pack_descriptor(empty, RetentionPolicy(4), TransformKind.DWT, GEO, 0.0, 0.033)
        assert desc.pixels == {}
        assert desc.candidate_count == 8

    def test_dct_keeps_first_sixteen_of_sixty_four(self, rng):
        grid = AtomGrid(TransformKind.DCT, 64)
        vec = CoefficientVector(grid, rng.normal(size=64))
        coeffs = window_coefficients({(1, 2): vec}, grid, GEO.width)
        desc = pack_descriptor(coeffs, RetentionPolicy(16), TransformKind.DCT, GEO, 0.0, 0.033)
        assert [rc.index.position for rc in desc.pixels[(1, 2)]] == list(range(16))

    def test_dwt_strictly_decreasing_magnitudes_keep_prefix(self, rng):
        # oracle: sort-by-magnitude on strictly decreasing values is the prefix
        values = np.linspace(8.0, 1.0, 8)
        vec = vector(TransformKind.DWT, values)
        coeffs = window_coefficients({(0, 0): vec}, vec.grid, GEO.width)
        desc = pack_descriptor(coeffs, RetentionPolicy(3), TransformKind.DWT, GEO, 0.0, 0.033)
        assert [rc.index.position for rc in desc.pixels[(0, 0)]] == [0, 1, 2]

    def test_all_zero_pixels_dropped(self):
        zero = vector(TransformKind.DWT, np.zeros(8))
        lively = vector(TransformKind.DWT, np.arange(8.0))
        coeffs = window_coefficients({(0, 0): zero, (1, 0): lively}, zero.grid, GEO.width)
        desc = pack_descriptor(coeffs, RetentionPolicy(4), TransformKind.DWT, GEO, 0.0, 0.033)
        assert set(desc.pixels) == {(1, 0)}

    def test_transform_mismatch_rejected(self):
        a = vector(TransformKind.DWT, np.ones(8))
        coeffs = window_coefficients({(0, 0): a}, a.grid, GEO.width)
        with pytest.raises(ContractError, match="does not match"):
            pack_descriptor(coeffs, RetentionPolicy(4), TransformKind.DCT, GEO, 0.0, 0.033)

    @pytest.mark.parametrize("transform", [TransformKind.DCT, TransformKind.DTFT, TransformKind.DWT])
    def test_budget_law(self, transform, rng):
        w = random_window(rng, 400, GEO)  # dense enough that pixels have many nonzero candidates
        per_pixel = encode_window(w, transform, 16)
        desc = pack_descriptor(per_pixel, RetentionPolicy(6), transform, GEO, w.t_start, w.duration)
        for retained in desc.pixels.values():
            assert len(retained) <= 6
        vectors = coefficient_vectors(per_pixel, GEO.width)
        dense_pixels = [k for k, v in vectors.items() if np.count_nonzero(v.values) >= 6]
        for key in dense_pixels:
            assert len(desc.pixels[key]) == 6


class TestDenseTensor:
    def test_zero_pixel_descriptor(self):
        empty = window_coefficients({}, AtomGrid(TransformKind.DCT, 8), GEO.width)
        desc = pack_descriptor(empty, RetentionPolicy(4), TransformKind.DCT, GEO, 0.0, 0.033)
        tensor = to_dense_tensor(desc)
        assert tensor.values.shape == (4, 4, 4)
        assert not tensor.values.any()

    def test_full_fiber_matches_retained_order(self, rng):
        grid = AtomGrid(TransformKind.DTFT, 4)
        vec = CoefficientVector(grid, rng.normal(size=4) + 1j * rng.normal(size=4))
        coeffs = window_coefficients({(2, 1): vec}, grid, GEO.width)
        desc = pack_descriptor(coeffs, RetentionPolicy(4), TransformKind.DTFT, GEO, 0.0, 0.033)
        tensor = to_dense_tensor(desc)
        fiber = tensor.values[1, 2]
        np.testing.assert_array_equal(fiber, [rc.value.real for rc in desc.pixels[(2, 1)]])

    def test_round_trip_recovers_real_parts(self, rng):
        w = random_window(rng, 60, GEO)
        per_pixel = encode_window(w, TransformKind.DTFT, 8)
        desc = pack_descriptor(per_pixel, RetentionPolicy(5), TransformKind.DTFT, GEO, w.t_start, w.duration)
        tensor = to_dense_tensor(desc)
        # identity round-trip: tensor + the descriptor's positions reproduce real parts
        for key, retained in desc.pixels.items():
            x, y = key
            positions = channel_positions(desc)[key]
            assert positions == tuple(rc.index.position for rc in retained)
            for chan, rc in enumerate(retained):
                assert tensor.values[y, x, chan] == rc.value.real
            assert not tensor.values[y, x, len(retained):].any()

    def test_deterministic_packing(self, rng):
        w = random_window(rng, 80, GEO)
        per_pixel = encode_window(w, TransformKind.DWT, 8)
        a = pack_descriptor(per_pixel, RetentionPolicy(4), TransformKind.DWT, GEO, 0.0, 1.0)
        b = pack_descriptor(per_pixel, RetentionPolicy(4), TransformKind.DWT, GEO, 0.0, 1.0)
        assert np.array_equal(to_dense_tensor(a).values, to_dense_tensor(b).values)
        assert channel_positions(a) == channel_positions(b)
