from __future__ import annotations

import numpy as np
import pytest

from evcompress import (
    ConfigurationError,
    ContractError,
    MetricUndefinedError,
    RetentionPolicy,
    SensorGeometry,
    TimeGrid,
    TransformKind,
    emd_temporal,
    evaluate_window,
    event_time_histogram,
    encode_window,
    make_window,
    mse,
    pack_descriptor,
    ssim,
)
from evcompress.metrics import METRICS_CSV_HEADER, metrics_csv_row, MetricsReport

from conftest import random_window
from oracles import emd_linear_program, mse_two_loop, ssim_sliding

GEO16 = SensorGeometry(height=16, width=16)


class TestMse:
    def test_identity(self, rng):
        a = rng.normal(size=(8, 8))
        assert mse(a, a) == 0.0

    def test_unit_gap(self):
        a = np.ones((2, 2))
        b = np.zeros((2, 2))
        assert mse(a, b) == 1.0

    def test_matches_two_loop_oracle(self, rng):
        a = rng.normal(size=(9, 7)) * 3
        b = rng.normal(size=(9, 7)) * 3
        assert mse(a, b) == pytest.approx(mse_two_loop(a, b), rel=1e-12, abs=1e-15)

    def test_symmetric(self, rng):
        a = rng.normal(size=(5, 5)) * 4
        b = rng.normal(size=(5, 5))
        assert mse(a, b) == mse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            mse(np.zeros((2, 2)), np.zeros((3, 2)))


class TestSsim:
    def test_identity_is_one(self, rng):
        a = rng.normal(size=(16, 16))
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_negation_is_negative(self):
        # anticorrelation shows as a sign flip when local means are neutral;
        # a checkerboard keeps the luminance term at ~1 so the negative
        # covariance term governs
        rows, cols = np.indices((16, 16))
        a = 0.5 * np.where((rows + cols) % 2 == 0, 1.0, -1.0)
        assert ssim(a, -a) < 0.0

    def test_matches_sliding_window_oracle(self, rng):
        for _ in range(5):
            a = rng.normal(size=(16, 16)) * 2
            b = rng.normal(size=(16, 16)) * 2
            assert ssim(a, b) == pytest.approx(ssim_sliding(a, b), abs=1e-9)

    def test_bounded(self, rng):
        for _ in range(20):
            a = rng.normal(size=(12, 12)) * rng.uniform(0.1, 50)
            b = rng.normal(size=(12, 12)) * rng.uniform(0.1, 50)
            assert abs(ssim(a, b)) <= 1.0 + 1e-9

    def test_frame_smaller_than_window_rejected(self):
        with pytest.raises(ConfigurationError):
            ssim(np.zeros((10, 16)), np.zeros((10, 16)))

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            ssim(np.zeros((16, 16)), np.zeros((16, 17)))


class TestEmdTemporal:
    def test_identity(self, rng):
        h = rng.random(16)
        assert emd_temporal(h, h) == pytest.approx(0.0, abs=1e-15)

    def test_two_point_transport(self):
        a = np.zeros(128)
        b = np.zeros(128)
        a[0] = 1.0
        b[127] = 1.0
        assert emd_temporal(a, b) == pytest.approx(127.0 / 128.0, rel=1e-15)

    def test_both_zero(self):
        assert emd_temporal(np.zeros(8), np.zeros(8)) == 0.0

    def test_one_sided_zero_is_undefined(self):
        with pytest.raises(MetricUndefinedError):
            emd_temporal(np.zeros(8), np.ones(8))

    def test_matches_lp_oracle(self, rng):
        for _ in range(10):
            a = rng.random(8)
            b = rng.random(8)
            assert emd_temporal(a, b) == pytest.approx(emd_linear_program(a, b), abs=1e-9)

    def test_symmetric(self, rng):
        a, b = rng.random(8), rng.random(8)
        assert emd_temporal(a, b) == pytest.approx(emd_temporal(b, a), abs=1e-15)

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            a, b, c = rng.random(8), rng.random(8), rng.random(8)
            assert emd_temporal(a, c) <= emd_temporal(a, b) + emd_temporal(b, c) + 1e-12

    def test_negative_mass_rejected(self):
        with pytest.raises(ContractError):
            emd_temporal(np.array([-1.0, 2.0]), np.array([1.0, 0.0]))


class TestEvaluateWindow:
    def test_full_retention_dc_content_is_perfect(self, rng):
        w = random_window(rng, 120, GEO16)
        per_pixel = encode_window(w, TransformKind.DCT, 64)
        desc = pack_descriptor(per_pixel, RetentionPolicy(64), TransformKind.DCT, GEO16, w.t_start, w.duration)
        report = evaluate_window(w, desc, TimeGrid(128))
        assert report.mse == pytest.approx(0.0, abs=1e-12)
        assert report.ssim == pytest.approx(1.0, abs=1e-9)

    def test_empty_window_and_descriptor(self):
        w = make_window([], 0.0, 0.033, GEO16)
        desc = pack_descriptor(encode_window(w, TransformKind.DWT, 8), RetentionPolicy(8), TransformKind.DWT,
                               GEO16, 0.0, 0.033)
        report = evaluate_window(w, desc, TimeGrid(64))
        assert report.mse == 0.0
        assert report.emd == 0.0

    def test_geometry_mismatch_rejected(self, rng):
        w = random_window(rng, 10, GEO16)
        empty = make_window([], 0.0, w.duration, SensorGeometry(12, 12))
        desc = pack_descriptor(encode_window(empty, TransformKind.DWT, 8), RetentionPolicy(8), TransformKind.DWT,
                               SensorGeometry(12, 12), 0.0, w.duration)
        with pytest.raises(ContractError):
            evaluate_window(w, desc, TimeGrid(64))

    def test_tighter_budget_does_not_beat_looser_dtft(self, rng):
        # Table-direction check at desk scale: 24 coefficients never lose to
        # 8.  The window must be dense enough (~12 events/pixel) that the DC
        # atom actually competes for budget; on near-empty pixels both
        # budgets retain identical sets and the comparison is vacuous.
        w = random_window(rng, 3000, GEO16)
        per_pixel = encode_window(w, TransformKind.DTFT, 64)
        reports = {}
        for budget in (8, 24):
            desc = pack_descriptor(
                per_pixel, RetentionPolicy(budget), TransformKind.DTFT, GEO16, w.t_start, w.duration
            )
            reports[budget] = evaluate_window(w, desc, TimeGrid(128))
        assert reports[24].mse < reports[8].mse

    def test_event_histogram_counts(self, rng):
        w = random_window(rng, 75, GEO16)
        hist = event_time_histogram(w, 64)
        assert hist.sum() == 75.0
        assert np.all(hist >= 0)


def test_csv_row_format():
    row = metrics_csv_row(3, "DCT", 16, MetricsReport(mse=0.5, ssim=1.0, emd=0.25))
    assert METRICS_CSV_HEADER == "window_index,transform,M,mse,ssim,emd"
    assert row == "3,DCT,16,0.5,1.0,0.25"
