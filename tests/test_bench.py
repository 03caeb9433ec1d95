from __future__ import annotations

import time

import pytest

import evcompress.bench
from evcompress import (
    ContractError,
    EmulatorConfig,
    Event,
    SensorGeometry,
    TransformKind,
    bench_encoders,
    emulate,
)
from evcompress.pipeline import DensitySnapshot

GEO = SensorGeometry(height=8, width=8)


def small_stream():
    return emulate(EmulatorConfig(geometry=GEO, duration=0.2, rate=400.0, seed=13))


class TestBenchEncoders:
    def test_report_shape(self):
        report = bench_encoders(small_stream(), GEO, budget=8, candidate_count=16, repetitions=5)
        assert set(report.encoders) == {TransformKind.DCT, TransformKind.DTFT, TransformKind.DWT}
        assert report.repetitions == 5
        assert report.event_count == len(small_stream())
        for bench in report.encoders.values():
            assert bench.mean_ms > 0.0
            assert bench.throughput_kev_s > 0.0

    def test_relative_efficiency_arithmetic(self):
        report = bench_encoders(small_stream(), GEO, budget=8, candidate_count=16, repetitions=5)
        best = max(b.throughput_kev_s for b in report.encoders.values())
        for bench in report.encoders.values():
            assert bench.relative_efficiency == pytest.approx(100.0 * bench.throughput_kev_s / best)
            assert bench.relative_efficiency <= 100.0
        assert any(b.relative_efficiency == 100.0 for b in report.encoders.values())

    def test_single_event_stream_completes(self):
        report = bench_encoders([Event(0.001, 0, 0, 1)], GEO, budget=8, candidate_count=16, repetitions=5)
        for bench in report.encoders.values():
            assert bench.throughput_kev_s > 0.0

    def test_measurement_stability_across_repetition_counts(self):
        stream = emulate(EmulatorConfig(geometry=GEO, duration=0.3, rate=1500.0, seed=14))
        a = bench_encoders(stream, GEO, budget=8, candidate_count=32, repetitions=6)
        b = bench_encoders(stream, GEO, budget=8, candidate_count=32, repetitions=12)
        for transform in TransformKind:
            lo_a = a.encoders[transform].mean_ms - 2 * a.encoders[transform].std_ms
            hi_a = a.encoders[transform].mean_ms + 2 * a.encoders[transform].std_ms
            lo_b = b.encoders[transform].mean_ms - 2 * b.encoders[transform].std_ms
            hi_b = b.encoders[transform].mean_ms + 2 * b.encoders[transform].std_ms
            assert lo_a <= hi_b and lo_b <= hi_a  # overlapping 2-sigma intervals

    def test_rejects_too_few_repetitions(self):
        with pytest.raises(ContractError):
            bench_encoders(small_stream(), GEO, budget=8, candidate_count=16, repetitions=4)

    def test_rejects_empty_stream(self):
        with pytest.raises(ContractError):
            bench_encoders([], GEO, budget=8, candidate_count=16, repetitions=5)

    def test_throughput_divides_by_wall_time(self, monkeypatch):
        # each window takes 10 ms of wall time but reports 1 ms of encode time
        def sleepy(window, config, thresholds, window_index=0):
            time.sleep(0.01)
            return None, DensitySnapshot(window_index, 0.0, None, config.force_transform, len(window), 0.001)

        monkeypatch.setattr(evcompress.bench, "compress_window", sleepy)
        stream = small_stream()
        report = bench_encoders(stream, GEO, budget=8, candidate_count=16, repetitions=5, window_duration=0.05)
        assert report.window_count == 4
        wall_kev_s = len(stream) / (report.window_count * 0.01) / 1e3
        for transform in TransformKind:
            assert 0.5 * wall_kev_s < report.encoders[transform].throughput_kev_s <= wall_kev_s
