from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evcompress import (
    ConfigurationError,
    ContractError,
    DensityThresholds,
    EmulatorConfig,
    Event,
    PipelineConfig,
    Regime,
    RetentionPolicy,
    SensorGeometry,
    TransformKind,
    classify_regime,
    compress_stream,
    compress_window,
    compute_density,
    emulate,
    encode_window,
    monitor_summary,
    pack_descriptor,
    select_transform,
    windowize,
)
from evcompress.pipeline import DecisionLog, DensitySnapshot, _window_index

GEO = SensorGeometry(height=8, width=8)
THRESHOLDS = DensityThresholds(5.0, 50.0)


class TestWindowize:
    def test_two_events_one_window(self):
        events = [Event(0.01, 0, 0, 1), Event(0.02, 1, 1, -1)]
        windows = windowize(events, 0.033, GEO)
        assert len(windows) == 1
        assert len(windows[0]) == 2

    def test_two_events_two_windows(self):
        events = [Event(0.01, 0, 0, 1), Event(0.05, 1, 1, -1)]
        windows = windowize(events, 0.033, GEO)
        assert [len(w) for w in windows] == [1, 1]

    def test_boundary_event_belongs_to_upper_window(self):
        events = [Event(0.25, 0, 0, 1), Event(0.5, 0, 0, 1)]
        windows = windowize(events, 0.25, GEO)
        assert [len(w) for w in windows] == [1, 1]
        assert windows[1].t_start == 0.5

    def test_alignment_is_absolute(self):
        # first event in window 3 of an absolute tiling, not at its own time
        events = [Event(0.8, 0, 0, 1)]
        windows = windowize(events, 0.25, GEO)
        assert len(windows) == 1
        assert windows[0].t_start == 0.75

    def test_interior_empty_windows_are_emitted(self):
        events = [Event(0.01, 0, 0, 1), Event(0.99, 0, 0, 1)]
        windows = windowize(events, 0.25, GEO)
        assert [len(w) for w in windows] == [1, 0, 0, 1]

    def test_tiling_covers_every_event_once(self, rng):
        ts = np.sort(rng.random(500) * 3.0)
        events = [Event(float(t), int(rng.integers(8)), int(rng.integers(8)), 1) for t in ts]
        windows = windowize(events, 0.033, GEO)
        assert sum(len(w) for w in windows) == 500
        seen = [ev for w in windows for ev in w.events]
        assert seen == events

    def test_awkward_float_duration_tiles_consistently(self, rng):
        # boundaries like k * 0.1 are not exactly representable; membership
        # must still partition the stream
        ts = np.sort(np.concatenate([rng.random(300) * 2.0, np.arange(1, 20) * 0.1]))
        events = [Event(float(t), 0, 0, 1) for t in ts]
        windows = windowize(events, 0.1, GEO)
        assert sum(len(w) for w in windows) == len(events)
        for w in windows:
            for ev in w.events:
                assert w.t_start <= ev.t or np.isclose(w.t_start, ev.t)

    def test_columns_and_rows_give_the_same_windows(self):
        stream = emulate(EmulatorConfig(geometry=GEO, duration=0.3, rate=300.0, seed=21))
        from_columns = windowize(stream, 0.025, GEO)
        from_rows = windowize(list(stream), 0.025, GEO)
        assert [(w.t_start, w.events) for w in from_columns] == [(w.t_start, w.events) for w in from_rows]

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(1e-4, 1.0),
        st.lists(st.integers(0, 100_000), min_size=1, max_size=20),
        st.lists(st.floats(0.0, 1e4), max_size=20),
    )
    def test_window_index_matches_scalar_reference(self, duration, ks, free):
        def reference(t: float) -> int:  # the per-event form the vectorized one replaced
            k = int(t // duration)
            if (k + 1) * duration <= t:
                k += 1
            elif k * duration > t:
                k -= 1
            return k

        edges = np.array(ks, dtype=np.float64) * duration
        ts = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf).clip(0.0), free])
        assert _window_index(ts, duration).tolist() == [reference(t) for t in ts.tolist()]

    def test_empty_stream(self):
        assert windowize([], 0.033, GEO) == []

    def test_unsorted_rejected(self):
        events = [Event(0.05, 0, 0, 1), Event(0.01, 0, 0, 1)]
        with pytest.raises(ContractError):
            windowize(events, 0.033, GEO)

    def test_out_of_geometry_rejected(self):
        events = [Event(0.01, 20, 0, 1)]
        with pytest.raises(ContractError):
            windowize(events, 0.033, GEO)


class TestDecisionLog:
    def test_indices_strictly_increasing(self):
        log = DecisionLog()
        log.append(DensitySnapshot(0, 1.0, Regime.SPARSE, TransformKind.DWT, 3, 0.001))
        with pytest.raises(ContractError):
            log.append(DensitySnapshot(0, 2.0, Regime.DENSE, TransformKind.DCT, 5, 0.001))

    def test_csv_export(self, tmp_path):
        log = DecisionLog()
        log.append(DensitySnapshot(0, 1.5, Regime.MODERATE, TransformKind.DTFT, 7, 0.002))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "window,density,regime,transform,events,encode_ms"
        assert lines[1] == "0,1.5,MODERATE,DTFT,7,2.0"


class TestCompressWindow:
    def test_thresholds_or_forced_transform_required(self, rng):
        windows = windowize(emulate(EmulatorConfig(geometry=GEO, duration=0.1, rate=100.0, seed=4)), 0.033, GEO)
        with pytest.raises(ConfigurationError):
            compress_window(windows[0], PipelineConfig(), None)

    def test_forced_transform_recorded(self, rng):
        events = emulate(EmulatorConfig(geometry=GEO, duration=0.1, rate=100.0, seed=4))
        windows = windowize(events, 0.033, GEO)
        config = PipelineConfig(force_transform=TransformKind.DWT)
        descriptor, snapshot = compress_window(windows[0], config, None)
        assert descriptor.transform is TransformKind.DWT
        assert snapshot.regime is None

    def test_dct_narrowed_grid_equals_full_grid_packing(self, rng):
        # the pipeline evaluates only the first r cosine atoms; the retained
        # sets must match a full-grid encode followed by low-frequency pruning
        events = emulate(EmulatorConfig(geometry=GEO, duration=0.1, rate=200.0, seed=8))
        windows = windowize(events, 0.033, GEO)
        config = PipelineConfig(budget=6, candidate_count=64, force_transform=TransformKind.DCT)
        for w in windows:
            fast, _ = compress_window(w, config, None)
            per_pixel = encode_window(w, TransformKind.DCT, 64)
            slow = pack_descriptor(
                per_pixel, RetentionPolicy(6), TransformKind.DCT, GEO, w.t_start, w.duration
            )
            assert set(fast.pixels) == set(slow.pixels)
            for key in fast.pixels:
                fast_list = [(rc.index.position, rc.value) for rc in fast.pixels[key]]
                slow_list = [(rc.index.position, rc.value) for rc in slow.pixels[key]]
                np.testing.assert_allclose(
                    [v for _, v in fast_list], [v for _, v in slow_list], rtol=0, atol=1e-12
                )
                assert [p for p, _ in fast_list] == [p for p, _ in slow_list]


class TestCompressStream:
    def _stream(self, rate: float, seed: int = 21):
        return emulate(EmulatorConfig(geometry=GEO, duration=0.5, rate=rate, seed=seed))

    def test_empty_stream(self):
        descriptors, log = compress_stream([], GEO, PipelineConfig(), THRESHOLDS)
        assert descriptors == []
        assert len(log) == 0

    def test_all_dense_streams_use_dct(self):
        events = self._stream(rate=500.0)
        config = PipelineConfig(window_duration=0.05)
        descriptors, log = compress_stream(events, GEO, config, THRESHOLDS)
        assert descriptors
        assert all(d.transform is TransformKind.DCT for d in descriptors)
        assert all(s.regime is Regime.DENSE for s in log)

    def test_selection_purity_replay(self):
        events = self._stream(rate=30.0)
        config = PipelineConfig(window_duration=0.05)
        descriptors, log = compress_stream(events, GEO, config, THRESHOLDS)
        for descriptor, snapshot in zip(descriptors, log):
            assert descriptor.transform is select_transform(classify_regime(snapshot.density, THRESHOLDS))
            assert descriptor.transform is snapshot.transform

    def test_streaming_equals_batch(self):
        events = self._stream(rate=80.0)
        config = PipelineConfig(window_duration=0.05)
        descriptors, _ = compress_stream(events, GEO, config, THRESHOLDS)
        windows = windowize(events, 0.05, GEO)
        for index, window in enumerate(windows):
            solo, _ = compress_window(window, config, THRESHOLDS, window_index=index)
            assert solo == descriptors[index]

    def test_empty_windows_produce_empty_descriptors(self):
        events = [Event(0.01, 0, 0, 1), Event(0.16, 0, 0, 1)]
        descriptors, log = compress_stream(events, GEO, PipelineConfig(window_duration=0.05), THRESHOLDS)
        assert len(descriptors) == 4
        assert descriptors[1].pixels == {} and descriptors[2].pixels == {}
        assert log.snapshots[1].regime is Regime.SPARSE  # density 0 < tau_low
        assert descriptors[1].transform is TransformKind.DWT

    def test_log_matches_window_count_and_density(self):
        events = self._stream(rate=60.0)
        config = PipelineConfig(window_duration=0.05)
        descriptors, log = compress_stream(events, GEO, config, THRESHOLDS)
        windows = windowize(events, 0.05, GEO)
        assert len(descriptors) == len(windows) == len(log)
        for window, snapshot in zip(windows, log):
            assert snapshot.density == compute_density(window)
            assert snapshot.event_count == len(window)


class TestMonitorSummary:
    def test_empty_log_is_zeroed(self):
        summary = monitor_summary(DecisionLog())
        assert summary.window_count == 0
        assert (summary.sparse_count, summary.moderate_count, summary.dense_count) == (0, 0, 0)
        assert summary.density_mean == summary.density_min == summary.density_max == 0.0
        assert summary.encode_stats == {}

    def test_regime_counts(self):
        log = DecisionLog()
        for i in range(8):
            regime = Regime.SPARSE if i < 4 else Regime.DENSE
            transform = select_transform(regime)
            log.append(DensitySnapshot(i, float(i), regime, transform, i, 0.001))
        summary = monitor_summary(log)
        assert (summary.sparse_count, summary.moderate_count, summary.dense_count) == (4, 0, 4)

    def test_density_mean_matches_direct_recomputation(self, rng):
        log = DecisionLog()
        densities = rng.random(40) * 100
        for i, d in enumerate(densities):
            log.append(DensitySnapshot(i, float(d), Regime.MODERATE, TransformKind.DTFT, 5, 0.001))
        summary = monitor_summary(log)
        assert summary.density_mean == pytest.approx(float(np.mean(densities)), rel=1e-12)
        assert summary.density_min == densities.min()
        assert summary.density_max == densities.max()

    def test_per_transform_encode_stats(self):
        log = DecisionLog()
        log.append(DensitySnapshot(0, 1.0, Regime.DENSE, TransformKind.DCT, 5, 0.002))
        log.append(DensitySnapshot(1, 1.0, Regime.DENSE, TransformKind.DCT, 5, 0.004))
        log.append(DensitySnapshot(2, 0.1, Regime.SPARSE, TransformKind.DWT, 2, 0.001))
        summary = monitor_summary(log)
        assert summary.encode_stats[TransformKind.DCT].count == 2
        assert summary.encode_stats[TransformKind.DCT].mean_ms == pytest.approx(3.0)
        assert TransformKind.DTFT not in summary.encode_stats
