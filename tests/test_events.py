from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evcompress import (
    EmulatorConfig,
    Event,
    EventArray,
    SensorGeometry,
    ValidationError,
    compute_density,
    emulate,
    make_window,
    normalize_times,
)

GEO = SensorGeometry(height=2, width=2)


class TestEvent:
    def test_valid(self):
        ev = Event(t=0.5, x=1, y=0, p=-1)
        assert (ev.t, ev.x, ev.y, ev.p) == (0.5, 1, 0, -1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t=-1.0, x=0, y=0, p=1),
            dict(t=float("nan"), x=0, y=0, p=1),
            dict(t=float("inf"), x=0, y=0, p=1),
            dict(t=0.0, x=0, y=0, p=0),
            dict(t=0.0, x=0, y=0, p=2),
            dict(t=0.0, x=-1, y=0, p=1),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValidationError):
            Event(**kwargs)


class TestEventArray:
    def rows(self):
        return [Event(0.0, 1, 0, 1), Event(0.25, 0, 1, -1), Event(0.5, 1, 1, 1)]

    def test_behaves_as_a_sequence_of_events(self):
        rows = self.rows()
        arr = EventArray.from_events(rows)
        assert len(arr) == 3
        assert arr[1] == rows[1] and arr[-1] == rows[-1]
        assert list(arr) == rows
        assert arr == rows and arr == tuple(rows)
        assert arr != rows[:2] and arr != [*rows[:2], Event(0.5, 1, 1, -1)]
        assert rows[2] in arr
        with pytest.raises(IndexError):
            arr[3]

    def test_slices_are_event_arrays(self):
        arr = EventArray.from_events(self.rows())
        part = arr[1:]
        assert isinstance(part, EventArray)
        assert part == self.rows()[1:]
        assert part == EventArray([0.25, 0.5], [0, 1], [1, 1], [-1, 1])

    def test_column_dtypes(self):
        arr = EventArray.from_events(self.rows())
        assert [c.dtype for c in (arr.t, arr.x, arr.y, arr.p)] == [np.float64, np.int64, np.int64, np.int8]

    def test_read_only(self):
        arr = EventArray.from_events(self.rows())
        with pytest.raises(ValueError):
            arr.t[0] = 1.0
        with pytest.raises(AttributeError):
            arr.p = np.ones(3, dtype=np.int8)
        with pytest.raises(TypeError):
            arr[0] = Event(0.0, 0, 0, 1)
        w = make_window(list(reversed(self.rows())), 0.0, 1.0, GEO)  # sorting takes an index array
        assert not any(c.flags.writeable for c in (w.events.t, w.events.x, w.events.y, w.events.p))

    @pytest.mark.parametrize(
        "column,value",
        [("t", -1.0), ("t", float("nan")), ("x", -1), ("y", -2), ("p", 0), ("p", 257)],
    )
    def test_rejects_bad_rows_naming_the_first(self, column, value):
        cols = dict(t=[0.0, 0.1, 0.2], x=[0, 0, 0], y=[0, 0, 0], p=[1, 1, 1])
        cols[column][1] = value
        cols[column][2] = value
        with pytest.raises(ValidationError, match="event 1"):
            EventArray(**cols)

    def test_rejects_unequal_columns(self):
        with pytest.raises(ValidationError):
            EventArray([0.0, 1.0], [0], [0], [1])

    def test_emulated_rows_match_columns(self):
        arr = emulate(EmulatorConfig(geometry=GEO, duration=0.2, rate=200.0, seed=4))
        rebuilt = EventArray.from_events(list(arr))
        assert rebuilt == arr and len(arr) > 0


class TestMakeWindow:
    def test_empty_window(self):
        w = make_window([], 0.0, 0.033, GEO)
        assert len(w) == 0

    def test_sorts_by_timestamp(self):
        evs = [Event(0.01, 0, 0, 1), Event(0.005, 1, 1, -1)]
        w = make_window(evs, 0.0, 0.033, GEO)
        assert [ev.t for ev in w.events] == [0.005, 0.01]

    def test_sort_is_stable_on_ties(self):
        first = Event(0.01, 0, 0, 1)
        second = Event(0.01, 1, 1, -1)
        w = make_window([first, second], 0.0, 0.033, GEO)
        assert w.events == (first, second)

    def test_rejects_out_of_range_x(self):
        with pytest.raises(ValidationError, match="event 0"):
            make_window([Event(0.0, GEO.width, 0, 1)], 0.0, 0.033, GEO)

    def test_rejects_out_of_window_timestamp(self):
        with pytest.raises(ValidationError, match="event 1"):
            make_window([Event(0.01, 0, 0, 1), Event(0.04, 0, 0, 1)], 0.0, 0.033, GEO)

    def test_upper_edge_belongs_to_next_window(self):
        with pytest.raises(ValidationError):
            make_window([Event(0.5, 0, 0, 1)], 0.0, 0.5, GEO)

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValidationError):
            make_window([], 0.0, 0.0, GEO)


class TestComputeDensity:
    def test_zero_events(self):
        assert compute_density(make_window([], 0.0, 0.5, GEO)) == 0.0

    def test_direct_arithmetic(self):
        evs = [Event(0.1 * i, i % 2, i // 2 % 2, 1) for i in range(4)]
        w = make_window(evs, 0.0, 0.5, GEO)
        assert compute_density(w) == pytest.approx(2.0)  # 4 / (2*2*0.5)

    def test_against_high_precision_oracle(self, rng):
        # N = 29690 over a 346x260 sensor, 33 ms window
        geo = SensorGeometry(height=346, width=260)
        count, duration = 29690, 0.033
        taus = np.linspace(0.0, duration, count, endpoint=False)
        evs = [Event(float(t), int(i % 260), int(i % 346), 1) for i, t in enumerate(taus)]
        w = make_window(evs, 0.0, duration, geo)
        oracle = Fraction(count) / (Fraction(346 * 260) * Fraction(33, 1000))
        assert float(oracle) == pytest.approx(10.001077920153065, rel=1e-15)
        assert compute_density(w) == pytest.approx(float(oracle), rel=1e-12)

    @given(st.integers(min_value=1, max_value=64))
    def test_duplicating_events_doubles_density(self, n):
        evs = [Event(0.001 * i, 0, 0, 1) for i in range(n)]
        w = make_window(evs, 0.0, 0.5, GEO)
        w2 = make_window(evs + evs, 0.0, 0.5, GEO)
        assert compute_density(w2) == pytest.approx(2.0 * compute_density(w), rel=1e-15)

    def test_permutation_invariance(self, rng):
        evs = [Event(float(t), int(rng.integers(2)), int(rng.integers(2)), 1) for t in rng.random(32)]
        w1 = make_window(evs, 0.0, 1.0, GEO)
        w2 = make_window(list(reversed(evs)), 0.0, 1.0, GEO)
        assert compute_density(w1) == compute_density(w2)


class TestNormalizeTimes:
    def test_boundary_values(self):
        evs = [Event(1.0, 0, 0, 1), Event(1.25, 0, 0, 1), Event(1.4995, 0, 0, 1)]
        w = make_window(evs, 1.0, 0.5, GEO)
        np.testing.assert_allclose(normalize_times(w), [0.0, 0.5, 0.999], rtol=0, atol=1e-12)

    def test_order_preserved(self, rng):
        evs = sorted(
            (Event(float(t), 0, 0, 1) for t in rng.random(20) * 0.4),
            key=lambda ev: ev.t,
        )
        w = make_window(evs, 0.0, 0.5, GEO)
        taus = normalize_times(w)
        assert np.all(np.diff(taus) >= 0)

    def test_inverse_affine_recovers_timestamps(self, rng):
        t_start, duration = 3.0, 0.033
        evs = sorted(
            (Event(float(t_start + u * duration), 0, 0, 1) for u in rng.random(100)),
            key=lambda ev: ev.t,
        )
        w = make_window(evs, t_start, duration, GEO)
        recovered = normalize_times(w) * duration + t_start
        original = np.array([ev.t for ev in w.events])
        np.testing.assert_allclose(recovered, original, rtol=0, atol=np.spacing(t_start + duration))
