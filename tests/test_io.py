from __future__ import annotations

import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from evcompress import (
    AtomGrid,
    CoefficientVector,
    ConfigurationError,
    ContractError,
    EmulatorConfig,
    EvCompressError,
    Event,
    FormatError,
    ParseError,
    RetainedCoefficient,
    SensorGeometry,
    TransformKind,
    ValidationError,
    WindowDescriptor,
    emulate,
    read_descriptor,
    read_events,
    write_descriptor,
    write_events,
)

GEO = SensorGeometry(height=8, width=8)


def random_descriptor(rng: np.random.Generator, transform: TransformKind) -> WindowDescriptor:
    candidate_count = int(rng.choice([8, 16, 64]))
    budget = int(rng.integers(1, 20))
    grid = AtomGrid(transform, candidate_count)
    pixels = {}
    for _ in range(int(rng.integers(0, 12))):
        key = (int(rng.integers(0, GEO.width)), int(rng.integers(0, GEO.height)))
        r = int(rng.integers(1, min(budget, candidate_count) + 1))
        positions = rng.choice(candidate_count, size=r, replace=False)
        retained = []
        for pos in positions:
            # f32-representable values so file round-trips are bit-exact
            re = float(np.float32(rng.normal()))
            if transform is TransformKind.DTFT:
                im = float(np.float32(rng.normal()))
                retained.append(RetainedCoefficient(grid.indices[int(pos)], complex(re, im)))
            else:
                retained.append(RetainedCoefficient(grid.indices[int(pos)], re))
        pixels[key] = tuple(retained)
    t_start = float(np.float64(rng.random() * 10))
    return oracles.descriptor_from_pixels(transform, GEO, t_start, 0.033, budget, candidate_count, pixels)


class TestEventCsv:
    def test_reads_single_row(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("t,x,y,p\n0.001,3,2,1\n")
        events = read_events(path, "csv")
        assert events == [Event(0.001, 3, 2, 1)]

    def test_zero_polarity_maps_to_minus_one(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("t,x,y,p\n0.5,0,0,0\n")
        assert read_events(path, "csv")[0].p == -1

    def test_round_trip(self, tmp_path, rng):
        events = [
            Event(float(t), int(rng.integers(0, 64)), int(rng.integers(0, 64)), int(rng.choice([-1, 1])))
            for t in np.sort(rng.random(100))
        ]
        path = tmp_path / "events.csv"
        write_events(path, events, "csv")
        assert read_events(path, "csv") == events

    @pytest.mark.parametrize(
        "content,error,match",
        [
            ("time,x,y,p\n", ParseError, "line 1"),
            ("t,x,y,p\n0.1,2,3\n", ParseError, "line 2"),
            ("t,x,y,p\nabc,2,3,1\n", ParseError, "line 2"),
            ("t,x,y,p\n0.1,2,3,5\n", ValidationError, "line 2"),
            ("t,x,y,p\n-0.1,2,3,1\n", ValidationError, "line 2"),
            ("t,x,y,p\n0.1,70000,3,1\n", ValidationError, "overflow"),
        ],
    )
    def test_malformed_rows(self, tmp_path, content, error, match):
        path = tmp_path / "events.csv"
        path.write_text(content)
        with pytest.raises(error, match=match):
            read_events(path, "csv")


class TestEventBinary:
    def test_round_trip_1000_events(self, tmp_path, rng):
        events = [
            Event(float(t), int(rng.integers(0, 1024)), int(rng.integers(0, 1024)), int(rng.choice([-1, 1])))
            for t in np.sort(rng.random(1000) * 5)
        ]
        path = tmp_path / "events.bin"
        write_events(path, events, "binary")
        assert read_events(path, "binary") == events

    def test_record_layout(self, tmp_path):
        path = tmp_path / "events.bin"
        write_events(path, [Event(1.5, 3, 2, -1)], "binary")
        blob = path.read_bytes()
        assert len(blob) == 13
        assert struct.unpack("<dHHb", blob) == (1.5, 3, 2, -1)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "events.bin"
        write_events(path, [Event(1.5, 3, 2, -1)], "binary")
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="byte 0"):
            read_events(path, "binary")

    def test_bad_polarity_rejected(self, tmp_path):
        path = tmp_path / "events.bin"
        path.write_bytes(struct.pack("<dHHb", 0.1, 0, 0, 3))
        with pytest.raises(ValidationError):
            read_events(path, "binary")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_events(tmp_path / "x", "json")


RECORD = 13  # <f8,<u2,<u2,<i1


def read_mangled(blob: bytes, name: str, format: str):
    """``read_events`` on ``blob``; returns the error it raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(blob)
        with pytest.raises(EvCompressError) as info:
            read_events(path, format)
    return info.value


def valid_binary(count: int) -> bytearray:
    blob = bytearray()
    for i in range(count):
        blob += struct.pack("<dHHb", 0.001 * i, i % 7, i % 5, (0, 1, -1)[i % 3])
    return blob


class TestEventReaderFuzz:
    """Damaged files raise the error taxonomy, naming the first bad record and its byte."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_truncated_binary(self, count, data):
        cut = data.draw(st.integers(0, count * RECORD - 1).filter(lambda n: n % RECORD))
        err = read_mangled(bytes(valid_binary(count)[:cut]), "e.bin", "binary")
        assert isinstance(err, FormatError)
        assert f"record {cut // RECORD} (byte {cut // RECORD * RECORD})" in str(err)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_bad_polarity_or_timestamp_binary(self, count, data):
        blob = valid_binary(count)
        indices = data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=4, unique=True))
        for i in indices:
            if data.draw(st.booleans()):
                blob[i * RECORD + 12] = data.draw(st.integers(2, 254))  # as i8: every value but -1, 0, 1
            else:
                bad_t = data.draw(st.sampled_from([math.nan, -math.inf, math.inf]) | st.floats(max_value=-1e-300))
                struct.pack_into("<d", blob, i * RECORD, bad_t)
        err = read_mangled(bytes(blob), "e.bin", "binary")
        assert isinstance(err, ValidationError)
        first = min(indices)
        assert f"record {first} (byte {first * RECORD})" in str(err)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.data())
    def test_malformed_csv_row(self, count, data):
        rows = [f"{0.001 * i!r},{i % 7},{i % 5},{i % 2}" for i in range(count)]
        bad = data.draw(st.integers(0, count - 1))
        rows[bad] = data.draw(st.sampled_from(
            ["0.1,2,3", "0.1,2,3,1,5", "abc,2,3,1", "0.1,x,3,1", "0.1,2,3.5,1", "0.1,2,3,", ",,,", "0.1;2;3;1"]
        ))
        blanks = data.draw(st.lists(st.integers(0, count), max_size=3))  # blank lines shift line numbers
        lines = ["t,x,y,p"]
        for i, row in enumerate(rows):
            lines.extend([""] * blanks.count(i))
            lines.append(row)
            if i == bad:
                lineno = len(lines)
        err = read_mangled(("\n".join(lines) + "\n").encode(), "e.csv", "csv")
        assert isinstance(err, ParseError)
        assert f"line {lineno}:" in str(err)


class TestDescriptorFile:
    def test_empty_descriptor_file_size(self, tmp_path):
        # oracle: sum of header field widths = 4+1+1+2+2+8+8+2+2+4 = 34
        desc = WindowDescriptor(TransformKind.DWT, GEO, 0.0, 0.033, 16, 64, [], [], [], [])
        path = tmp_path / "w.eecv"
        write_descriptor(desc, path)
        assert path.stat().st_size == 34

    @pytest.mark.parametrize("transform", [TransformKind.DCT, TransformKind.DTFT, TransformKind.DWT])
    def test_round_trip_identity(self, tmp_path, rng, transform):
        for i in range(25):
            desc = random_descriptor(rng, transform)
            path = tmp_path / f"d{i}.eecv"
            write_descriptor(desc, path)
            assert read_descriptor(path) == desc

    def test_write_read_write_is_byte_stable(self, tmp_path, rng):
        desc = random_descriptor(rng, TransformKind.DTFT)
        first = tmp_path / "a.eecv"
        second = tmp_path / "b.eecv"
        write_descriptor(desc, first)
        write_descriptor(read_descriptor(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_corrupted_magic(self, tmp_path, rng):
        path = tmp_path / "d.eecv"
        write_descriptor(random_descriptor(rng, TransformKind.DWT), path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord(b"X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            read_descriptor(path)

    def test_unknown_version(self, tmp_path, rng):
        path = tmp_path / "d.eecv"
        write_descriptor(random_descriptor(rng, TransformKind.DWT), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            read_descriptor(path)

    def test_unknown_transform_code(self, tmp_path, rng):
        path = tmp_path / "d.eecv"
        write_descriptor(random_descriptor(rng, TransformKind.DWT), path)
        blob = bytearray(path.read_bytes())
        blob[5] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="transform"):
            read_descriptor(path)

    def test_truncation_names_offset(self, tmp_path):
        path = tmp_path / "d.eecv"
        path.write_bytes(b"EECV")
        with pytest.raises(FormatError, match="byte 0.*header"):
            read_descriptor(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "d.eecv"
        write_descriptor(random_descriptor(rng, TransformKind.DCT), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match=f"byte {size}.*trailing"):
            read_descriptor(path)

    def test_truncated_pixel_record(self, tmp_path):
        desc = WindowDescriptor(TransformKind.DCT, GEO, 0.0, 0.033, 4, 8,
                                pixel_ids=[1 * 8 + 1], counts=[1], positions=[0], values=[1.0])
        path = tmp_path / "d.eecv"
        write_descriptor(desc, path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError, match="truncated"):
            read_descriptor(path)

    def test_value_beyond_float32_range_names_pixel_and_position(self, tmp_path):
        desc = WindowDescriptor(TransformKind.DCT, GEO, 0.0, 0.033, 4, 8,
                                pixel_ids=[5 * 8 + 3], counts=[1], positions=[2], values=[1e39])
        with pytest.raises(FormatError, match=r"pixel \(3, 5\) atom position 2"):
            write_descriptor(desc, tmp_path / "d.eecv")

    def test_atom_position_outside_grid(self, tmp_path):
        desc = WindowDescriptor(TransformKind.DCT, GEO, 0.0, 0.033, 4, 8,
                                pixel_ids=[1 * 8 + 1], counts=[1], positions=[7], values=[1.0])
        path = tmp_path / "d.eecv"
        write_descriptor(desc, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 34 + 6, 200)  # atom position of first entry
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="atom position"):
            read_descriptor(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_value_names_pixel_and_position(self, tmp_path, value):
        # the reader refuses NaN and inf, so the writer must not write them
        transform = TransformKind.DTFT if isinstance(value, complex) else TransformKind.DCT
        desc = WindowDescriptor(transform, GEO, 0.0, 0.033, 4, 8,
                                pixel_ids=[5 * 8 + 3], counts=[1], positions=[2], values=[value])
        with pytest.raises(FormatError, match=r"pixel \(3, 5\) atom position 2: .* not a finite float32"):
            write_descriptor(desc, tmp_path / "d.eecv")


# (pixel_ids, counts, positions) on GEO at budget 4 over a DCT grid of 8, and the error each must raise
BAD_COLUMNS = {
    "duplicate pixel": (([9, 9], [1, 1], [0, 1]), r"duplicate pixel \(1, 1\)"),
    "duplicate pixel out of order": (([10, 9, 10], [1, 1, 1], [0, 1, 2]), r"duplicate pixel \(2, 1\)"),
    "pixel past the sensor": (([9, 99], [1, 1], [0, 1]), r"pixel \(3, 12\) outside 8x8 sensor"),
    "negative pixel id": (([-1], [1], [0]), r"pixel \(7, -1\) outside 8x8 sensor"),
    "count above budget": (([9], [5], [0, 1, 2, 3, 4]), r"pixel \(1, 1\) retained count 5 outside \[0, 4\]"),
    "negative count": (([9], [-1], []), r"pixel \(1, 1\) retained count -1"),
    "counts past the entries": (([9, 10], [1, 2], [0, 1]), r"pixel \(2, 1\) counts entries past the last of 2"),
    "entries past the counts": (([9], [1], [0, 1]), r"1 entries belong to no pixel"),
    "position past the grid": (([9, 10], [1, 2], [0, 3, 8]), r"pixel \(2, 1\) keeps atom position 8"),
    "negative position": (([9], [1], [-1]), r"pixel \(1, 1\) keeps atom position -1"),
}


class TestDescriptorColumns:
    """The constructor refuses exactly the column sets whose file the reader would refuse."""

    @pytest.mark.parametrize("columns,message", list(BAD_COLUMNS.values()), ids=list(BAD_COLUMNS))
    def test_rejected(self, columns, message):
        ids, counts, positions = columns
        with pytest.raises(ContractError, match=message):
            WindowDescriptor(TransformKind.DCT, GEO, 0.0, 0.033, 4, 8, ids, counts, positions,
                             np.ones(len(positions)))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(TransformKind)), st.data())
    def test_refused_or_read_back_equal(self, transform, data):
        count = data.draw(st.sampled_from([1, 2, 4, 8, 16]))
        budget = data.draw(st.integers(1, 20))
        wide = int(data.draw(st.booleans()))  # half the draws may step one past each bound
        rows = data.draw(st.integers(0, 6))
        ids = data.draw(st.lists(st.integers(-wide, GEO.pixel_count - 1 + wide), min_size=rows, max_size=rows))
        counts = data.draw(st.lists(st.integers(-wide, min(budget, count) + wide), min_size=rows, max_size=rows))
        n = max(0, sum(counts) + data.draw(st.integers(-wide, wide)))
        positions = data.draw(st.lists(st.integers(-wide, count - 1 + wide), min_size=n, max_size=n))
        part = st.floats(width=32, allow_nan=False, allow_infinity=False)  # exact through the f32 file
        values = np.array(data.draw(st.lists(part, min_size=n, max_size=n)))
        if transform is TransformKind.DTFT:
            values = values + 1j * np.array(data.draw(st.lists(part, min_size=n, max_size=n)))
        try:
            desc = WindowDescriptor(transform, GEO, 0.5, 0.033, budget, count, ids, counts, positions, values)
        except ContractError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.eecv"
            write_descriptor(desc, path)
            assert read_descriptor(path) == desc


class TestPerPixelHelpers:
    """The per-pixel views in ``oracles`` invert the columns they read and build."""

    @pytest.mark.parametrize("transform", list(TransformKind))
    def test_round_trip_on_random_descriptors(self, rng, transform):
        for _ in range(25):
            desc = random_descriptor(rng, transform)
            pixels = desc.pixels
            assert list(pixels) == sorted(pixels, key=lambda xy: (xy[1], xy[0]))
            assert oracles.descriptor_from_pixels(desc.transform, desc.geometry, desc.t_start, desc.duration,
                                                  desc.budget, desc.candidate_count, pixels) == desc
            assert oracles.channel_positions(desc) == {
                key: tuple(rc.index.position for rc in kept) for key, kept in pixels.items()
            }
            grid = AtomGrid(transform, desc.candidate_count)
            vectors = {}
            for key, kept in pixels.items():
                row = np.zeros(grid.candidate_count, np.complex128 if transform is TransformKind.DTFT else np.float64)
                row[[rc.index.position for rc in kept]] = [rc.value for rc in kept]
                vectors[key] = CoefficientVector(grid, row)
            columns = oracles.window_coefficients(vectors, grid, GEO.width)
            assert np.array_equal(columns.pixel_ids, desc.pixel_ids)
            assert list(oracles.coefficient_vectors(columns, GEO.width).items()) == list(vectors.items())


def read_outcome(read, path: Path):
    """What a descriptor reader makes of a file: its fields, or its error class and message."""
    try:
        desc = read(path)
    except EvCompressError as exc:
        return type(exc), str(exc)
    times = struct.pack("<dd", desc.t_start, desc.duration)  # bit patterns: a damaged file may hold NaN
    return (desc.transform, desc.geometry, times, desc.budget, desc.candidate_count, dict(desc.pixels))


class TestDescriptorReaderFuzz:
    """Damaged descriptor files read exactly as the per-object reader in ``oracles`` reads them."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(TransformKind)), st.data())
    def test_truncation_or_overwritten_byte(self, seed, transform, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.eecv"
            write_descriptor(random_descriptor(np.random.default_rng(seed), transform), path)
            blob = bytearray(path.read_bytes())
            if data.draw(st.booleans()):
                blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
            else:
                blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
            path.write_bytes(bytes(blob))
            assert read_outcome(read_descriptor, path) == read_outcome(oracles.read_descriptor, path)

    def test_huge_pixel_count_on_short_file(self, tmp_path, rng):
        path = tmp_path / "d.eecv"
        write_descriptor(random_descriptor(rng, TransformKind.DTFT), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 30, 0xFFFFFFFF)  # pixel_count, the last header field
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as info:
                read_descriptor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"byte {len(blob)}: truncated while reading pixel record"
        assert peak < 2**20


class TestEmulator:
    def test_zero_rate_is_empty(self):
        config = EmulatorConfig(geometry=GEO, duration=1.0, rate=0.0)
        assert emulate(config) == []

    def test_deterministic_for_fixed_seed(self):
        config = EmulatorConfig(geometry=GEO, duration=0.5, rate=20.0, seed=77)
        assert emulate(config) == emulate(config)

    def test_seeds_differ(self):
        a = emulate(EmulatorConfig(geometry=GEO, duration=0.5, rate=20.0, seed=1))
        b = emulate(EmulatorConfig(geometry=GEO, duration=0.5, rate=20.0, seed=2))
        assert a != b

    def test_sorted_and_in_bounds(self):
        for pattern, speed in (("uniform-noise", 0.0), ("moving-dot", 40.0), ("moving-edge", 25.0)):
            events = emulate(
                EmulatorConfig(geometry=GEO, duration=0.5, rate=50.0, pattern=pattern, speed=speed, seed=3)
            )
            ts = [ev.t for ev in events]
            assert ts == sorted(ts)
            assert all(0.0 <= ev.t < 0.5 for ev in events)
            assert all(0 <= ev.x < GEO.width and 0 <= ev.y < GEO.height for ev in events)

    def test_density_within_three_poisson_sigma(self):
        # oracle: N ~ Poisson(rate * H * W * duration)
        rate, duration = 30.0, 2.0
        config = EmulatorConfig(geometry=GEO, duration=duration, rate=rate, seed=11)
        events = emulate(config)
        lam = rate * GEO.pixel_count * duration
        assert abs(len(events) - lam) <= 3.0 * math.sqrt(lam)

    def test_polarity_bias(self):
        events = emulate(EmulatorConfig(geometry=GEO, duration=1.0, rate=50.0, polarity_bias=1.0, seed=5))
        assert all(ev.p == 1 for ev in events)

    def test_moving_dot_concentrates_events(self):
        geo = SensorGeometry(height=32, width=32)
        events = emulate(
            EmulatorConfig(geometry=geo, duration=0.2, rate=40.0, pattern="moving-dot", speed=10.0, seed=9)
        )
        occupied = {(ev.x, ev.y) for ev in events}
        assert len(occupied) < 0.2 * geo.pixel_count  # dot covers a small neighborhood

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            EmulatorConfig(geometry=GEO, duration=0.0, rate=1.0)
        with pytest.raises(ConfigurationError):
            EmulatorConfig(geometry=GEO, duration=1.0, rate=-1.0)
        with pytest.raises(ConfigurationError):
            EmulatorConfig(geometry=GEO, duration=1.0, rate=1.0, pattern="spiral")
        with pytest.raises(ConfigurationError):
            EmulatorConfig(geometry=GEO, duration=1.0, rate=1.0, polarity_bias=1.5)
