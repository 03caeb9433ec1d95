"""The descriptor path against its frozen per-object copy in ``oracles``.

Encode, prune, pack, write, read, dense tensor and reconstruction must give
the same bits as the object path: the same file bytes, an equal descriptor
read back, the same dense tensor, and the same frame and temporal mass.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from evcompress import (
    AtomGrid,
    CoefficientVector,
    EventArray,
    RetentionPolicy,
    SensorGeometry,
    TimeGrid,
    TransformKind,
    encode_window,
    make_window,
    pack_descriptor,
    prune_dct,
    prune_magnitude,
    read_descriptor,
    reconstruct_window,
    to_dense_tensor,
    write_descriptor,
)

ALL_TRANSFORMS = (TransformKind.DCT, TransformKind.DTFT, TransformKind.DWT)
GRID = TimeGrid(128)
DWT_SIZES = (1, 2, 4, 8, 16, 32, 64)


def grid_sizes(transform: TransformKind) -> st.SearchStrategy[int]:
    return st.sampled_from(DWT_SIZES) if transform is TransformKind.DWT else st.integers(1, 64)


@st.composite
def windows(draw) -> object:
    """Small windows with exact ties, single-event pixels and all-zero pixels.

    Times fall on a few slots, so events often share one time; a pixel given
    a +1 and a -1 at one time and nothing else has an all-zero vector.
    """
    geo = SensorGeometry(height=draw(st.integers(1, 8)), width=draw(st.integers(1, 8)))
    slots = draw(st.integers(1, 40))
    n = draw(st.integers(0, 60))
    rows = draw(st.lists(st.tuples(st.integers(0, slots - 1), st.integers(0, geo.width - 1),
                                   st.integers(0, geo.height - 1), st.sampled_from([-1, 1])),
                         min_size=n, max_size=n))
    for slot, x, y in draw(st.lists(st.tuples(st.integers(0, slots - 1), st.integers(0, geo.width - 1),
                                              st.integers(0, geo.height - 1)), max_size=3)):
        rows += [(slot, x, y, 1), (slot, x, y, -1)]
    rows.sort(key=lambda row: row[0])
    cols = np.array(rows, dtype=np.int64).reshape(-1, 4)
    events = EventArray(cols[:, 0] / slots, cols[:, 1], cols[:, 2], cols[:, 3])
    return make_window(events, 0.0, 1.0, geo)


def outcome_of(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


def assert_same_frame_and_mass(descriptor) -> None:
    frame, mass = reconstruct_window(descriptor, GRID)
    frozen_frame, frozen_mass = oracles.reconstruct_window(descriptor, GRID)
    assert frame.tobytes() == frozen_frame.tobytes()
    assert mass.tobytes() == frozen_mass.tobytes()


def frozen_prune(transform: TransformKind):
    if transform is TransformKind.DCT:
        return prune_dct, oracles.prune_dct
    return prune_magnitude, oracles.prune_magnitude


def assert_same_path(window, transform: TransformKind, count: int, budget: int, directory: Path,
                     views: bool = True) -> None:
    """Encode to frame through both paths; ``views`` also compares the per-pixel reads."""
    geo = window.geometry
    per_pixel = encode_window(window, transform, count)
    vectors = oracles.coefficient_vectors(per_pixel, geo.width)
    args = (RetentionPolicy(budget), transform, geo, window.t_start, window.duration)
    packed = pack_descriptor(per_pixel, *args)
    want = oracles.pack_descriptor(vectors, *args, count)
    assert packed == want

    mine, theirs = directory / "mine.eecv", directory / "theirs.eecv"
    write_descriptor(packed, mine)
    oracles.write_descriptor(want, theirs)
    assert mine.read_bytes() == theirs.read_bytes()

    read = read_descriptor(mine)
    frozen_read = oracles.read_descriptor(mine)
    assert read == frozen_read

    dense = to_dense_tensor(read)
    values, channels = oracles.to_dense_tensor(read)
    assert dense.values.shape == values.shape
    assert dense.values.tobytes() == values.tobytes()
    assert_same_frame_and_mass(read)
    if not views:
        return
    assert_same_frame_and_mass(packed)  # f64 values, before the file rounds them
    assert list(packed.pixels.items()) == list(want.pixels.items())
    assert list(read.pixels.items()) == list(frozen_read.pixels.items())
    assert oracles.channel_positions(read) == channels
    prune, frozen = frozen_prune(transform)
    for vec in vectors.values():
        assert prune(vec, min(budget, count)) == frozen(vec, min(budget, count))


class TestMatchesObjectPath:
    @settings(max_examples=150, deadline=None)
    @given(windows(), st.sampled_from(ALL_TRANSFORMS), st.data())
    def test_small_windows(self, window, transform, data):
        count = data.draw(grid_sizes(transform))
        budget = data.draw(st.integers(1, count + 2))
        with tempfile.TemporaryDirectory() as tmp:
            assert_same_path(window, transform, count, budget, Path(tmp))

    @pytest.mark.parametrize("transform", ALL_TRANSFORMS)
    def test_sensor_sized_window(self, transform, tmp_path):
        # 50k events over 346x260: mostly single-event pixels, microsecond times
        rng = np.random.default_rng(346260)
        geo = SensorGeometry(height=260, width=346)
        n = 50_000
        events = EventArray(np.sort(np.floor(rng.random(n) * 1e6) / 1e6), rng.integers(0, geo.width, n),
                            rng.integers(0, geo.height, n), rng.choice([-1, 1], n))
        window = make_window(events, 0.0, 1.0, geo)
        count = 16 if transform is TransformKind.DCT else 64  # as compress_window evaluates them
        assert_same_path(window, transform, count, 16, tmp_path, views=False)

    def test_empty_window(self, tmp_path):
        window = make_window([], 0.0, 1.0, SensorGeometry(height=3, width=5))
        for transform in ALL_TRANSFORMS:
            assert_same_path(window, transform, 8, 4, tmp_path)


class TestPruneMatchesObjectPath:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ALL_TRANSFORMS), st.data())
    def test_vectors_with_exact_ties_and_zeros(self, transform, data):
        count = data.draw(grid_sizes(transform))
        parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0])
        values = np.array(data.draw(st.lists(parts, min_size=count, max_size=count)))
        if transform is TransformKind.DTFT:
            values = values + 1j * np.array(data.draw(st.lists(parts, min_size=count, max_size=count)))
        vec = CoefficientVector(AtomGrid(transform, count), values)
        prune, frozen = frozen_prune(transform)
        for r in range(-1, count + 2):
            assert outcome_of(prune, vec, r) == outcome_of(frozen, vec, r)
