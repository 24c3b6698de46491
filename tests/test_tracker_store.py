"""The tracker's growable store: keys, distances and fakes across buffer growth."""

import gc
import io
import math
import mmap
import weakref

import numpy as np

from fiva import AnchorSet, Embedding, TrackerState, load_state, sample_fake, save_state
from conftest import random_unit

EPS = np.finfo(np.float64).eps


def orthonormal(rng, count, dim):
    """``count`` mutually orthogonal unit embeddings: pairwise distance 1."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, count)))
    return [Embedding(col / np.linalg.norm(col)) for col in q.T]


def test_store_grows_past_initial_capacity(rng):
    dim = 96
    anchors = AnchorSet.from_embeddings([random_unit(rng, dim) for _ in range(32)])
    tracker = TrackerState(anchors=anchors)
    people = orthonormal(rng, 70, dim)
    visits = people + [people[i] for i in rng.permutation(len(people))]
    stored: list[np.ndarray] = []
    for z in visits:
        result = tracker.track(z)
        if stored:
            # oracle: the single-vector lookup over the rows stored so far
            distances = 1.0 - np.clip(np.stack(stored) @ z.values, -1.0, 1.0)
            best = int(np.argmin(distances))
            # a miss may take a lower index within rounding of the minimum
            assert abs(result.match_distance - distances[best]) <= dim * EPS
        if result.matched:
            assert result.key == best
            assert result.match_distance == distances[best]
        else:
            assert result.key == len(stored)
            stored.append(z.values.astype(np.float32).astype(np.float64))
        assert len(tracker.stored) == len(tracker.fakes) == tracker.key_pointer
    assert tracker.key_pointer == len(people)
    for key, (row, fake) in enumerate(zip(tracker.stored, tracker.fakes)):
        assert row.values.tobytes() == stored[key].tobytes()
        want = sample_fake(row, anchors, tracker.margin).fake_identity.values
        assert fake.values.tobytes() == want.astype(np.float32).astype(np.float64).tobytes()


def test_loaded_store_grows_and_saves_identically(rng):
    dim = 64
    anchors = AnchorSet.from_embeddings([random_unit(rng, dim) for _ in range(8)])
    tracker = TrackerState(anchors=anchors)
    people = orthonormal(rng, 50, dim)
    first, more = people[:20], people[20:]
    for z in first:
        tracker.track(z)
    buf = io.BytesIO()
    save_state(tracker, buf)
    loaded = load_state(io.BytesIO(buf.getvalue()), anchors=anchors)
    for z in more + first:
        a, b = tracker.track(z), loaded.track(z)
        assert (a.key, a.matched, a.match_distance) == (b.key, b.matched, b.match_distance)
        assert a.fake_identity == b.fake_identity
    out_a, out_b = io.BytesIO(), io.BytesIO()
    save_state(tracker, out_a)
    save_state(loaded, out_b)
    assert out_a.getvalue() == out_b.getvalue()
    assert len(loaded) == loaded.key_pointer == 50


def test_fakes_are_copies(rng):
    tracker = TrackerState(sampler=lambda rows: -rows)
    z = random_unit(rng, 8)
    fake = tracker.track(z).fake_identity
    assert not fake.values.flags.writeable
    assert tracker.track(z).fake_identity == fake


def test_fakes_are_held_as_float32_and_widen_to_the_rounded_sampled_rows(rng):
    # A rotation's rows are unit but not float32-exact: each mint rounds them
    # to float32, the width the store holds its fakes at, and reads widen them
    # back to float64 exactly.
    dim = 48
    rotation = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    sampled = []

    def sampler(rows):
        sampled.append(rows @ rotation)
        return sampled[-1]

    tracker = TrackerState(sampler=sampler)
    people = np.stack([z.values for z in orthonormal(rng, 40, dim)])
    tracker.track_rows(people[:25])
    tracker.track_rows(people)
    want = np.concatenate(sampled).astype(np.float32).astype(np.float64)
    assert tracker.fake_matrix.dtype == np.float32
    assert tracker.fake_matrix.astype(np.float64).tobytes() == want.tobytes()
    assert np.stack([fake.values for fake in tracker.fakes]).tobytes() == want.tobytes()
    assert tracker.track(Embedding(people[30])).fake_identity.values.tobytes() == want[30].tobytes()
    buf = io.BytesIO()
    save_state(tracker, buf)
    loaded = load_state(io.BytesIO(buf.getvalue()))
    assert loaded.fake_matrix.dtype == np.float32
    assert loaded.fake_matrix.tobytes() == tracker.fake_matrix.tobytes()


def mapping_of(rows: np.ndarray) -> mmap.mmap:
    """The anonymous mapping an array's memory lives in."""
    base = rows
    while not isinstance(base, mmap.mmap):
        base = base.obj if isinstance(base, memoryview) else base.base
    return base


def test_capacity_is_max_16_twice_used_and_maps_capacity_rows(rng):
    dim = 24
    tracker = TrackerState(sampler=lambda rows: -rows)
    capacities = []
    for z in orthonormal(rng, 24, dim):
        used = len(tracker)
        tracker.track(z)
        capacity = len(tracker._stored)
        if not capacities or capacity != capacities[-1]:
            assert capacity == max(16, 2 * used)
            capacities.append(capacity)
        for rows, itemsize in ((tracker._stored, 8), (tracker._fakes, 4)):
            assert rows.shape == (capacity, dim)
            assert len(mapping_of(rows)) == capacity * dim * itemsize
    assert capacities == [16, 32]


def test_a_fake_matrix_view_keeps_its_values_across_a_growth(rng):
    tracker = TrackerState(sampler=lambda rows: -rows)
    people = np.stack([z.values for z in orthonormal(rng, 40, 48)])
    tracker.track_rows(people[:16])
    view = tracker.fake_matrix
    before = view.tobytes()
    tracker.track_rows(people[16:])
    assert len(tracker._stored) == 64 and len(view) == 16  # grown twice
    assert view.tobytes() == before == tracker.fake_matrix[:16].tobytes()


def test_one_row_tracking_regrows_the_store_log_n_times(rng):
    dim = 16
    tracker = TrackerState(sampler=lambda rows: -rows)
    frames = rng.normal(size=(3000, dim))
    frames /= np.linalg.norm(frames, axis=1, keepdims=True)
    tracker.threshold = 1e-6  # every frame is a new identity
    capacities = set()
    for row in frames:
        tracker.track(Embedding(row))
        capacities.add(len(tracker._stored))
    assert len(tracker) == 3000
    # 16, 32, ..., 4096: a mapping each, made as the rows before it fill
    assert sorted(capacities) == [16 << k for k in range(9)]
    assert len(capacities) == math.ceil(math.log2(3000 / 16)) + 1


def test_an_old_mapping_is_freed_once_no_view_holds_it(rng):
    tracker = TrackerState(sampler=lambda rows: -rows)
    people = np.stack([z.values for z in orthonormal(rng, 20, 32)])
    tracker.track_rows(people[:10])
    view = tracker.fake_matrix
    stored, fakes = (weakref.ref(mapping_of(rows)) for rows in (tracker._stored, tracker._fakes))
    tracker.track_rows(people[10:])  # grows past 16 rows
    gc.collect()
    assert stored() is None  # nothing but the store held it
    assert fakes() is not None  # the view still reads it
    del view
    gc.collect()
    assert fakes() is None
