"""The tracker's growable store: keys, distances and fakes across buffer growth."""

import io

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
