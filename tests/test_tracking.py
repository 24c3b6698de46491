import struct

import numpy as np
import pytest

from fiva import (
    AnchorSet,
    CorruptState,
    DEFAULT_MATCH_THRESHOLD,
    Embedding,
    EmptyAnchorSet,
    IoFailure,
    TrackerState,
    load_state,
    pack_container,
    sample_fake,
    save_state,
)
from conftest import embedding_at_distance, random_unit


def fresh_tracker(rng, dim=32, threshold=DEFAULT_MATCH_THRESHOLD, margin=0.0):
    anchors = AnchorSet.from_embeddings([random_unit(rng, dim) for _ in range(16)])
    return TrackerState(threshold=threshold, margin=margin, anchors=anchors)


def basis(dim, axis):
    v = np.zeros(dim)
    v[axis] = 1.0
    return Embedding(v)


class TestTrack:
    def test_scripted_sequence_keys(self, rng):
        # basis vectors are mutually at distance exactly 1, above threshold
        tracker = fresh_tracker(rng)
        z1, z2, z3 = (basis(32, i) for i in range(3))
        keys = [tracker.track(z).key for z in (z1, z1, z2, z1, z3)]
        assert keys == [0, 0, 1, 0, 2]
        assert tracker.key_pointer == 3

    def test_repeat_returns_bit_identical_fake(self, rng):
        tracker = fresh_tracker(rng)
        z = random_unit(rng, 32)
        first = tracker.track(z)
        second = tracker.track(z)
        assert not first.matched
        assert second.matched
        assert second.fake_identity.values.tobytes() == first.fake_identity.values.tobytes()

    def test_near_duplicate_within_threshold_matches(self, rng):
        tracker = fresh_tracker(rng, threshold=0.63)
        z = random_unit(rng, 32)
        tracker.track(z)
        nearby = embedding_at_distance(z, 0.3, rng)
        result = tracker.track(nearby)
        assert result.matched
        assert result.key == 0
        assert result.match_distance is not None
        assert result.match_distance < 0.63
        # a matched frame must not grow the store
        assert tracker.key_pointer == 1

    def test_distance_at_threshold_is_new_identity(self, rng):
        # orthogonal basis vectors make the distance land exactly on the
        # threshold; the strict inequality must treat that as a miss
        tracker = fresh_tracker(rng, threshold=1.0)
        tracker.track(basis(32, 0))
        result = tracker.track(basis(32, 1))
        assert result.match_distance == 1.0
        assert not result.matched
        assert result.key == 1

    def test_first_contact_has_no_match_distance(self, rng):
        tracker = fresh_tracker(rng)
        result = tracker.track(random_unit(rng, 32))
        assert not result.matched
        assert result.match_distance is None
        assert result.key == 0

    def test_match_does_not_depend_on_arrival_order(self, rng):
        tracker = fresh_tracker(rng, threshold=0.8)
        z1 = random_unit(rng, 32)
        z2 = embedding_at_distance(z1, 0.5, rng)
        tracker.track(z1)
        tracker.track(z2)  # distance 0.5 < 0.8: matched, not stored
        assert tracker.key_pointer == 1
        assert tracker.track(z1).key == 0

    def test_fake_comes_from_anchor_sampler(self, rng):
        anchors = AnchorSet.from_embeddings([random_unit(rng, 16) for _ in range(8)])
        tracker = TrackerState(threshold=0.63, margin=0.25, anchors=anchors)
        z = random_unit(rng, 16)
        result = tracker.track(z)
        expected = sample_fake(tracker.stored[0], anchors, tracker.margin).fake_identity
        quantized = expected.values.astype(np.float32).astype(np.float64)
        assert np.array_equal(result.fake_identity.values, quantized)

    def test_custom_sampler_callable(self, rng):
        calls = []

        def sampler(rows):
            calls.append(rows.copy())
            if len(calls) == 3:
                raise RuntimeError("backend down")
            return -rows

        tracker = TrackerState(threshold=0.63, sampler=sampler)
        z = random_unit(rng, 8)
        result = tracker.track(z)
        assert len(calls) == 1
        assert np.allclose(result.fake_identity.values, -z.values, atol=1e-6)
        # The new identities of one call arrive together, in key order.
        a, b = basis(8, 0).values, basis(8, 1).values
        _, keys, _ = tracker.track_rows(np.stack([b, z.values, a]))
        assert keys.tolist() == [1, 0, 2]
        assert np.array_equal(calls[1], np.stack([b, a]))
        # A sampler that raises leaves the tracker as it was.
        with pytest.raises(RuntimeError):
            tracker.track_rows(basis(8, 2).values[None, :])
        assert tracker.key_pointer == 3
        assert np.array_equal(tracker.fake_matrix[1:], -calls[1])

    def test_requires_some_fake_source(self, rng):
        tracker = TrackerState(threshold=0.63)
        with pytest.raises(EmptyAnchorSet):
            tracker.track(random_unit(rng, 8))

    def test_threshold_and_margin_quantized(self):
        tracker = TrackerState(threshold=0.63, margin=0.1, sampler=lambda z: z)
        assert tracker.threshold == float(np.float32(0.63))
        assert tracker.margin == float(np.float32(0.1))

    def test_stored_embeddings_are_f32_exact(self, rng):
        tracker = fresh_tracker(rng)
        z = random_unit(rng, 32)
        tracker.track(z)
        stored = tracker.stored[0].values
        assert np.array_equal(stored, stored.astype(np.float32).astype(np.float64))

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            TrackerState(threshold=0.0, sampler=lambda z: z)
        with pytest.raises(ValueError):
            TrackerState(threshold=2.5, sampler=lambda z: z)

    def test_reset_clears_but_keeps_config(self, rng):
        tracker = fresh_tracker(rng, threshold=0.7, margin=0.2)
        tracker.track(random_unit(rng, 32))
        fresh = tracker.reset()
        assert fresh.key_pointer == 0
        assert len(fresh.stored) == 0
        assert fresh.threshold == tracker.threshold
        assert fresh.margin == tracker.margin
        # original untouched
        assert tracker.key_pointer == 1


class TestPersistence:
    def test_round_trip_preserves_trajectory(self, rng, tmp_path):
        tracker = fresh_tracker(rng)
        frames = [random_unit(rng, 32) for _ in range(5)]
        for z in frames:
            tracker.track(z)
        path = tmp_path / "tracker.state"
        save_state(tracker, path)
        loaded = load_state(path, anchors=tracker.anchors)

        assert loaded.key_pointer == tracker.key_pointer
        assert loaded.threshold == tracker.threshold
        assert loaded.margin == tracker.margin
        for a, b in zip(loaded.stored, tracker.stored):
            assert a.values.tobytes() == b.values.tobytes()
        for key in range(tracker.key_pointer):
            assert loaded.fakes[key].values.tobytes() == tracker.fakes[key].values.tobytes()

        # the loaded tracker continues identically
        for z in frames:
            a = tracker.track(z)
            b = loaded.track(z)
            assert a.key == b.key
            assert a.matched and b.matched
            assert a.fake_identity == b.fake_identity

    def test_empty_tracker_round_trip(self, rng, tmp_path):
        tracker = fresh_tracker(rng)
        path = tmp_path / "empty.state"
        save_state(tracker, path)
        loaded = load_state(path)
        assert loaded.key_pointer == 0
        assert len(loaded.stored) == 0

    def test_save_load_save_is_byte_identical(self, rng, tmp_path):
        tracker = fresh_tracker(rng)
        for _ in range(3):
            tracker.track(random_unit(rng, 32))
        p1, p2 = tmp_path / "a.state", tmp_path / "b.state"
        save_state(tracker, p1)
        save_state(load_state(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, rng, tmp_path):
        tracker = fresh_tracker(rng)
        tracker.track(random_unit(rng, 32))
        path = tmp_path / "tracker.state"
        save_state(tracker, path)
        clipped = path.read_bytes()[:-6]
        bad = tmp_path / "clipped.state"
        bad.write_bytes(clipped)
        with pytest.raises(CorruptState):
            load_state(bad)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.state"
        path.write_bytes(b"not a tracker state at all")
        with pytest.raises(CorruptState):
            load_state(path)

    def test_wrong_key_pointer_rejected(self, rng, tmp_path):
        tracker = fresh_tracker(rng)
        tracker.track(random_unit(rng, 32))
        path = tmp_path / "tracker.state"
        save_state(tracker, path)
        raw = bytearray(path.read_bytes())
        # overwrite the trailing key pointer with a wrong value
        raw[-4:] = (99).to_bytes(4, "little")
        bad = tmp_path / "badptr.state"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptState):
            load_state(bad)

    def test_denormalized_row_rejected(self, rng, tmp_path):
        tracker = fresh_tracker(rng)
        tracker.track(random_unit(rng, 32))
        path = tmp_path / "tracker.state"
        save_state(tracker, path)
        raw = bytearray(path.read_bytes())
        # blow up the first stored component; the row norm leaves [1 +- tol]
        raw[16:20] = np.array([2.0], dtype="<f4").tobytes()
        bad = tmp_path / "denorm.state"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptState):
            load_state(bad)

    def test_unequal_stored_and_fake_blocks_rejected(self, rng, tmp_path):
        rows = np.stack([random_unit(rng, 32).values for _ in range(2)])
        bad = tmp_path / "unequal.state"
        bad.write_bytes(pack_container(rows) + pack_container(rows[:1]) + struct.pack("<ffI", 0.5, 0.0, 2))
        with pytest.raises(CorruptState, match=r"stored block shape \(2, 32\) != fake block shape \(1, 32\)"):
            load_state(bad)

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            load_state(tmp_path / "missing.state")

    def test_save_unwritable_path_is_io_failure(self, rng, tmp_path):
        tracker = fresh_tracker(rng)
        with pytest.raises(IoFailure):
            save_state(tracker, tmp_path / "no" / "such" / "dir" / "x.state")
