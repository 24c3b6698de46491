"""Blocked tracking: ``track_rows`` takes the decisions of a per-frame ``track`` loop."""

import io
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiva import (
    AnchorSet,
    DimensionMismatch,
    Embedding,
    EmptyAnchorSet,
    NotUnitNorm,
    ShapeMismatch,
    TrackerState,
    load_state,
    save_state,
)
from fiva import sphere, tracking
from conftest import embedding_at_distance, random_unit

EPS = np.finfo(np.float64).eps


@contextmanager
def block_rows(rows):
    """Force the tracker's blocks down to ``rows`` frames."""
    with mock.patch.object(tracking, "_BLOCK_ROWS", rows):
        yield


def state_bytes(tracker):
    buf = io.BytesIO()
    save_state(tracker, buf)
    return buf.getvalue()


def per_frame(tracker, frames):
    """The reference: one ``track`` call per frame, in order."""
    results = [tracker.track(Embedding(row)) for row in frames]
    matched = np.array([r.matched for r in results], dtype=bool)
    keys = np.array([r.key for r in results], dtype=np.intp)
    distance = np.array(
        [np.nan if r.match_distance is None else r.match_distance for r in results]
    )
    return matched, keys, distance


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@st.composite
def sequences(draw):
    """A frame sequence of revisits, new identities and near-duplicates.

    Identities are orthonormal (pairwise distance 1, the threshold itself
    when ``threshold == 1``) or random directions; a visit is the identity
    itself or a jittered copy of it.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(4, 24))
    people = draw(st.integers(1, 2 * dim))
    count = draw(st.integers(0, 60))
    rng = np.random.default_rng(seed)
    if people <= dim and draw(st.booleans()):
        identities = np.linalg.qr(rng.normal(size=(dim, people)))[0].T
    else:
        identities = unit_rows(rng.normal(size=(people, dim)))
    jitter = draw(st.sampled_from([0.0, 1e-9, 0.01, 0.2]))
    visits = rng.integers(0, people, size=count)
    frames = unit_rows(identities[visits] + jitter * rng.normal(size=(count, dim)))
    threshold = draw(st.sampled_from([0.05, 0.63, 1.0, 1.2]))
    anchors = AnchorSet.from_embeddings(
        Embedding(row) for row in unit_rows(rng.normal(size=(draw(st.integers(1, 12)), dim)))
    )
    return frames, threshold, anchors


@settings(max_examples=150, deadline=None)
@given(sequences(), st.integers(1, 7))
def test_track_rows_matches_per_frame_loop(case, rows):
    frames, threshold, anchors = case
    reference = TrackerState(threshold=threshold, anchors=anchors)
    want = per_frame(reference, frames)
    blocked = TrackerState(threshold=threshold, anchors=anchors)
    with block_rows(rows):
        matched, keys, distance = blocked.track_rows(frames)
    assert np.array_equal(matched, want[0])
    assert np.array_equal(keys, want[1])
    assert np.array_equal(np.isnan(distance), np.isnan(want[2]))
    both = ~np.isnan(distance)
    assert np.all(np.abs(distance[both] - want[2][both]) <= frames.shape[1] * EPS)
    assert state_bytes(blocked) == state_bytes(reference)
    assert blocked.fake_matrix.tobytes() == reference.fake_matrix.tobytes()


@settings(max_examples=100, deadline=None)
@given(sequences(), st.integers(1, 7), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_resumed_chunks_match_one_run(case, rows, cuts):
    frames, threshold, anchors = case
    splits = sorted({int(c * len(frames)) for c in cuts})
    with block_rows(rows):
        whole = TrackerState(threshold=threshold, anchors=anchors)
        _, want_keys, _ = whole.track_rows(frames)
        tracker = TrackerState(threshold=threshold, anchors=anchors)
        keys = []
        for chunk in np.split(frames, splits):
            tracker = load_state(io.BytesIO(state_bytes(tracker)), anchors=anchors)
            keys.append(tracker.track_rows(chunk)[1])
    assert np.array_equal(np.concatenate(keys), want_keys)
    assert tracker.fake_matrix[want_keys].tobytes() == whole.fake_matrix[want_keys].tobytes()
    assert state_bytes(tracker) == state_bytes(whole)


def test_empty_input_leaves_tracker_unchanged(rng):
    anchors = AnchorSet.from_embeddings([random_unit(rng, 8) for _ in range(4)])
    tracker = TrackerState(anchors=anchors)
    for empty in (np.empty((0, 8)), np.empty((0, 0))):
        matched, keys, distance = tracker.track_rows(empty)
        assert matched.shape == keys.shape == distance.shape == (0,)
        assert tracker.key_pointer == 0
    tracker.track(random_unit(rng, 8))
    before = state_bytes(tracker)
    tracker.track_rows(np.empty((0, 8)))
    assert state_bytes(tracker) == before


def test_growth_past_capacity_in_one_call(rng):
    dim = 96
    anchors = AnchorSet.from_embeddings([random_unit(rng, dim) for _ in range(32)])
    people = np.linalg.qr(rng.normal(size=(dim, 70)))[0].T
    frames = np.concatenate([people, people[rng.permutation(70)]])
    reference = TrackerState(anchors=anchors)
    want = per_frame(reference, frames)
    blocked = TrackerState(anchors=anchors)
    with block_rows(9):
        matched, keys, _ = blocked.track_rows(frames)
    assert blocked.key_pointer == 70
    assert np.array_equal(matched, want[0]) and np.array_equal(keys, want[1])
    assert state_bytes(blocked) == state_bytes(reference)


def test_mint_then_match_in_one_block(rng):
    anchors = AnchorSet.from_embeddings([random_unit(rng, 32) for _ in range(8)])
    z = random_unit(rng, 32)
    near = embedding_at_distance(z, 0.3, rng)
    other = random_unit(rng, 32)
    tracker = TrackerState(anchors=anchors)
    frames = np.stack([z.values, near.values, other.values, z.values, other.values])
    matched, keys, distance = tracker.track_rows(frames)
    assert matched.tolist() == [False, True, False, True, True]
    assert keys.tolist() == [0, 0, 1, 0, 1]
    assert np.isnan(distance[0])
    assert abs(distance[1] - 0.3) < 1e-6
    assert tracker.key_pointer == 2


def test_custom_sampler_gets_new_rows_in_key_order(rng):
    calls = []

    def sampler(rows):
        assert not rows.flags.writeable
        calls.append(rows.copy())
        return -rows

    people = np.linalg.qr(rng.normal(size=(16, 5)))[0].T
    frames = people[[0, 1, 0, 2, 3, 1, 4, 4]]
    tracker = TrackerState(sampler=sampler)
    with block_rows(3):
        matched, keys, _ = tracker.track_rows(frames)
    assert keys.tolist() == [0, 1, 0, 2, 3, 1, 4, 4]
    # One call per track_rows, with the new identities' stored rows in key order.
    assert len(calls) == 1
    stored = np.stack([row.values for row in tracker.stored])
    assert np.array_equal(calls[0], stored)
    assert np.array_equal(stored, stored.astype(np.float32))
    assert np.array_equal(tracker.fake_matrix, -stored)
    # A call that mints nothing does not call the sampler.
    tracker.track_rows(people[[4, 2]])
    assert len(calls) == 1


def test_near_threshold_frames_are_rescored_alone(rng):
    # Orthonormal identities sit at distance 1 from each other: with a
    # threshold of 1 every later first contact lies on the threshold.
    anchors = AnchorSet.from_embeddings([random_unit(rng, 16) for _ in range(4)])
    people = np.eye(16)[:3]
    tracker = TrackerState(threshold=1.0, anchors=anchors)
    with mock.patch.object(tracking, "_nearest", wraps=tracking._nearest) as spy:
        matched, keys, distance = tracker.track_rows(people)
    assert spy.call_count == 2
    assert matched.tolist() == [False] * 3 and keys.tolist() == [0, 1, 2]
    assert distance[1:].tolist() == [1.0, 1.0]


def test_rescoring_overrides_blocked_bits_across_the_threshold(rng):
    # One frame just inside the threshold of a stored identity; blocked
    # products pushed up by a few ulps would call it a miss.
    anchors = AnchorSet.from_embeddings([random_unit(rng, 8) for _ in range(4)])
    tracker = TrackerState(threshold=0.63, anchors=anchors)
    tracker.track(Embedding(np.eye(8)[0]))
    cos = 1.0 - tracker.threshold + 2 * EPS
    frame = np.zeros(8)
    frame[0], frame[1] = cos, np.sqrt(1.0 - cos * cos)
    assert 1.0 - cos < tracker.threshold <= 1.0 - (cos - 4 * EPS)
    real = sphere._block_products

    def off_by_ulps(block, matrix, out=None):
        sims = real(block, matrix, out)
        return sims - 4 * EPS if len(block) > 1 else sims

    with mock.patch.object(sphere, "_block_products", off_by_ulps):
        matched, keys, distance = tracker.track_rows(np.stack([frame, frame]))
    assert matched.tolist() == [True, True]
    assert keys.tolist() == [0, 0]
    assert distance.tolist() == [1.0 - cos] * 2


def test_new_identity_within_the_tie_band_keeps_the_lower_key(rng):
    # d(f, e1) sits 3.5 eps below d(f, e0), well inside the tie of D * eps:
    # the appended column lowers f's best but must not take it from key 0.
    anchors = AnchorSet.from_embeddings([random_unit(rng, 16) for _ in range(4)])
    e0, e1 = np.eye(16)[:2]
    c = np.sqrt(0.5) - 2 * EPS
    f = c * e0 + np.sqrt(1.0 - c * c) * e1
    f /= np.linalg.norm(f)
    frames = np.stack([e1, f])
    reference = TrackerState(anchors=anchors)
    reference.track(Embedding(e0))
    want = per_frame(reference, frames)
    blocked = TrackerState(anchors=anchors)
    blocked.track(Embedding(e0))
    matched, keys, distance = blocked.track_rows(frames)
    assert 0 < (1.0 - f[0]) - (1.0 - f[1]) < 16 * EPS
    assert keys.tolist() == want[1].tolist() == [1, 0]
    assert matched.tolist() == want[0].tolist() == [False, True]
    assert distance[1] == want[2][1] == 1.0 - f[0]
    assert state_bytes(blocked) == state_bytes(reference)


def test_tie_band_frame_is_scored_alone_against_the_grown_store(rng):
    # f's distances to e0, e1, e2: 0.5 + 12 eps, 0.5, 0.5 - 8 eps. Against
    # {e0, e1} key 0 ties with the minimum; once e2 is minted, its column
    # lowers f's best by 20 eps, inside two ties (32 eps at D = 16), and the
    # new minimum's tie window holds e1 but no longer e0.
    anchors = AnchorSet.from_embeddings([random_unit(rng, 16) for _ in range(4)])
    basis = np.eye(16)
    f = np.zeros(16)
    f[:3] = 0.5 - 12 * EPS, 0.5, 0.5 + 8 * EPS
    f[3] = np.sqrt(1.0 - f @ f)
    frames = np.stack([basis[2], f])
    trackers = [TrackerState(anchors=anchors) for _ in range(2)]
    for tracker in trackers:
        tracker.track_rows(basis[:2])
    want = per_frame(trackers[0], frames)
    matched, keys, distance = trackers[1].track_rows(frames)
    assert keys.tolist() == want[1].tolist() == [2, 1]
    assert matched.tolist() == want[0].tolist() == [False, True]
    assert distance[1] == want[2][1] == 0.5
    assert state_bytes(trackers[1]) == state_bytes(trackers[0])


def test_minting_without_anchors_leaves_store_consistent(rng):
    anchors = AnchorSet.from_embeddings([random_unit(rng, 16) for _ in range(4)])
    tracker = TrackerState(anchors=anchors)
    known = np.linalg.qr(rng.normal(size=(16, 4)))[0].T
    tracker.track_rows(known[:2])
    loaded = load_state(io.BytesIO(state_bytes(tracker)))
    before = state_bytes(loaded)
    with pytest.raises(EmptyAnchorSet):
        loaded.track_rows(known[[0, 2, 1, 3]])
    assert len(loaded.stored) == len(loaded.fakes) == loaded.key_pointer == 2
    assert state_bytes(loaded) == before
    # matches alone need no anchors
    matched, keys, _ = loaded.track_rows(known[[1, 0]])
    assert matched.all() and keys.tolist() == [1, 0]


def test_failing_sampler_leaves_store_consistent(rng):
    calls = []

    def sampler(rows):
        calls.append(rows.copy())
        if len(calls) == 2:
            raise RuntimeError("backend down")
        return rows

    people = np.linalg.qr(rng.normal(size=(16, 4)))[0].T
    tracker = TrackerState(sampler=sampler)
    tracker.track_rows(people[:1])
    before = state_bytes(tracker)
    with block_rows(2), pytest.raises(RuntimeError):
        tracker.track_rows(people[[3, 1, 2, 1]])
    assert np.array_equal(calls[1], people[[3, 1, 2]].astype(np.float32))
    assert len(tracker.stored) == len(tracker.fakes) == tracker.key_pointer == 1
    assert state_bytes(tracker) == before


@pytest.mark.parametrize("bad_sampler, error", [
    (lambda rows: rows[:1], ShapeMismatch),  # one fake for three identities
    (lambda rows: rows[0], DimensionMismatch),
    (lambda rows: rows[:, :8], DimensionMismatch),
    (lambda rows: 2 * rows, NotUnitNorm),
])
def test_bad_sampler_result_raises_before_the_store_changes(rng, bad_sampler, error):
    people = np.linalg.qr(rng.normal(size=(16, 4)))[0].T
    tracker = TrackerState(sampler=lambda rows: -rows)
    tracker.track_rows(people[:1])
    before = state_bytes(tracker)
    tracker.sampler = bad_sampler
    with pytest.raises(error):
        tracker.track_rows(people[1:])
    assert state_bytes(tracker) == before


@pytest.mark.parametrize("bad", [np.nan, 2.0])
def test_bad_row_raises_before_the_store_changes(rng, bad):
    anchors = AnchorSet.from_embeddings([random_unit(rng, 8) for _ in range(4)])
    tracker = TrackerState(anchors=anchors)
    frames = np.stack([random_unit(rng, 8).values, random_unit(rng, 8).values])
    frames[1] *= bad
    with pytest.raises(NotUnitNorm, match="frame embedding 1"):
        tracker.track_rows(frames)
    assert tracker.key_pointer == 0 and len(tracker.fakes) == 0


def test_loaded_state_rejects_anchors_of_another_dimension(rng):
    tracker = TrackerState(sampler=lambda z: z)
    tracker.track(random_unit(rng, 16))
    anchors = AnchorSet.from_embeddings([random_unit(rng, 8) for _ in range(4)])
    with pytest.raises(DimensionMismatch, match="anchors have dimension 8.*dimension 16"):
        load_state(io.BytesIO(state_bytes(tracker)), anchors=anchors)
