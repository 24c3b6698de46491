import numpy as np
import pytest

from fiva import (
    AnchorSet,
    AntipodalPair,
    Embedding,
    MockAnonymizer,
    SynthConfig,
    TrackerState,
    build_anchor_set,
    cosine,
    cosine_distance,
    end_to_end_benchmark,
    generate_frames,
    generate_identities,
    mock_anonymize,
    negate,
    slerp,
)
from fiva.util import spawn_seed
from conftest import random_unit


def small_config(**overrides):
    base = dict(dimension=32, identity_count=12, frames_per_identity=4,
                jitter_sigma=0.02, seed=5)
    base.update(overrides)
    return SynthConfig(**base)


def make_anchors(rng, count=8, dim=32):
    return AnchorSet.from_embeddings([random_unit(rng, dim) for _ in range(count)])


class TestGenerateIdentities:
    def test_count_labels_and_norms(self):
        gallery = generate_identities(SynthConfig(dimension=64, identity_count=25, seed=1))
        assert len(gallery.entries) == 25
        assert gallery.labels[0] == "id_0000"
        assert gallery.labels[24] == "id_0024"
        for entry in gallery.entries:
            assert abs(entry.embedding.norm - 1.0) <= 1e-6

    def test_seed_determinism(self):
        a = generate_identities(SynthConfig(dimension=32, identity_count=10, seed=9))
        b = generate_identities(SynthConfig(dimension=32, identity_count=10, seed=9))
        assert a.matrix.tobytes() == b.matrix.tobytes()
        c = generate_identities(SynthConfig(dimension=32, identity_count=10, seed=10))
        assert a.matrix.tobytes() != c.matrix.tobytes()

    def test_identities_spread_out(self):
        # random gaussian directions in high dimension are nearly orthogonal
        gallery = generate_identities(SynthConfig(dimension=512, identity_count=100, seed=0))
        sims = gallery.matrix @ gallery.matrix.T
        off_diagonal = sims[~np.eye(100, dtype=bool)]
        assert np.abs(off_diagonal).max() < 0.3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(dimension=1)
        with pytest.raises(ValueError):
            SynthConfig(identity_count=0)
        with pytest.raises(ValueError):
            SynthConfig(jitter_sigma=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(frames_per_identity=0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SynthConfig(seed=-1)
        with pytest.raises(ValueError, match="seeds and sub-seed keys must be non-negative"):
            spawn_seed(-1)


class TestGenerateFrames:
    def test_zero_jitter_gives_exact_copies(self, rng):
        center = random_unit(rng, 32)
        frames = generate_frames(center, count=5, jitter_sigma=0.0, seed=3)
        assert len(frames) == 5
        for frame in frames:
            assert frame.values.tobytes() == center.values.tobytes()

    def test_jittered_frames_stay_near_center(self, rng):
        center = random_unit(rng, 64)
        frames = generate_frames(center, count=20, jitter_sigma=0.01, seed=3)
        for frame in frames:
            assert abs(frame.norm - 1.0) <= 1e-6
            assert cosine_distance(frame, center) < 0.05

    def test_seed_determinism(self, rng):
        center = random_unit(rng, 16)
        a = generate_frames(center, 4, jitter_sigma=0.05, seed=8)
        b = generate_frames(center, 4, jitter_sigma=0.05, seed=8)
        for x, y in zip(a, b):
            assert x.values.tobytes() == y.values.tobytes()

    def test_count_validation(self, rng):
        with pytest.raises(ValueError):
            generate_frames(random_unit(rng, 8), count=0, jitter_sigma=0.1, seed=0)
        with pytest.raises(ValueError, match="jitter_sigma must be >= 0"):
            generate_frames(random_unit(rng, 8), count=2, jitter_sigma=-0.1, seed=0)


class TestMockAnonymizer:
    def test_negation_mode(self, rng):
        anonymizer = MockAnonymizer(mode="negation")
        z = random_unit(rng, 32)
        fake = mock_anonymize(z, anonymizer)
        assert fake == negate(z)

    def test_anchor_sample_mode_returns_an_anchor(self, rng):
        anchors = make_anchors(rng)
        anonymizer = MockAnonymizer(mode="anchor_sample", margin=0.0, anchors=anchors)
        z = random_unit(rng, 32)
        fake = mock_anonymize(z, anonymizer)
        assert any(fake == a for a in anchors.anchors)

    def test_slerp_blend_mode(self, rng):
        anchors = make_anchors(rng)
        anonymizer = MockAnonymizer(mode="slerp_blend", blend=0.5, anchors=anchors)
        z = random_unit(rng, 32)
        fake = mock_anonymize(z, anonymizer)
        # blend walks from the identity toward the sampled anchor
        sims = [cosine(z, a) for a in anchors.anchors]
        nearest = int(np.argmin(np.abs(sims)))
        expected = slerp(z, anchors.anchors[nearest], 0.5)
        assert fake == expected

    def test_anchor_modes_require_anchors(self):
        with pytest.raises(ValueError):
            MockAnonymizer(mode="anchor_sample")
        with pytest.raises(ValueError):
            MockAnonymizer(mode="slerp_blend")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            MockAnonymizer(mode="identity")
        with pytest.raises(ValueError, match="blend must be in"):
            MockAnonymizer(mode="negation", blend=2)

    def test_slerp_blend_toward_the_antipode_raises(self, rng):
        # At margin 1 the sampler picks the anchor nearest cosine -1: here -z itself.
        z = random_unit(rng, 32)
        anchors = AnchorSet.from_embeddings([random_unit(rng, 32), negate(z)])
        anonymizer = MockAnonymizer(mode="slerp_blend", margin=1.0, anchors=anchors)
        with pytest.raises(AntipodalPair):
            mock_anonymize(z, anonymizer)


class TestEndToEndBenchmark:
    def test_negation_mode_rates(self):
        # dimension high enough that no two identity centers fall inside
        # the tracker threshold and merge tracks
        config = small_config(jitter_sigma=0.0, dimension=128)
        result = end_to_end_benchmark(config, MockAnonymizer(mode="negation"))
        for variant in (result.tracked, result.per_frame):
            assert variant.id_report.success_rate == 0.0
            assert variant.neg_id_report.success_rate == 1.0

    def test_anchor_mode_breaks_negation_recovery(self, rng):
        config = small_config(jitter_sigma=0.0, dimension=64, identity_count=20)
        gallery = generate_identities(config)
        anchors = build_anchor_set(list(gallery.embeddings), rounds=2)
        anonymizer = MockAnonymizer(mode="anchor_sample", margin=0.0, anchors=anchors)
        result = end_to_end_benchmark(config, anonymizer)
        assert result.tracked.id_report.success_rate == 0.0
        assert result.tracked.neg_id_report.success_rate == 0.0

    def test_tracked_variant_has_constant_fakes(self):
        config = small_config(jitter_sigma=0.01)
        result = end_to_end_benchmark(config, MockAnonymizer(mode="negation"))
        assert result.tracked.temporal.mean_of_stds == 0.0
        # per frame anonymization follows the jittered input around
        assert result.per_frame.temporal.mean_of_stds > 0.0

    def test_zero_jitter_collapses_both_variants(self):
        config = small_config(jitter_sigma=0.0)
        result = end_to_end_benchmark(config, MockAnonymizer(mode="negation"))
        assert result.tracked.temporal.mean_of_means == 0.0
        assert result.per_frame.temporal.mean_of_means == 0.0

    def test_frame_and_fake_bookkeeping(self):
        config = small_config()
        result = end_to_end_benchmark(config, MockAnonymizer(mode="negation"))
        n = config.identity_count
        k = config.frames_per_identity
        assert len(result.frames) == n
        assert all(len(v) == k for v in result.frames)
        assert len(result.tracked_fakes) == n
        assert all(len(v) == k for v in result.tracked_fakes)
        assert len(result.per_frame_fakes) == n
        assert len(result.gallery.entries) == n

    def test_deterministic_across_runs(self):
        config = small_config()
        a = end_to_end_benchmark(config, MockAnonymizer(mode="negation"))
        b = end_to_end_benchmark(config, MockAnonymizer(mode="negation"))
        assert a.tracked.temporal.mean_of_means == b.tracked.temporal.mean_of_means
        assert a.per_frame.temporal.mean_of_means == b.per_frame.temporal.mean_of_means
        for va, vb in zip(a.per_frame_fakes, b.per_frame_fakes):
            for fa, fb in zip(va, vb):
                assert fa.tobytes() == fb.tobytes()


class TestArraysMatchSingleRowPaths:
    """The array-first benchmark takes the bits of the public one-row functions."""

    @pytest.mark.parametrize("mode, margin", [
        ("negation", 0.0),
        ("anchor_sample", 0.0),
        ("anchor_sample", 0.3),
        ("slerp_blend", 0.0),
        ("slerp_blend", 0.3),
    ])
    def test_byte_identical(self, mode, margin):
        config = small_config()
        gallery = generate_identities(config)
        anchors = None if mode == "negation" else build_anchor_set(gallery.embeddings, rounds=2)
        anonymizer = MockAnonymizer(mode=mode, margin=margin, anchors=anchors)
        result = end_to_end_benchmark(config, anonymizer)
        per_video = config.frames_per_identity
        shape = (config.identity_count, per_video, config.dimension)
        # Each property builds its whole array when read, so each is read once.
        all_frames, per_frame_fakes, tracked_fakes = result.frames, result.per_frame_fakes, result.tracked_fakes
        for array in (all_frames, tracked_fakes, per_frame_fakes):
            assert array.shape == shape and array.dtype == np.float64
        tracker = TrackerState(sampler=lambda rows: np.stack([
            mock_anonymize(Embedding(row), anonymizer).values for row in rows
        ]))
        for i, entry in enumerate(gallery.entries):
            frames = generate_frames(
                entry.embedding, per_video, config.jitter_sigma, spawn_seed(config.seed, 1, i)
            )
            assert all_frames[i].tobytes() == np.stack([f.values for f in frames]).tobytes()
            for frame, fake, tracked in zip(frames, per_frame_fakes[i], tracked_fakes[i]):
                assert fake.tobytes() == mock_anonymize(frame, anonymizer).values.tobytes()
                assert tracked.tobytes() == tracker.track(frame).fake_identity.values.tobytes()
