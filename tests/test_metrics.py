import numpy as np
import pytest

from fiva import (
    DimensionMismatch,
    EmptyGallery,
    EmptyList,
    Gallery,
    LabelCountMismatch,
    LabeledEmbedding,
    ShapeMismatch,
    anti_id_loss,
    cosine,
    id_loss,
    id_retrieval_rate,
    neg_id_retrieval_rate,
    negate,
    normalize,
    pairwise_distance_matrix,
    recon_l1,
    retrieve,
    temporal_consistency,
)
from conftest import embedding_at_distance, random_unit


def make_gallery(rng, count=10, dim=32):
    entries = [
        LabeledEmbedding("id_%04d" % i, random_unit(rng, dim)) for i in range(count)
    ]
    return Gallery.from_entries(entries)


def one_video(frames):
    return temporal_consistency([frames]).per_video[0]


class TestPairwiseDistances:
    def test_identical_frames_exactly_zero(self, rng):
        z = random_unit(rng, 16)
        distances = pairwise_distance_matrix([z] * 4)
        assert distances.shape == (4, 4)
        assert np.all(distances == 0.0)

    def test_diagonal_exactly_zero(self, rng):
        frames = [random_unit(rng, 16) for _ in range(6)]
        distances = pairwise_distance_matrix(frames)
        assert np.all(np.diag(distances) == 0.0)

    def test_exactly_symmetric(self, rng):
        frames = [random_unit(rng, 16) for _ in range(8)]
        distances = pairwise_distance_matrix(frames)
        assert np.array_equal(distances, distances.T)

    def test_agrees_with_cosine_distance(self, rng):
        frames = [random_unit(rng, 16) for _ in range(5)]
        distances = pairwise_distance_matrix(frames)
        for i in range(5):
            for j in range(5):
                expected = 1.0 - cosine(frames[i], frames[j])
                assert abs(distances[i, j] - expected) <= 1e-9

    def test_range_clipped(self, rng):
        z = random_unit(rng, 8)
        distances = pairwise_distance_matrix([z, negate(z)])
        assert distances.max() <= 2.0
        assert distances.min() >= 0.0


class TestVideoConsistency:
    def test_identical_frames_give_exact_zero(self, rng):
        z = random_unit(rng, 32)
        stats = one_video([z] * 7)
        assert stats.mean_distance == 0.0
        assert stats.std_distance == 0.0

    def test_two_frame_oracle(self, rng):
        # oracle: matrix entries {0, d, d, 0} have mean d/2 and, as a
        # population, standard deviation d/2 as well
        center = random_unit(rng, 32)
        other = embedding_at_distance(center, 0.4, rng)
        stats = one_video([center, other])
        assert abs(stats.mean_distance - 0.2) <= 1e-9
        assert abs(stats.std_distance - 0.2) <= 1e-9

    def test_permutation_invariant(self, rng):
        frames = [random_unit(rng, 16) for _ in range(6)]
        base = one_video(frames)
        perm = list(rng.permutation(6))
        shuffled = one_video([frames[i] for i in perm])
        assert abs(base.mean_distance - shuffled.mean_distance) <= 1e-12
        assert abs(base.std_distance - shuffled.std_distance) <= 1e-12

    def test_single_frame(self, rng):
        stats = one_video([random_unit(rng, 8)])
        assert stats.mean_distance == 0.0
        assert stats.std_distance == 0.0


class TestTemporalConsistency:
    def test_aggregates_across_videos(self, rng):
        center_a = random_unit(rng, 32)
        center_b = random_unit(rng, 32)
        video_a = [center_a, embedding_at_distance(center_a, 0.4, rng)]
        video_b = [center_b, embedding_at_distance(center_b, 0.8, rng)]
        report = temporal_consistency([video_a, video_b])
        assert len(report.per_video) == 2
        assert abs(report.mean_of_means - 0.3) <= 1e-9
        assert abs(report.mean_of_stds - 0.3) <= 1e-9

    @pytest.mark.parametrize(
        "videos", [[], np.empty((0, 5, 8)), np.empty((0, 0, 8))], ids=["list", "stacked", "stacked_frameless"]
    )
    def test_empty_videos_rejected(self, videos):
        with pytest.raises(EmptyList, match="need at least one video"):
            temporal_consistency(videos)

    def test_empty_frame_list_rejected(self):
        with pytest.raises(EmptyList):
            temporal_consistency([[]])


class TestRetrieve:
    def test_finds_exact_member(self, rng):
        gallery = make_gallery(rng)
        for entry in gallery.entries:
            label, distance = retrieve(entry.embedding, gallery)
            assert label == entry.label
            assert distance <= 1e-6

    def test_nearest_wins(self, rng):
        gallery = make_gallery(rng, count=5)
        target = gallery.entries[3]
        probe = embedding_at_distance(target.embedding, 0.05, rng)
        label, distance = retrieve(probe, gallery)
        assert label == target.label
        assert abs(distance - 0.05) <= 1e-9

    def test_tie_takes_lowest_index(self):
        e1 = normalize([1.0, 0.0, 0.0])
        a = normalize([0.0, 1.0, 0.0])
        b = normalize([0.0, 0.0, 1.0])
        gallery = Gallery.from_entries((LabeledEmbedding("a", a), LabeledEmbedding("b", b)))
        label, distance = retrieve(e1, gallery)
        assert label == "a"
        assert distance == 1.0

    def test_empty_gallery(self, rng):
        with pytest.raises(EmptyGallery):
            retrieve(random_unit(rng, 8), Gallery.from_entries(()))

    @pytest.mark.parametrize("labels, error", [
        (["a", ""], ValueError), (["a", "a"], ValueError), (["a"], LabelCountMismatch),
    ])
    def test_gallery_labels_are_checked(self, rng, labels, error):
        rows = np.stack([random_unit(rng, 8).values for _ in range(2)])
        with pytest.raises(error):
            Gallery(rows, labels)

    def test_labeled_embedding_needs_a_label(self, rng):
        with pytest.raises(ValueError, match="label must be non-empty"):
            LabeledEmbedding("", random_unit(rng, 8))

    def test_dimension_mismatch(self, rng):
        gallery = make_gallery(rng, dim=16)
        with pytest.raises(DimensionMismatch):
            retrieve(random_unit(rng, 32), gallery)


class TestRetrievalRates:
    def test_perfect_when_probes_are_members(self, rng):
        gallery = make_gallery(rng)
        probes = [(e.embedding, e.label) for e in gallery.entries]
        report = id_retrieval_rate(probes, gallery, threshold=0.63)
        assert report.success_rate == 1.0
        assert all(p.success for p in report.per_query)

    def test_zero_when_labels_wrong(self, rng):
        gallery = make_gallery(rng)
        probes = [(e.embedding, "someone_else") for e in gallery.entries]
        report = id_retrieval_rate(probes, gallery, threshold=0.63)
        assert report.success_rate == 0.0

    def test_distance_gate_applies(self, rng):
        # right label but the probe sits past the threshold: no credit
        gallery = make_gallery(rng, count=1, dim=64)
        entry = gallery.entries[0]
        far = embedding_at_distance(entry.embedding, 0.9, rng)
        report = id_retrieval_rate([(far, entry.label)], gallery, threshold=0.63)
        assert report.success_rate == 0.0
        near = embedding_at_distance(entry.embedding, 0.3, rng)
        report = id_retrieval_rate([(near, entry.label)], gallery, threshold=0.63)
        assert report.success_rate == 1.0

    def test_boundary_distance_counts(self):
        # basis vectors give an exact zero distance, and the gate at
        # threshold zero is inclusive, so the success must still count
        e1 = normalize([1.0, 0.0])
        gallery = Gallery.from_entries((LabeledEmbedding("only", e1),))
        report = id_retrieval_rate([(e1, "only")], gallery, threshold=0.0)
        assert report.per_query[0].distance == 0.0
        assert report.success_rate == 1.0

    def test_accepts_labeled_embeddings(self, rng):
        gallery = make_gallery(rng)
        probes = list(gallery.entries)
        report = id_retrieval_rate(probes, gallery, threshold=0.63)
        assert report.success_rate == 1.0

    def test_negated_probe_rate(self, rng):
        gallery = make_gallery(rng)
        # negations of members recover them exactly under the inverted rate
        probes = [(negate(e.embedding), e.label) for e in gallery.entries]
        report = neg_id_retrieval_rate(probes, gallery, threshold=0.63)
        assert report.success_rate == 1.0

    def test_neg_rate_negates_before_search(self, rng):
        gallery = make_gallery(rng, count=4)
        entry = gallery.entries[2]
        probe = negate(entry.embedding)
        report = neg_id_retrieval_rate([(probe, entry.label)], gallery, 0.63)
        outcome = report.per_query[0]
        assert outcome.retrieved_label == entry.label
        assert outcome.distance <= 1e-6
        assert outcome.success

    def test_report_carries_threshold(self, rng):
        gallery = make_gallery(rng)
        probes = [(e.embedding, e.label) for e in gallery.entries]
        assert id_retrieval_rate(probes, gallery, threshold=0.5).threshold == 0.5

    def test_threshold_range(self, rng):
        gallery = make_gallery(rng)
        probes = [(e.embedding, e.label) for e in gallery.entries]
        with pytest.raises(ValueError):
            id_retrieval_rate(probes, gallery, threshold=-0.1)
        with pytest.raises(ValueError):
            id_retrieval_rate(probes, gallery, threshold=2.1)
        id_retrieval_rate(probes, gallery, threshold=2.0)

    def test_empty_probes(self, rng):
        gallery = make_gallery(rng)
        with pytest.raises(EmptyList):
            id_retrieval_rate([], gallery, threshold=0.63)


class TestLosses:
    def test_anti_id_loss_extremes(self, rng):
        z = random_unit(rng, 16)
        fake = negate(z)
        # both terms hit -1, so the loss bottoms out at zero
        assert abs(anti_id_loss(z, fake, fake) - 0.0) <= 1e-6
        assert abs(anti_id_loss(z, z, z) - 4.0) <= 1e-6

    def test_anti_id_loss_formula(self, rng):
        z = random_unit(rng, 16)
        g = random_unit(rng, 16)
        f = random_unit(rng, 16)
        expected = 2.0 + cosine(z, g) + cosine(z, f)
        assert abs(anti_id_loss(z, g, f) - expected) <= 1e-12

    def test_id_loss(self, rng):
        z = random_unit(rng, 16)
        assert id_loss(z, z) <= 1e-6
        assert abs(id_loss(z, negate(z)) - 2.0) <= 1e-6

    def test_recon_l1_oracle(self):
        x = np.array([[0.0, 0.5], [1.0, 0.25]])
        y = np.array([[0.5, 0.5], [0.0, 0.75]])
        # oracle: mean of |diffs| = (0.5 + 0 + 1 + 0.5) / 4
        assert abs(recon_l1(x, y) - 0.5) <= 1e-12

    def test_recon_l1_zero_for_equal(self, rng):
        x = rng.uniform(size=(4, 6, 3))
        assert recon_l1(x, x.copy()) == 0.0

    def test_recon_l1_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            recon_l1(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(EmptyList):
            recon_l1(np.zeros((0, 3)), np.zeros((0, 3)))
