"""Scoring computes each product once: one gallery product serves the id and
neg-id reports, tracked fakes are scored once per key, and temporal
consistency is one batched Gram product per block of equal-shape videos."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiva import (
    Gallery,
    MockAnonymizer,
    ProbeOutcome,
    ShapeMismatch,
    SynthConfig,
    build_anchor_set,
    end_to_end_benchmark,
    generate_identities,
    pairwise_distance_matrix,
    retrieval_report,
    retrieval_reports,
    temporal_consistency,
)
from fiva import cli, metrics, synth

EPS = np.finfo(np.float64).eps


def unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def stored(rows):
    """Rows after a float32 file round trip: up to ~1e-7 off the sphere."""
    return rows.astype(np.float32).astype(np.float64)


def row_loop_distances(rows):
    """The difference form ``|a - b|^2 / 2``, one row at a time, clipped to [0, 2]."""
    n = len(rows)
    distances = np.empty((n, n))
    for i in range(n):
        diff = rows - rows[i]
        distances[i] = 0.5 * (diff * diff).sum(axis=1)
    return np.clip(distances, 0.0, 2.0)


def entry_bound(dim):
    """Recorded bound of a Gram-form entry against the difference form."""
    return (dim + 2) * EPS


def stat_bound(dim, frames):
    """The entry bound plus the rounding of two sums of ``frames ** 2`` values."""
    return entry_bound(dim) + 2 * math.log2(max(2, frames * frames)) * EPS


def jittered_video(rng, frames, dim, sigma=0.01):
    center = unit_rows(rng, 1, dim)
    noisy = center + rng.normal(0.0, sigma, size=(frames, dim))
    return noisy / np.linalg.norm(noisy, axis=1, keepdims=True)


class TestRetrievalReports:
    @pytest.mark.parametrize("dim, gallery_size, probes", [(16, 5, 1), (64, 40, 300), (512, 300, 700)])
    def test_matches_one_flag_calls(self, rng, dim, gallery_size, probes):
        matrix = unit_rows(rng, gallery_size, dim)
        gallery = Gallery(matrix, [f"g{i}" for i in range(gallery_size)])
        picked = rng.integers(0, gallery_size, size=probes)
        queries = matrix[picked] + rng.normal(0.0, 0.2, size=(probes, dim))
        queries[::3] *= -1.0
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        labels = [f"g{i}" for i in picked]
        for flags in ((False, True), (True, False), (True,), (False, False)):
            both = retrieval_reports(queries, labels, gallery, 0.63, flags)
            assert len(both) == len(flags)
            for flag, got in zip(flags, both):
                want = retrieval_report(queries, labels, gallery, 0.63, negate=flag)
                assert np.array_equal(got.index, want.index)
                assert got.distance.tobytes() == want.distance.tobytes()
                assert np.array_equal(got.success, want.success)
                assert got.success_rate == want.success_rate
                assert got.per_query == want.per_query
                assert got == want
                # Negation is exact: the flag reads as negated probes, bit for bit.
                flipped = retrieval_report(-queries if flag else queries, labels, gallery, 0.63)
                assert got.distance.tobytes() == flipped.distance.tobytes()
                assert np.array_equal(got.index, flipped.index)

    def test_per_query_is_built_from_the_arrays(self, rng):
        matrix = unit_rows(rng, 6, 8)
        gallery = Gallery(matrix, list("abcdef"))
        queries = stored(np.concatenate([matrix[:3], -matrix[3:]]))
        report = retrieval_report(queries, list("abcdxx"), gallery, 0.63)
        assert report.per_query == tuple(
            ProbeOutcome(true, gallery.labels[i], d, bool(s))
            for true, i, d, s in zip(list("abcdxx"), report.index, report.distance, report.success)
        )
        assert [o.success for o in report.per_query] == [True] * 3 + [False] * 3
        assert report.success_rate == 0.5
        assert hash(report) == hash(retrieval_report(queries, list("abcdxx"), gallery, 0.63))
        with pytest.raises(ValueError):
            report.index[0] = 1

    def test_label_count_checked_per_report(self, rng):
        gallery = Gallery(unit_rows(rng, 3, 8), ["a", "b", "c"])
        with pytest.raises(ShapeMismatch):
            retrieval_reports(unit_rows(rng, 4, 8), ["a"] * 3, gallery, 0.63)


class TestGramTemporal:
    @pytest.mark.parametrize("dim", [2, 64, 512])
    @pytest.mark.parametrize("round_trip", [False, True], ids=["unit", "float32"])
    def test_within_bound_of_row_loop(self, rng, dim, round_trip):
        videos = []
        for frames in (1, 2, 5, 17, 40):
            for video in (unit_rows(rng, frames, dim), jittered_video(rng, frames, dim)):
                videos.append(stored(video) if round_trip else video)
        report = temporal_consistency(videos)
        for video, mean, std in zip(videos, report.video_means, report.video_stds):
            want = row_loop_distances(video)
            got = pairwise_distance_matrix(video)
            assert np.abs(got - want).max() <= entry_bound(dim)
            assert np.array_equal(got, got.T)
            assert got.min() >= 0.0 and got.max() <= 2.0
            assert np.all(np.diag(got) == 0.0)
            want_mean = want.mean()
            want_std = np.sqrt(np.mean((want - want_mean) ** 2))
            assert abs(mean - want_mean) <= stat_bound(dim, len(video))
            assert abs(std - want_std) <= stat_bound(dim, len(video))

    def test_antipodal_rows(self, rng):
        z = unit_rows(rng, 1, 64)[0]
        distances = pairwise_distance_matrix(np.stack([z, -z, z]))
        assert distances[0, 1] == distances[1, 0] <= 2.0
        assert 2.0 - distances[0, 1] <= entry_bound(64)
        assert distances[0, 2] == distances[2, 0] == 0.0

    def test_mixed_lengths_in_one_call(self, rng):
        shapes = [(3, 16), (7, 16), (3, 16), (1, 16), (7, 8), (12, 16), (3, 8)]
        videos = [stored(jittered_video(rng, n, dim)) for n, dim in shapes]
        videos[1][4] = videos[1][2]
        together = temporal_consistency(videos)
        assert len(together.per_video) == len(videos)
        for video, mean, std in zip(videos, together.video_means, together.video_stds):
            # A video's stats do not depend on which videos share its call.
            alone = temporal_consistency([video])
            assert alone.video_means[0] == mean and alone.video_stds[0] == std
        assert together.mean_of_means == float(np.mean(together.video_means))
        assert together.mean_of_stds == float(np.mean(together.video_stds))

    def test_stacked_array_is_scored_as_its_videos(self, rng):
        videos = np.stack([jittered_video(rng, 6, 32) for _ in range(9)])
        videos[4] = videos[4, :1]
        from_array = temporal_consistency(videos)
        from_list = temporal_consistency(list(videos))
        assert from_array == from_list
        assert from_array.video_means.tobytes() == from_list.video_means.tobytes()
        assert from_array.per_video[4].mean_distance == 0.0

    def test_float32_duplicates_are_exactly_zero(self, rng):
        # 1 - <a, a> is about 1e-8 on these rows; equal rows still give 0.
        row = stored(unit_rows(rng, 1, 512))
        report = temporal_consistency([np.repeat(row, 5, axis=0)])
        assert report.mean_of_means == 0.0 and report.mean_of_stds == 0.0

    def test_copies_are_zero_where_the_raw_gram_form_is_not(self):
        # On some of these videos (s_i + s_j) / 2 - g_ij leaves the copy a few
        # eps away (OpenBLAS 0.3.31 on x86-64); the pair still reads 0.
        rng = np.random.default_rng(0)
        for _ in range(300):
            frames, dim = int(rng.integers(2, 30)), int(rng.choice([16, 100, 513]))
            rows = stored(unit_rows(rng, frames, dim))
            i, j = sorted(rng.choice(frames, 2, replace=False))
            rows[j] = rows[i]
            distances = pairwise_distance_matrix(rows)
            assert distances[i, j] == distances[j, i] == 0.0

    def test_blocks_cover_many_videos(self, rng):
        # More videos than one block holds, with duplicates across block edges.
        videos = np.stack([stored(jittered_video(rng, 4, 64)) for _ in range(1500)])
        videos[::7, 3] = videos[::7, 0]
        report = temporal_consistency(videos)
        for i in (0, 7, 700, 1499):
            assert report.video_means[i] == temporal_consistency([videos[i]]).video_means[0]
        assert pairwise_distance_matrix(videos[700])[0, 3] == 0.0


@st.composite
def videos_with_duplicates(draw):
    dim = draw(st.sampled_from([2, 3, 16, 64]))
    frames = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = stored(unit_rows(np.random.default_rng(seed), frames, dim))
    copies = draw(st.lists(st.tuples(st.integers(0, frames - 1), st.integers(0, frames - 1)), max_size=6))
    for source, target in copies:
        rows[target] = rows[source]
    return rows


def zero_equal_codes(videos, distances):
    """Set to 0 each pair of a (B, n, D) block's videos whose rows share an index
    entry of the block's one fold, as temporal consistency does."""
    count, n, dim = videos.shape
    codes = metrics._fold(videos.reshape(count * n, dim), "frame").index.reshape(count, n)
    distances[codes[:, :, None] == codes[:, None, :]] = 0.0


class TestEqualRowsAreExactlyZero:
    @settings(max_examples=60, deadline=None)
    @given(videos_with_duplicates())
    def test_injected_copies_give_zero(self, rows):
        distances = pairwise_distance_matrix(rows)
        equal = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
        assert np.all(distances[equal] == 0.0)
        assert np.array_equal(distances, distances.T)

    @settings(max_examples=60, deadline=None)
    @given(videos_with_duplicates(), st.data())
    def test_one_ulp_neighbours_are_not_forced(self, rows, data):
        # Every pair sits within the candidate gap, so only row equality decides.
        n, dim = rows.shape
        near = rows.copy()
        if n > 1:
            target = data.draw(st.integers(1, n - 1))
            coord = data.draw(st.integers(0, dim - 1))
            near[target] = rows[0]
            near[target, coord] = np.nextafter(rows[0, coord], np.inf)
        tiny = np.full((1, n, n), EPS)
        tiny[0, np.arange(n), np.arange(n)] = 0.0
        zero_equal_codes(near[None], tiny)
        equal = (near[:, None, :] == near[None, :, :]).all(axis=2)
        assert np.all(tiny[0][equal] == 0.0)
        assert np.all(tiny[0][~equal] == EPS)

    @pytest.mark.parametrize("dim", [2, 16, 512])
    def test_copies_are_bit_equal_rows(self, rng, dim):
        # A row with a 0.0, its copy, and the copy with that 0.0 set to -0.0.
        row = rng.normal(size=(1, dim))
        row[0, 0] = 0.0
        video = stored(np.repeat(row / np.linalg.norm(row), 3, axis=0))
        video[2, 0] = -0.0
        distances = pairwise_distance_matrix(video)
        assert distances[0, 1] == distances[1, 0] == 0.0
        difference = row_loop_distances(video)
        assert np.abs(distances - difference).max() <= entry_bound(dim)
        tiny = np.full((1, 3, 3), EPS)
        zero_equal_codes(video[None], tiny)
        assert tiny[0, 0, 1] == tiny[0, 1, 0] == 0.0
        assert tiny[0, 0, 2] == tiny[0, 2, 1] == EPS

    def test_rows_shared_across_videos_are_not_forced(self, rng):
        # Distinct rows within each video; video 1 repeats two rows of video 0.
        videos = np.stack([stored(unit_rows(rng, 4, 16)) for _ in range(2)])
        videos[1, 3] = videos[0, 0]
        videos[1, 0] = videos[0, 2]
        tiny = np.full((2, 4, 4), EPS)
        zero_equal_codes(videos, tiny)
        off_diagonal = ~np.eye(4, dtype=bool)
        assert np.all(tiny[:, off_diagonal] == EPS)


def small_bench(mode="anchor_sample", margin=0.0, identities=60, frames=6, dim=32):
    config = SynthConfig(dim, identities, frames, 0.01, 5)
    gallery = generate_identities(config)
    anchors = None if mode == "negation" else build_anchor_set(gallery.matrix, rounds=2)
    return config, gallery, MockAnonymizer(mode, margin, 0.5, anchors)


class TestTrackedScoring:
    @pytest.mark.parametrize("mode, margin", [
        ("anchor_sample", 0.0), ("anchor_sample", 0.3), ("negation", 0.0), ("slerp_blend", 0.3),
    ])
    def test_distinct_rows_match_per_frame_scoring(self, mode, margin):
        config, gallery, anonymizer = small_bench(mode, margin)
        result = end_to_end_benchmark(config, anonymizer)
        rows = result.tracked_fakes.reshape(-1, config.dimension)
        labels = [label for label in gallery.labels for _ in range(config.frames_per_identity)]
        want = retrieval_reports(rows, labels, gallery, 0.63)
        got = (result.tracked.id_report, result.tracked.neg_id_report)
        for g, w in zip(got, want):
            assert np.array_equal(g.index, w.index)
            assert np.abs(g.distance - w.distance).max() <= config.dimension * EPS
            assert np.array_equal(g.success, w.success)
            assert list(g.true_labels) == labels

    def test_tracked_rows_searched_once_per_key(self):
        # At D = 128 no two identities fall within the tracker threshold.
        config, _, anonymizer = small_bench(dim=128)
        with mock.patch.object(metrics, "_nearest", wraps=metrics._nearest) as spy:
            result = end_to_end_benchmark(config, anonymizer)
        # Retrieval searches the per-frame fakes, then the tracked ones.
        per_frame, tracked = spy.call_args_list
        searched = tracked.args[0]
        assert len(searched) <= config.identity_count
        fakes = result.tracked_fakes.reshape(-1, config.dimension)
        assert len(searched) == len(np.unique(fakes, axis=0))


class TestBenchGallery:
    def test_given_gallery_gives_the_same_result(self):
        config, gallery, anonymizer = small_bench()
        given_ = end_to_end_benchmark(config, anonymizer, gallery=gallery)
        built = end_to_end_benchmark(config, anonymizer)
        assert given_.gallery is gallery
        assert given_.tracked_fakes.tobytes() == built.tracked_fakes.tobytes()
        assert given_.per_frame == built.per_frame and given_.tracked == built.tracked

    def test_gallery_shape_checked_against_config(self):
        config, gallery, anonymizer = small_bench()
        other = SynthConfig(config.dimension, config.identity_count + 1, 2, 0.01, 5)
        with pytest.raises(ShapeMismatch):
            end_to_end_benchmark(other, anonymizer, gallery=gallery)

    def test_cmd_bench_generates_the_gallery_once(self, tmp_path):
        with mock.patch.object(synth, "generate_identities", wraps=synth.generate_identities) as made:
            code = cli.main(["bench", "--identities", "20", "--frames", "3", "--dim", "16",
                             "--out-dir", str(tmp_path)])
        assert code == 0
        assert made.call_count == 1
