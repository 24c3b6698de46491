"""Pairwise frame distances are exactly symmetric without a mirror step. numpy
forms a matrix times its own transpose as one triangle (BLAS SYRK) and copies it
to the other, and the distances are formed from that product elementwise. These
cases pin that behaviour: float64 rows and float32 rows (widened when scored),
blocks of 1 and 9 videos, lone frames to 2000 frames, and gathered rows."""

import numpy as np
import pytest

from fiva.metrics import _fold, _video_distances, pairwise_distance_matrix, temporal_consistency
from fiva.sphere import _Take

DIM = 512
FRAMES = (1, 2, 3, 50, 257, 2000)
# Nine 2000-frame videos would hold 275 MiB per (B, F, F) array; one of them is
# the long-video case.
BLOCKS = [(count, frames) for count in (1, 9) for frames in FRAMES if count * frames <= 9 * 257]


def unit_rows(rng, shape, dtype):
    rows = rng.normal(size=(*shape, DIM))
    return (rows / np.linalg.norm(rows, axis=-1, keepdims=True)).astype(dtype)


def assert_symmetric(distances):
    assert np.array_equal(distances, np.swapaxes(distances, -1, -2))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("count,frames", BLOCKS)
def test_a_block_of_videos_has_exactly_symmetric_distances(rng, dtype, count, frames):
    videos = unit_rows(rng, (count, frames), dtype)
    distances = _video_distances(videos, np.arange(count * frames).reshape(count, frames))
    assert distances.shape == (count, frames, frames)
    assert_symmetric(distances)
    assert not np.diagonal(distances, axis1=1, axis2=2).any()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("frames", FRAMES)
def test_pairwise_distance_matrix_is_exactly_symmetric(rng, dtype, frames):
    assert_symmetric(pairwise_distance_matrix(unit_rows(rng, (frames,), dtype)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("count,frames", BLOCKS)
def test_gathered_videos_have_exactly_symmetric_distances(rng, dtype, count, frames):
    # Each frame is one of 40 rows, so most pairs repeat a row and read exactly 0.
    table = unit_rows(rng, (40,), dtype)
    picks = rng.integers(0, 40, size=(count, frames))
    folded = _fold(_Take(table, picks.ravel()), "frame")
    index = folded.index.reshape(count, frames)
    distances = _video_distances(folded.table[index], index)
    assert_symmetric(distances)
    assert np.array_equal(distances == 0.0, picks[:, :, None] == picks[:, None, :])
    for video in range(0, count, 4):
        lone = pairwise_distance_matrix(_Take(table, picks[video]))
        assert_symmetric(lone)
        assert np.array_equal(lone, distances[video])


def test_scores_match_the_mirrored_matrix(rng):
    # The stats a mirror step would give: the upper triangle copied down.
    videos = unit_rows(rng, (3, 257), np.float32)
    distances = _video_distances(videos, np.arange(3 * 257).reshape(3, 257))
    lower, upper = np.tril_indices(257, -1)
    mirrored = distances.copy()
    mirrored[:, lower, upper] = mirrored[:, upper, lower]
    mean = mirrored.mean(axis=(1, 2))
    deviation = mirrored - mean[:, None, None]
    report = temporal_consistency(videos)
    assert np.array_equal(report.video_means, mean)
    assert np.array_equal(report.video_stds, np.sqrt((deviation * deviation).mean(axis=(1, 2))))
