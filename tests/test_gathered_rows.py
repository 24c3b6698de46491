"""Gathered rows: a table and an index read a block at a time, with the bits of
the array ``table[index]`` in every consumer (container writes, retrieval,
temporal consistency)."""

from unittest import mock

import numpy as np
import pytest

from fiva import (
    Gallery,
    pairwise_distance_matrix,
    read_container,
    retrieval_reports,
    temporal_consistency,
    write_container,
)
from fiva import sphere
from fiva.sphere import _Take


def unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture
def table(rng):
    return unit_rows(rng, 12, 8)


class TestWrites:
    @pytest.mark.parametrize("suffix", [".emb", ".csv"])
    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("count", [0, 1, 10])
    def test_bytes_equal_the_gathered_array(self, rng, table, tmp_path, suffix, labeled, count):
        index = rng.integers(0, len(table), size=count)
        labels = [f"id_{i}" for i in range(count)] if labeled else None
        gathered, array = tmp_path / f"gathered{suffix}", tmp_path / f"array{suffix}"
        # Blocks of 3 rows: 10 rows end in a part block.
        with mock.patch.object(sphere, "_BLOCK_ELEMENTS", 3 * table.shape[1]):
            write_container(gathered, _Take(table, index), labels)
        write_container(array, table[index], labels)
        assert gathered.read_bytes() == array.read_bytes()

    def test_many_blocks_at_the_default_size(self, rng, tmp_path):
        table = unit_rows(rng, 300, 256)
        index = rng.integers(0, len(table), size=2500)  # 1024 rows a block: 3 blocks
        write_container(tmp_path / "gathered.emb", _Take(table, index))
        matrix, _ = read_container(tmp_path / "gathered.emb")
        assert matrix.tobytes() == table.astype(np.float32)[index].tobytes()


def test_retrieval_over_bit_equal_table_rows(rng):
    gallery = Gallery(unit_rows(rng, 20, 16), [f"id_{i:02d}" for i in range(20)])
    table = unit_rows(rng, 6, 16)
    table[4] = table[1]  # two bit-equal rows under different table indices
    index = rng.permutation(np.repeat(np.arange(6), 5))
    labels = [f"id_{i:02d}" for i in rng.integers(0, 20, size=len(index))]
    gathered = retrieval_reports(_Take(table, index), labels, gallery, 0.9)
    array = retrieval_reports(table[index], labels, gallery, 0.9)
    for got, want in zip(gathered, array):
        assert got == want
        assert got.distance.tobytes() == want.distance.tobytes()


def test_temporal_consistency_of_repeated_rows(rng):
    table = unit_rows(rng, 7, 32)
    table[5] = table[2]
    index = rng.integers(0, len(table), size=(40, 6))
    index[3] = 4  # a video of one row repeated
    # Five videos a block: several blocks and a part block.
    with mock.patch("fiva.metrics._BLOCK_ELEMENTS", 5 * 6 * (6 + 32)):
        got = temporal_consistency(_Take(table, index))
        want = temporal_consistency(table[index])
    assert got.video_means.tobytes() == want.video_means.tobytes()
    assert got.video_stds.tobytes() == want.video_stds.tobytes()
    assert got == want and got.video_means[3] == got.video_stds[3] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_listed_gathered_videos_have_the_bits_of_their_arrays(rng, dtype):
    # Each video gathers a few rows of a larger table, so a video is its index's
    # rows and not the table; indices repeat rows, and two table rows are bit-equal.
    table = unit_rows(rng, 30, 16).astype(dtype)
    table[9] = table[4]
    indices = [rng.integers(0, len(table), size=n) for n in (6, 6, 11, 1, 6)]
    indices[1][3] = indices[1][0]
    indices[2][:5] = [9, 4, 9, 4, 4]
    for index in indices:
        got, want = pairwise_distance_matrix(_Take(table, index)), pairwise_distance_matrix(table[index])
        assert got.shape == (len(index), len(index)) and got.tobytes() == want.tobytes()
    assert not pairwise_distance_matrix(_Take(table, indices[2]))[:5, :5].any()
    got = temporal_consistency([_Take(table, index) for index in indices])
    want = temporal_consistency([table[index] for index in indices])
    assert got.video_means.tobytes() == want.video_means.tobytes()
    assert got.video_stds.tobytes() == want.video_stds.tobytes()
    assert got == want
