"""With ``renormalize`` every file reader (``load_rows``, the slice reads of
``_open_rows`` and ``_distinct_table``) projects the rows its check passed in
place, by the norms that check took: each row has the bits of
``_normalize_rows`` on the file's rows widened to float64, its norm is taken
once per read, and ``load_rows`` holds its rows once."""

from unittest import mock

import numpy as np
import pytest

from fiva import load_rows, read_container, write_container
from fiva import io as fio
from fiva import sphere
from fiva.sphere import _BLOCK_ELEMENTS, _normalize_rows

DIM = 64
CHUNK_ROWS = _BLOCK_ELEMENTS // (4 * DIM)  # rows per read chunk
COUNT = 2 * CHUNK_ROWS + 552  # three chunks


def scaled_rows(rng, count, dim=DIM):
    """Rows of norms spread over four decades, some repeated at twice their scale."""
    rows = rng.normal(size=(count, dim)) * 10.0 ** rng.uniform(-2, 2, size=(count, 1))
    rows[count // 2 :: 7] = 2.0 * rows[: len(rows[count // 2 :: 7])]
    return rows


@pytest.fixture
def path(rng, tmp_path):
    path = tmp_path / "rows.emb"
    write_container(path, scaled_rows(rng, COUNT), [f"r{i % 50}" for i in range(COUNT)])
    return path


def projected(path):
    """``_normalize_rows`` of the file's float32 rows widened to float64."""
    return _normalize_rows(read_container(path)[0].astype(np.float64))


def slices(count):
    return [slice(0, 1), slice(3, 300), slice(CHUNK_ROWS - 5, CHUNK_ROWS + 5), slice(count - 128, count)]


def test_load_rows_has_the_bits_of_the_projection(path):
    rows, labels = load_rows(path, renormalize=True)
    assert rows.dtype == np.float64 and not rows.flags.writeable
    assert rows.tobytes() == projected(path).tobytes()
    assert labels == [f"r{i % 50}" for i in range(COUNT)]


def test_slice_reads_have_the_bits_of_the_projection(path):
    want = projected(path)
    with fio._open_rows(path, renormalize=True) as (rows, _):
        for part in slices(COUNT):
            assert rows[part].tobytes() == want[part].tobytes(), part
            out = np.empty((part.stop - part.start, DIM))
            assert rows.read(part.start, part.stop, out) is out
            assert out.tobytes() == want[part].tobytes(), part


def test_the_distinct_table_folds_the_projection(path):
    want = projected(path)
    got, _ = fio._distinct_table(path, renormalize=True)
    assert got.table.dtype == np.float64
    assert got[0:COUNT].tobytes() == want.tobytes()
    # x and 2x project to one row, so the doubled rows fold onto their originals.
    assert len(got.table) == len(np.unique(want, axis=0)) < COUNT


@pytest.fixture
def norm_rows():
    """A spy on every ``_check_norms`` call, io's and sphere's: the rows it was given, in order."""
    seen = []

    def spy(arr, *args, **kwargs):
        seen.append(len(arr))
        return check(arr, *args, **kwargs)

    check = sphere._check_norms
    with mock.patch.object(fio, "_check_norms", spy), mock.patch.object(sphere, "_check_norms", spy):
        yield seen


@pytest.mark.parametrize("renormalize", [False, True])
def test_each_read_takes_each_row_norm_once(path, norm_rows, renormalize):
    if not renormalize:  # rows that pass the unit check
        write_container(path, projected(path))
        norm_rows.clear()
    load_rows(path, renormalize)
    assert sum(norm_rows) == COUNT
    norm_rows.clear()
    fio._distinct_table(path, renormalize)
    assert sum(norm_rows) == COUNT
    norm_rows.clear()
    with fio._open_rows(path, renormalize) as (rows, _):
        assert sum(norm_rows) == COUNT  # the whole-file check
        for part in slices(COUNT):
            norm_rows.clear()
            rows[part]
            assert sum(norm_rows) == part.stop - part.start, part

