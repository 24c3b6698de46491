"""With ``renormalize`` every file reader (``load_rows``, the slice reads of
``_open_rows`` and ``_distinct_table``) projects the rows its check passed in
place, by the norms that check took: each row has the bits of
``_normalize_rows`` on the file's rows widened to float64, its norm is taken
once per read, and ``load_rows`` holds its rows once. The anchors, gallery and
means a command loads are checked by the read alone."""

from unittest import mock

import numpy as np
import pytest

from fiva import AnchorSet, Gallery, NotUnitNorm, build_anchor_set, load_rows, read_container, write_container
from fiva import io as fio
from fiva import sphere
from fiva.cli import main
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


@pytest.mark.parametrize("command", ["build-anchors", "sample", "eval-retrieval"])
def test_a_loaded_file_is_checked_once(rng, tmp_path, monkeypatch, capsys, command):
    # The means, the anchors or the gallery, read whole: load_rows' check is the
    # only one; the anchor set, the gallery or build_anchor_set keep its rows.
    count = CHUNK_ROWS + 500
    loaded, other, out = (str(tmp_path / name) for name in ("loaded.emb", "other.emb", "out.emb"))
    labels = [f"id{i}" for i in range(count)]
    write_container(loaded, _normalize_rows(rng.normal(size=(count, DIM))), labels)
    write_container(other, _normalize_rows(rng.normal(size=(300, DIM))), labels[:300])
    rows = read_container(loaded)[0].astype(np.float64)
    position = {row.tobytes(): i for i, row in enumerate(rows)}
    checks, names = np.zeros(count, dtype=int), set()
    check = sphere._check_norms

    def spy(arr, name, *args, **kwargs):
        for row in arr:
            if (i := position.get(row.tobytes())) is not None:
                checks[i] += 1
                names.add(name)
        return check(arr, name, *args, **kwargs)

    monkeypatch.setattr(sphere, "_check_norms", spy)
    monkeypatch.setattr(fio, "_check_norms", spy)
    argv = {
        "build-anchors": ["--means", loaded, "--out", out],
        "sample": ["--anchors", loaded, "--query", other, "--out", out],
        "eval-retrieval": ["--probes", other, "--gallery", loaded],
    }[command]
    assert main([command, *argv]) == 0
    capsys.readouterr()
    assert names == {"row"}
    assert checks.tolist() == [1] * count


@pytest.mark.parametrize("name", ["anchor", "gallery entry", "mean"])
def test_rows_a_caller_builds_are_still_checked(rng, name):
    rows = _normalize_rows(rng.normal(size=(5, DIM)))
    rows[3] *= 1.5
    rows.flags.writeable = False  # as a loader returns its rows
    make = {
        "anchor": AnchorSet,
        "gallery entry": lambda rows: Gallery(rows, [f"id{i}" for i in range(len(rows))]),
        "mean": build_anchor_set,
    }[name]
    with pytest.raises(NotUnitNorm, match=f"^{name} 3 has norm 1.50000000"):
        make(rows)
