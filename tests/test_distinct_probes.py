"""Retrieval scores each distinct probe once: the exact row fold in front of the
search, the in-place pick of the nearest-row kernel, and ``eval-retrieval``'s
reader, which folds the probes file a read chunk at a time as it checks it."""

import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiva
from fiva import (
    DimensionMismatch,
    Gallery,
    load_gallery,
    load_rows,
    retrieval_report,
    retrieval_reports,
    write_container,
)
from fiva import io as fio
from fiva import metrics, sphere
from fiva.cli import main
from fiva.metrics import _distinct_rows
from fiva.sphere import _Take

EPS = np.finfo(np.float64).eps


def unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def byte_fold(rows):
    """Reference fold: per row, the rank of its bytes by first appearance."""
    seen = {}
    inverse = [seen.setdefault(row.tobytes(), len(seen)) for row in rows]
    return list(seen), np.array(inverse, dtype=np.intp)


# Few distinct values, so rows often share their two leading words and
# differ later, and -0.0 sits next to 0.0.
LEAD = st.sampled_from([0.0, -0.0, 1.0])
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300])


@st.composite
def row_sets(draw):
    dim = draw(st.integers(2, 5))
    row = st.tuples(LEAD, LEAD, st.lists(VALUES, min_size=dim - 2, max_size=dim - 2))
    pool = [[a, b, *rest] for a, b, rest in draw(st.lists(row, min_size=1, max_size=6))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return np.array([pool[i] for i in picks], dtype=np.float64).reshape(len(picks), dim)


class TestDistinctRows:
    @settings(max_examples=200, deadline=None)
    @given(row_sets(), st.sampled_from([None, 4, 16]))
    def test_fold_is_exact(self, rows, budget):
        # A small budget compares neighbours over several chunks.
        with mock.patch.object(metrics, "_BLOCK_ELEMENTS", budget or metrics._BLOCK_ELEMENTS):
            first, inverse = _distinct_rows(rows)
        keys, want = byte_fold(rows)
        distinct = rows[first]
        assert distinct[inverse].tobytes() == rows.tobytes()
        assert np.array_equal(inverse, want)
        # Pairwise bit-distinct, each at its first appearance, in that order.
        assert [row.tobytes() for row in distinct] == keys
        assert np.array_equal(first, [list(want).index(j) for j in range(len(keys))])

    def test_empty_and_single_row(self):
        first, inverse = _distinct_rows(np.empty((0, 7)))
        assert first.shape == inverse.shape == (0,)
        first, inverse = _distinct_rows(np.array([[0.6, 0.8]]))
        assert first.tolist() == inverse.tolist() == [0]

    def test_signed_zeros_stay_apart(self):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [-0.0, 1.0]])
        first, inverse = _distinct_rows(rows)
        assert first.tolist() == [0, 1, 3, 4]
        assert inverse.tolist() == [0, 1, 0, 2, 3, 1]

    def test_rows_equal_in_their_leading_words_only(self):
        # One run of equal leading words holding three different rows, interleaved.
        a, b, c = [0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 3.0, 4.0], [0.0, 0.0, 1.0, 5.0]
        rows = np.array([a, b, a, c, b, a, [7.0, 0.0, 1.0, 2.0]])
        first, inverse = _distinct_rows(rows)
        assert first.tolist() == [0, 1, 3, 6]
        assert inverse.tolist() == [0, 1, 0, 2, 1, 0, 3]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_all_sharing_their_leading_words(self, rng, dtype):
        # Zero-padded rows: every row ties on its leading words, so the 999 tied
        # neighbours are compared over many chunks of 16 rows.
        base = rng.normal(size=(60, 32)).astype(dtype)
        base[:, :2] = 0.0
        base[::7, 0] = -0.0
        base[1::9, 5:] = base[0, 5:]  # rows equal to row 0 except in values 2 to 4
        rows = base[rng.integers(0, 60, size=1000)]
        with mock.patch.object(metrics, "_BLOCK_ELEMENTS", 16 * 32):
            first, inverse = _distinct_rows(rows)
        keys, want = byte_fold(rows)
        assert [row.tobytes() for row in rows[first]] == keys
        assert np.array_equal(inverse, want)
        assert np.array_equal(first, [list(want).index(j) for j in range(len(keys))])

    def test_all_distinct_rows(self, rng):
        first, inverse = _distinct_rows(unit_rows(rng, 300, 16))
        assert np.array_equal(first, np.arange(300))
        assert np.array_equal(inverse, np.arange(300))

    def test_all_distinct_leading_words_give_the_identity(self, rng):
        rows = unit_rows(rng, 200, 16)
        first, inverse = _distinct_rows(rows)
        assert np.array_equal(first, np.arange(200)) and np.array_equal(inverse, np.arange(200))
        # Copies, and rows equal only in their leading words, still fold exactly.
        copies = np.concatenate([rows[:5], rows[:5], rows[:3]])
        copies[2, 5] += 1.0
        first, inverse = _distinct_rows(copies)
        keys, want = byte_fold(copies)
        assert [row.tobytes() for row in copies[first]] == keys
        assert np.array_equal(inverse, want)

    def test_many_copies_over_chunks(self, rng):
        base = unit_rows(rng, 50, 64)
        picks = rng.integers(0, 50, size=5000)
        rows = base[picks]
        first, inverse = _distinct_rows(rows)
        assert np.array_equal(first, np.sort(np.unique(picks, return_index=True)[1]))
        assert rows[first][inverse].tobytes() == rows.tobytes()


def nearest_row_by_row(probes, matrix, negate):
    """Reference search, one probe at a time: lowest index within D eps of the
    smallest distance, and that distance."""
    dim = probes.shape[1]
    index = np.empty(len(probes), dtype=np.intp)
    distance = np.empty(len(probes))
    for i, q in enumerate(probes):
        d = 1.0 - np.clip(matrix @ (-q if negate else q), -1.0, 1.0)
        index[i] = np.argmax(d <= d.min() + dim * EPS)
        distance[i] = d[index[i]]
    return index, distance


class TestRetrievalOnCopies:
    @pytest.mark.parametrize("dim, gallery_size, distinct, copies", [
        (16, 7, 5, 40), (64, 50, 120, 400), (512, 300, 200, 700),
    ])
    def test_matches_unfolded_reference(self, rng, dim, gallery_size, distinct, copies):
        matrix = unit_rows(rng, gallery_size, dim)
        gallery = Gallery(matrix, [f"g{i}" for i in range(gallery_size)])
        owner = rng.integers(0, gallery_size, size=distinct)
        rows = matrix[owner] + rng.normal(0.0, 0.3, size=(distinct, dim))
        rows[::4] = matrix[owner[::4]]  # probes equal to a gallery row
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        source = np.concatenate([np.arange(distinct), rng.integers(0, distinct, size=copies)])
        rng.shuffle(source)
        probes = rows[source]
        labels = [f"g{owner[s]}" if s % 3 else "nobody" for s in source]
        threshold = 0.63
        reports = retrieval_reports(probes, labels, gallery, threshold, (False, True))
        for negate, report in zip((False, True), reports):
            index, distance = nearest_row_by_row(probes, matrix, negate)
            assert np.array_equal(report.index, index)
            assert [o.retrieved_label for o in report.per_query] == [f"g{i}" for i in index]
            assert list(report.true_labels) == labels
            assert np.abs(report.distance - distance).max() <= dim * EPS
            own = np.array([label == f"g{i}" for label, i in zip(labels, index)])
            assert np.array_equal(report.success, own & (distance <= threshold))
            # Equal probes get equal distance bits.
            for s in np.unique(source):
                same = report.distance[source == s]
                assert same.tobytes() == np.repeat(same[:1], len(same)).tobytes()

    @pytest.mark.parametrize("distinct", [9, 256, 257, 700])
    def test_copies_searched_once_a_block_at_a_time(self, rng, distinct):
        matrix = unit_rows(rng, 20, 32)
        gallery = Gallery(matrix, [f"g{i}" for i in range(20)])
        rows = unit_rows(rng, distinct, 32)
        probes = rows[np.concatenate([rng.integers(0, distinct, size=900), np.arange(distinct)])]
        with (
            mock.patch.object(metrics, "_nearest", wraps=metrics._nearest) as spy,
            mock.patch.object(sphere, "_block_products", wraps=sphere._block_products) as products,
        ):
            retrieval_reports(probes, ["g0"] * len(probes), gallery, 0.63)
        # One search, whose rows are exactly the distinct probes.
        (call,) = spy.call_args_list
        searched = call.args[0][:]
        assert len(searched) == len(np.unique(probes, axis=0)) == distinct
        assert np.unique(searched, axis=0).tobytes() == np.unique(probes, axis=0).tobytes()
        # No gathered copy of more than one kernel block of rows.
        assert max(len(c.args[0]) for c in products.call_args_list) <= sphere._BLOCK_ROWS


def nearest_before(queries, matrix, m, negate=False):
    """The nearest-row kernel as it was before the in-place pick: one negated
    copy of the products per flag, then ``_pick(np.abs(signed + m))``."""
    flags = negate if isinstance(negate, tuple) else (negate,)
    count, dim = queries.shape
    picks = tuple((np.empty(count, dtype=np.intp), np.empty(count)) for _ in flags)
    blocks = -(-count // sphere._BLOCK_ROWS)
    bounds = [count * i // max(blocks, 1) for i in range(blocks + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        sims = sphere._block_products(queries[start:stop], matrix)
        for flag, (index, cosine) in zip(flags, picks):
            signed = np.negative(sims) if flag else sims
            best = sphere._pick(np.abs(signed + m), dim)
            index[start:stop] = best
            cosine[start:stop] = signed[np.arange(stop - start), best]
    return picks if isinstance(negate, tuple) else picks[0]


def tie_rich(rng, count, size, dim):
    """Queries and reference rows with repeated, negated and one-ulp-nudged
    rows, so picks tie exactly or within the tie window."""
    matrix = unit_rows(rng, size, dim)
    matrix[1::5] = matrix[::5][: len(matrix[1::5])]
    matrix[2::7] = -matrix[: len(matrix[2::7])]
    nudged = matrix[3::4]
    nudged[:] = matrix[: len(nudged)]
    nudged[:, 0] = np.nextafter(nudged[:, 0], np.copysign(2.0, nudged[:, 0]))
    queries = unit_rows(rng, count, dim)
    queries[::3] = matrix[rng.integers(0, size, size=len(queries[::3]))]
    return queries, matrix


FLAG_SETS = [(False,), (True,), (False, True)]


def assert_blocked(spy, count, size, budget):
    """The GEMM blocks ``spy`` saw in one ``_nearest`` call of ``count`` queries
    against ``size`` rows: balanced, of at most ``budget // size`` rows clamped to
    ``[_BLOCK_ROWS // 2, _BLOCK_ROWS]`` (so a block's products stay within
    ``budget`` cells down to that floor), at least half that many unless the call
    is one block, and of one row only when the call has one query."""
    sizes = [len(call.args[0]) for call in spy.call_args_list]
    rows = min(sphere._BLOCK_ROWS, max(sphere._BLOCK_ROWS // 2, budget // size))
    assert sum(sizes) == count and max(sizes) - min(sizes) <= 1
    assert max(sizes) <= rows and max(sizes) * size <= max(budget, sphere._BLOCK_ROWS // 2 * size)
    assert len(sizes) == 1 or min(sizes) >= rows // 2
    assert (min(sizes) == 1) == (count == 1)


class TestInPlacePick:
    @pytest.mark.parametrize("m", [-1.0, 0.0, 0.3])
    @pytest.mark.parametrize("flags", FLAG_SETS)
    @pytest.mark.parametrize("count, size", [
        (1, 1023), (255, 1024), (257, 1025), (300, 3000), (600, 5),
    ])
    def test_bit_identical_at_the_real_budget(self, m, flags, count, size):
        # K = 1024 gives slices of exactly one 256-row block; 1025 and 3000 split
        # blocks, and K = 3000 takes 128-row blocks, the floor.
        queries, matrix = tie_rich(np.random.default_rng(count + size), count, size, 16)
        with mock.patch.object(sphere, "_block_products", wraps=sphere._block_products) as spy:
            got = sphere._nearest(queries, matrix, m, flags)
        assert_blocked(spy, count, size, sphere._BLOCK_ELEMENTS)
        want = nearest_before(queries, matrix, m, flags)
        for (gi, gc), (wi, wc) in zip(got, want):
            assert np.array_equal(gi, wi)
            assert gc.tobytes() == wc.tobytes()

    @pytest.mark.parametrize("m", [-1.0, 0.0, 0.3])
    @pytest.mark.parametrize("flags", FLAG_SETS)
    @pytest.mark.parametrize("budget", [1, 40, 64, 65, 1000])
    def test_bit_identical_across_slice_boundaries(self, m, flags, budget):
        rng = np.random.default_rng(budget)
        # At these K every budget caps blocks below 128 rows, so they stop at the
        # floor; K = 3000 does so at the real budget too.
        for count, size in [(1, 13), (7, 8), (31, 13), (257, 9), (520, 64), (300, 3000)]:
            queries, matrix = tie_rich(rng, count, size, 8)
            with mock.patch.object(sphere, "_BLOCK_ELEMENTS", budget), mock.patch.object(
                sphere, "_block_products", wraps=sphere._block_products
            ) as spy:
                got = sphere._nearest(queries, matrix, m, flags)
            assert_blocked(spy, count, size, budget)
            want = nearest_before(queries, matrix, m, flags)
            for (gi, gc), (wi, wc) in zip(got, want):
                assert np.array_equal(gi, wi)
                assert gc.tobytes() == wc.tobytes()

    def test_one_flag_returns_one_pair(self, rng):
        queries, matrix = tie_rich(rng, 40, 30, 8)
        index, cosine = sphere._nearest(queries, matrix, 0.3, True)
        want_index, want_cosine = nearest_before(queries, matrix, 0.3, True)
        assert np.array_equal(index, want_index)
        assert cosine.tobytes() == want_cosine.tobytes()


# At D = 512 a 256 KiB read chunk holds 128 rows.
DIM = 512
CHUNK = 128


def probe_file(path, rows, labels):
    write_container(path, rows, labels)
    return path


def rendered(report):
    """The bytes ``eval-retrieval`` writes for ``report``."""
    rows = [[i, o.true_label, o.retrieved_label, o.distance, int(o.success)]
            for i, o in enumerate(report.per_query)]
    rows.append(["aggregate", "", "", "", report.success_rate])
    return ("probe_index,true_label,retrieved_label,distance,success\n" + fio._csv_text(rows)).encode()


def chunk_spanning(rng):
    """600 rows over 5 read chunks, their labels and a 40-row gallery: copies of
    one row on both sides of the chunk boundaries at 128 and 256, a row first seen
    in chunk 3 and repeated after it, and rows equal to other rows but for the
    sign of a zero, in one chunk and across chunks."""
    gallery = unit_rows(rng, 40, DIM)
    owner = rng.integers(0, 40, size=60)
    base = gallery[owner] + rng.normal(0.0, 0.03, size=(60, DIM))
    base[:, 7] = 0.0
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    rows = base[rng.integers(0, 50, size=600)]  # rows 50 to 59 only where placed below
    rows[CHUNK - 2 : CHUNK + 3] = base[50]  # across the first boundary
    rows[2 * CHUNK - 1 : 2 * CHUNK + 1] = base[51]  # one on each side of the second
    rows[3 * CHUNK + 5] = rows[3 * CHUNK + 70] = rows[599] = base[52]  # first seen in chunk 3
    signed = base[53].copy()
    signed[7] = -0.0
    rows[10] = base[53]
    rows[11] = rows[4 * CHUNK + 1] = signed  # apart from rows[10] and its copies
    rows[4 * CHUNK + 2] = base[53]
    labels = [f"g{owner[i % 60]}" for i in range(600)]
    return rows, labels, gallery


def assert_same_fold(path, renormalize=False):
    """The reader's table and index equal the whole-file fold of the rows
    :func:`load_rows` gives: the same distinct rows, in the same order."""
    got, labels = fio._distinct_table(path, renormalize)
    whole, want_labels = load_rows(path, renormalize)
    if not renormalize:
        whole = whole.astype(np.float32)
    keys, codes = byte_fold(whole)
    assert got.folded and got.table.dtype == whole.dtype
    assert got.table.tobytes() == b"".join(keys)
    assert np.array_equal(got.index, codes)
    assert labels == want_labels
    return got


class TestReaderFold:
    def test_copies_across_read_chunks(self, rng, tmp_path):
        rows, labels, _ = chunk_spanning(rng)
        path = probe_file(tmp_path / "probes.emb", rows, labels)
        got = assert_same_fold(path)
        assert len(got.table) == len(np.unique(rows.astype(np.float32).view("V2048")))
        index = got.index
        assert len(set(index[CHUNK - 2 : CHUNK + 3])) == 1
        assert index[2 * CHUNK - 1] == index[2 * CHUNK]
        assert index[3 * CHUNK + 5] == index[3 * CHUNK + 70] == index[599] > index[: 3 * CHUNK].max()
        assert index[10] == index[4 * CHUNK + 2] != index[11] == index[4 * CHUNK + 1]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_whole_file_fold_at_any_chunk_size(self, tmp_path_factory, data):
        # Rows of a few values, so many rows tie on their leading words; zeros of both signs.
        dim = data.draw(st.integers(2, 6))
        pool = data.draw(st.lists(st.lists(VALUES, min_size=dim, max_size=dim), min_size=1, max_size=8))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=60))
        rows = np.array([pool[i] for i in picks], dtype=np.float64).reshape(len(picks), dim)
        path = tmp_path_factory.mktemp("fold") / "rows.emb"
        write_container(path, rows)
        cells = data.draw(st.sampled_from([4 * dim, 12 * dim, 4 * 7 * dim, fio._BLOCK_ELEMENTS]))
        # Every row given one hash: the first row holds it, every other distinct row
        # is looked up by its bytes, and only bit-equal rows still match.
        home = data.draw(st.sampled_from([None, 0, -1]))
        collide = hash if home is None else lambda key: home
        with mock.patch.object(fio, "_BLOCK_ELEMENTS", cells), mock.patch.object(fio, "_check_norms"), \
                mock.patch.object(fio, "hash", collide, create=True):
            got, _ = fio._distinct_table(path)
        keys, codes = byte_fold(rows.astype(np.float32))
        assert got.table.tobytes() == b"".join(keys)
        assert np.array_equal(got.index, codes)

    def test_normalize_folds_the_projections(self, rng, tmp_path):
        # x and 2x are different bytes that project to the same bits.
        raw = rng.normal(size=(200, DIM)).astype(np.float32).astype(np.float64)
        rows = np.concatenate([raw, 2.0 * raw[::-1], 0.5 * raw[:150]])
        path = probe_file(tmp_path / "raw.emb", rows, [f"g{i % 40}" for i in range(len(rows))])
        got = assert_same_fold(path, renormalize=True)
        assert len(got.table) == 200
        assert np.array_equal(got.index[200:400], got.index[:200][::-1])

    def test_all_distinct_rows_are_the_whole_table(self, rng, tmp_path):
        rows = unit_rows(rng, 3 * CHUNK + 7, DIM)
        path = probe_file(tmp_path / "rows.emb", rows, None)
        got = assert_same_fold(path)
        table = load_rows(path)[0].astype(np.float32)
        assert not got.table.flags.writeable and np.array_equal(got.index, np.arange(len(rows)))
        assert got.table.dtype == table.dtype and got.table.tobytes() == table.tobytes()

    def test_folded_rows_are_searched_without_a_second_check_or_fold(self, rng, tmp_path):
        rows, labels, gallery = chunk_spanning(rng)
        got, _ = fio._distinct_table(probe_file(tmp_path / "probes.emb", rows, labels))
        with mock.patch.object(metrics, "_distinct_rows") as fold, mock.patch.object(metrics, "_unit_matrix") as check:
            folded = metrics._fold(got, "probe", DIM)
        assert not fold.called and not check.called
        assert folded is got


def fill_fifo(fifo, data):
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    return writer


def load_rows_report(probes, labels, gallery, flags):
    """The report bytes of :func:`retrieval_report` run on the float64 rows
    :func:`load_rows` gives, with the command's ``flags``."""
    normalize = "--normalize" in flags
    threshold = float(flags[flags.index("--threshold") + 1]) if "--threshold" in flags else 0.63
    return rendered(retrieval_report(
        load_rows(probes, normalize)[0], labels, load_gallery(gallery, normalize), threshold, "--negate" in flags,
    ))


def command_report(capsys, probes, gallery, flags):
    """The report bytes ``eval-retrieval`` writes for ``probes``."""
    report = Path(f"{probes}.report.csv")
    argv = ["eval-retrieval", "--probes", probes, "--gallery", gallery, *flags, "--report", report]
    assert main([str(arg) for arg in argv]) == 0, capsys.readouterr().err
    return report.read_bytes()


@pytest.mark.parametrize("flags", [[], ["--negate"], ["--normalize"], ["--normalize", "--negate"]])
def test_reports_equal_those_of_the_load_rows_array(rng, tmp_path, capsys, flags):
    rows, labels, gallery = chunk_spanning(rng)
    if "--normalize" in flags:  # copies that differ in their bytes but not once projected
        rows = rows * np.where(np.arange(600) % 3, 1.0, 2.0)[:, None]
    write_container(tmp_path / "gallery.emb", gallery, [f"g{i}" for i in range(40)])
    emb = probe_file(tmp_path / "probes.emb", rows, labels)
    write_container(tmp_path / "probes.csv", rows, labels)
    want = load_rows_report(emb, labels, tmp_path / "gallery.emb", flags)
    for source in ("probes.emb", "probes.csv", "probes.fifo"):
        writer = fill_fifo(tmp_path / source, emb.read_bytes()) if source == "probes.fifo" else None
        got = command_report(capsys, tmp_path / source, tmp_path / "gallery.emb", flags)
        if writer is not None:
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert got == want, source


@pytest.mark.parametrize("dim", [3, 5, 32])
@pytest.mark.parametrize("distinct", [1, 40, 300])
@pytest.mark.parametrize("chunk", [50, None])
def test_copy_rich_reports_equal_those_of_the_load_rows_array(rng, tmp_path, capsys, dim, distinct, chunk):
    # 600 probes repeating ``distinct`` rows, read in one chunk or in chunks of 50 rows.
    names = [f"id_{i:03d}" for i in range(30)]
    write_container(tmp_path / "gallery.emb", unit_rows(rng, 30, dim), names)
    source = np.concatenate([np.arange(distinct), rng.integers(0, distinct, 600 - distinct)])
    rows, labels = unit_rows(rng, distinct, dim)[rng.permutation(source)], list(rng.choice(names, 600))
    for suffix in ("emb", "csv"):
        write_container(tmp_path / f"probes.{suffix}", rows, labels)
    with mock.patch.object(fio, "_BLOCK_ELEMENTS", 4 * dim * chunk if chunk else fio._BLOCK_ELEMENTS):
        for flags in ([], ["--negate"], ["--threshold", "1.5"]):
            want = load_rows_report(tmp_path / "probes.emb", labels, tmp_path / "gallery.emb", flags)
            for suffix in ("emb", "csv"):
                assert command_report(capsys, tmp_path / f"probes.{suffix}", tmp_path / "gallery.emb", flags) == want


def test_normalize_reports_equal_those_of_the_load_rows_array(rng, tmp_path, capsys):
    names = [f"id_{i:03d}" for i in range(30)]
    write_container(tmp_path / "gallery.emb", unit_rows(rng, 30, 16), names)
    raw = rng.normal(size=(40, 16)).astype(np.float32).astype(np.float64)
    tags = list(rng.choice(names, 40))
    cases = {  # x, 2x and x / 2 project to one row; one_row is a lone distinct row
        "mixed": (np.concatenate([raw, 2.0 * raw, 0.5 * raw[::3]]), tags * 2 + tags[::3]),
        "one_row": (np.concatenate([raw[:1], 2.0 * raw[:1], 4.0 * raw[:1]]), tags[:1] * 3),
    }
    for name, (rows, labels) in cases.items():
        for suffix in ("emb", "csv"):
            write_container(tmp_path / f"{name}.{suffix}", rows, labels)
        for flags in (["--normalize"], ["--normalize", "--negate"]):
            want = load_rows_report(tmp_path / f"{name}.emb", labels, tmp_path / "gallery.emb", flags)
            for suffix in ("emb", "csv"):
                assert command_report(capsys, tmp_path / f"{name}.{suffix}", tmp_path / "gallery.emb", flags) == want


def test_a_one_wide_file_fails_on_its_shape_once_every_chunk_is_checked(rng, tmp_path, capsys):
    # 300 rows of D = 1 read 100 at a time: with or without --normalize the shape
    # error names the whole file, and a NaN in the last chunk outranks it.
    write_container(tmp_path / "gallery.emb", unit_rows(rng, 5, 16), [f"g{i}" for i in range(5)])
    rows = 3.0 * rng.normal(size=(300, 1))
    probe_file(tmp_path / "one.emb", rows, ["g0"] * 300)
    rows[250, 0] = np.nan
    probe_file(tmp_path / "nan.emb", rows, ["g0"] * 300)
    errors = {"one.emb": "embedding rows must form an (N, D) array with D >= 2, got shape (300, 1)",
              "nan.emb": "row 250 contains a NaN or infinite value"}
    with mock.patch.object(fio, "_BLOCK_ELEMENTS", 4 * 100):
        for name, message in errors.items():
            for flags in ([], ["--normalize"]):
                argv = ["eval-retrieval", "--probes", tmp_path / name, "--gallery", tmp_path / "gallery.emb", *flags]
                assert main([str(arg) for arg in argv]) == 2
                assert capsys.readouterr().err == f"fiva: error: {message}\n", (name, flags)


def test_a_wrong_width_file_whose_rows_repeat_names_its_row_count(rng, tmp_path, capsys):
    write_container(tmp_path / "gallery.emb", unit_rows(rng, 5, 16), [f"g{i}" for i in range(5)])
    rows = unit_rows(rng, 3, 17)[rng.integers(0, 3, size=300)]
    probe_file(tmp_path / "probes.emb", rows, ["g0"] * 300)
    assert main(["eval-retrieval", "--probes", str(tmp_path / "probes.emb"),
                 "--gallery", str(tmp_path / "gallery.emb")]) == 2
    assert capsys.readouterr().err == (
        "fiva: error: probe rows must form an (N, D) array with D = 16, got shape (300, 17)\n"
    )
    gathered = _Take(unit_rows(rng, 3, 17), rng.integers(0, 3, size=300))
    with pytest.raises(DimensionMismatch, match=r"got shape \(300, 17\)"):
        retrieval_report(gathered, ["g0"] * 300, load_gallery(tmp_path / "gallery.emb"), 0.63)


# Linux starts a child's ru_maxrss from the resident size of the process that
# forked it, so the child is started from a small interpreter of its own.
LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_peak_mib(*argv):
    """``ru_maxrss`` of a Python child run on ``argv``, in MiB, as ``os.wait4`` reports it."""
    env = dict(os.environ, PYTHONPATH=str(Path(fiva.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, *map(str, argv)],
                          env=env, capture_output=True, text=True, check=True)
    code, peak = map(int, done.stdout.split())
    assert code == 0, done.stderr
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_repeating_probes_are_held_once_in_resident_memory(rng, tmp_path):
    # 20000 probes over 50 distinct rows are 39 MiB as float32. tracemalloc counts
    # the whole table the reader reserves, so the child's peak RSS is measured.
    count = 20000
    gallery = unit_rows(rng, 50, DIM)
    write_container(tmp_path / "gallery.emb", gallery, [f"g{i:02d}" for i in range(50)])
    picks = rng.integers(0, 50, size=count)
    write_container(tmp_path / "probes.emb", _Take(gallery, picks), [f"g{i:02d}" for i in picks])
    imported = child_peak_mib("-c", "import fiva.cli")
    peak = child_peak_mib("-m", "fiva.cli", "eval-retrieval", "--probes", tmp_path / "probes.emb",
                          "--gallery", tmp_path / "gallery.emb", "--report", tmp_path / "report.csv")
    assert peak - imported < count * DIM * 4 / 2 / (1 << 20), (peak, imported)
