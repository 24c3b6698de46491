"""Retrieval scores each distinct probe once: the exact row fold in front of the
search, and the in-place pick of the nearest-row kernel."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiva import Gallery, retrieval_reports
from fiva import metrics, sphere
from fiva.metrics import _distinct_rows

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
        with mock.patch.object(np, "isin", side_effect=AssertionError("not all distinct")):
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


class TestInPlacePick:
    @pytest.mark.parametrize("m", [-1.0, 0.0, 0.3])
    @pytest.mark.parametrize("flags", FLAG_SETS)
    @pytest.mark.parametrize("count, size", [
        (1, 1023), (255, 1024), (257, 1025), (300, 3000), (600, 5),
    ])
    def test_bit_identical_at_the_real_budget(self, m, flags, count, size):
        # K = 1024 gives slices of exactly one 256-row block; 1025 and 3000 split blocks.
        queries, matrix = tie_rich(np.random.default_rng(count + size), count, size, 16)
        got = sphere._nearest(queries, matrix, m, flags)
        want = nearest_before(queries, matrix, m, flags)
        for (gi, gc), (wi, wc) in zip(got, want):
            assert np.array_equal(gi, wi)
            assert gc.tobytes() == wc.tobytes()

    @pytest.mark.parametrize("m", [-1.0, 0.0, 0.3])
    @pytest.mark.parametrize("flags", FLAG_SETS)
    @pytest.mark.parametrize("budget", [1, 40, 64, 65, 1000])
    def test_bit_identical_across_slice_boundaries(self, m, flags, budget):
        rng = np.random.default_rng(budget)
        for count, size in [(1, 13), (7, 8), (31, 13), (257, 9), (520, 64)]:
            queries, matrix = tie_rich(rng, count, size, 8)
            with mock.patch.object(sphere, "_BLOCK_ELEMENTS", budget):
                got = sphere._nearest(queries, matrix, m, flags)
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
