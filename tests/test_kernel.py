"""Contract of the blocked nearest-row kernel behind sampling, retrieval and tracking.

The oracle is the per-vector search: ``np.clip(M @ z, -1, 1)`` followed by
``argmin |c + m|``, one query at a time.
"""

from unittest import mock

import numpy as np
import pytest

from fiva import (
    AnchorSet,
    Embedding,
    Gallery,
    LabeledEmbedding,
    retrieval_report,
    retrieve,
    sample_batch,
    sample_fake,
)
from fiva import sphere
from fiva.sphere import _nearest

EPS = np.finfo(np.float64).eps


def unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def near_copies(rng, rows, count, sigma=0.05):
    """Probes close to random rows of ``rows``: cosines near 1, the worst
    case for rounding differences between summation orders."""
    picked = rows[rng.integers(0, len(rows), size=count)]
    noisy = picked + rng.normal(0.0, sigma, size=picked.shape)
    return noisy / np.linalg.norm(noisy, axis=1, keepdims=True)


def oracle(queries, matrix, m):
    """Per-vector GEMV: index and cosine per query row."""
    index, cosine = [], []
    for q in queries:
        c = np.clip(matrix @ q, -1.0, 1.0)
        i = int(np.argmin(np.abs(c + m)))
        index.append(i)
        cosine.append(c[i])
    return np.array(index), np.array(cosine)


@pytest.fixture(params=[(64, 300), (512, 1001)], ids=["d64", "d512"])
def data(rng, request):
    dim, count = request.param
    matrix = unit_rows(rng, count, dim)
    queries = np.concatenate([unit_rows(rng, 300, dim), near_copies(rng, matrix, 300)])
    return queries, matrix


@pytest.mark.parametrize("m", [-1.0, -0.4, 0.0, 0.7])
def test_indices_match_per_vector_oracle(data, m):
    queries, matrix = data
    index, _ = _nearest(queries, matrix, m)
    want, _ = oracle(queries, matrix, m)
    assert np.array_equal(index, want)


@pytest.mark.parametrize("m", [-1.0, 0.0, 0.5])
@pytest.mark.parametrize("dim, count", [(16, 40), (64, 151)])
def test_duplicated_rows_tie_to_lowest_index(rng, m, dim, count):
    # At (64, 151) OpenBLAS rounds some copies of a row differently from
    # the first, in a GEMM and even in a GEMV, so a plain argmin can pick
    # the second copy; the tie rule must pick the first.
    base = unit_rows(rng, count, dim)
    matrix = np.concatenate([base, base])
    queries = np.concatenate([unit_rows(rng, 500, dim), base[:10]])
    for rows in (queries, queries[:1], queries[-1:]):
        index, _ = _nearest(rows, matrix, m)
        assert np.array_equal(index, oracle(rows, base, m)[0])


def test_exact_ties_take_lowest_index():
    # e1 is orthogonal to both e2 and e3: cosine exactly 0 for each
    matrix = np.eye(3)[[1, 2]]
    queries = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    for count in (1, 2):
        index, cosine = _nearest(queries[:count], matrix, 0.0)
        assert index.tolist() == [0] * count
        assert cosine.tolist() == [0.0] * count


@pytest.mark.parametrize("m", [-1.0, 0.0, 0.3])
def test_single_query_has_gemv_bits(data, m):
    queries, matrix = data
    for z in queries[::37]:
        index, cosine = _nearest(z[None, :], matrix, m)
        c = np.clip(matrix @ z, -1.0, 1.0)
        assert index[0] == int(np.argmin(np.abs(c + m)))
        assert cosine[0].tobytes() == c[index[0]].tobytes()


@pytest.mark.parametrize("block_rows", [4, 7, 64, 256])
def test_rows_do_not_depend_on_batch_split(data, monkeypatch, block_rows):
    # Indices are exact across splits. Cosine bits can move by a few ulps:
    # OpenBLAS rounds a row differently depending on the block it is in.
    queries, matrix = data
    full_index, full_cosine = _nearest(queries, matrix, 0.0)
    monkeypatch.setattr(sphere, "_BLOCK_ROWS", block_rows)
    for start, stop in ((0, len(queries)), (0, 2), (5, 9), (3, 260), (299, 301), (17, 600)):
        index, cosine = _nearest(queries[start:stop], matrix, 0.0)
        assert np.array_equal(index, full_index[start:stop])
        assert np.abs(cosine - full_cosine[start:stop]).max() <= matrix.shape[1] * EPS


def test_reruns_are_bit_identical(data):
    queries, matrix = data
    first = _nearest(queries, matrix, 0.25)
    second = _nearest(queries.copy(), matrix.copy(), 0.25)
    assert first[0].tobytes() == second[0].tobytes()
    assert first[1].tobytes() == second[1].tobytes()


def test_cosines_close_to_gemv_path(data):
    queries, matrix = data
    for m in (-1.0, 0.0):
        index, cosine = _nearest(queries, matrix, m)
        want_index, want_cosine = oracle(queries, matrix, m)
        assert np.array_equal(index, want_index)
        # Reordering a length-D sum of unit-vector products moves it by at
        # most about D * eps; observed differences are a few eps.
        assert np.abs(cosine - want_cosine).max() <= matrix.shape[1] * EPS


def test_negate_equals_negated_probes(data):
    queries, matrix = data
    for rows in (queries, queries[:1], queries[10:12]):
        got = _nearest(rows, matrix, -1.0, negate=True)
        want = _nearest(-rows, matrix, -1.0)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()


def test_distance_objective_is_exact(data):
    # with m = -1 the minimized |c - 1| is the cosine distance 1 - c
    queries, matrix = data
    index, cosine = _nearest(queries, matrix, -1.0)
    distances = 1.0 - np.clip(queries @ matrix.T, -1.0, 1.0)
    assert np.array_equal(index, np.argmin(distances, axis=1))
    rows = np.arange(len(queries))
    assert (1.0 - cosine).tobytes() == distances[rows, index].tobytes()


def test_sample_batch_agrees_with_sample_fake(rng):
    anchors = AnchorSet.from_embeddings(Embedding(r) for r in unit_rows(rng, 50, 16))
    queries = unit_rows(rng, 30, 16)
    index, cosine = sample_batch(queries, anchors, 0.2)
    for row, i, c in zip(queries, index, cosine):
        single = sample_fake(Embedding(row), anchors, 0.2)
        assert single.anchor_index == i
        assert abs(single.achieved_cosine - c) <= 16 * EPS


def test_retrieval_report_agrees_with_retrieve(rng):
    rows = unit_rows(rng, 20, 16)
    gallery = Gallery.from_entries(
        LabeledEmbedding(f"g{i}", Embedding(r)) for i, r in enumerate(rows)
    )
    probes = near_copies(rng, rows, 25)
    labels = [f"g{i}" for i in range(25)]
    for negate in (False, True):
        report = retrieval_report(probes, labels, gallery, 0.63, negate=negate)
        for probe, outcome in zip(probes, report.per_query):
            label, distance = retrieve(Embedding(-probe if negate else probe), gallery)
            assert outcome.retrieved_label == label
            assert abs(outcome.distance - distance) <= 16 * EPS


@pytest.mark.parametrize("count", [1999, 2000, 4000])
def test_pick_slices_leave_indices_and_cosine_bits(rng, monkeypatch, count):
    # The pick works row by row, so a slice of one row, the default slice and a
    # slice of the whole product block pick the same rows with the same bits.
    # At these K the 330 queries run as three product blocks of 110 rows, and a
    # default slice has 32 or 16 rows.
    base = unit_rows(rng, count // 2, 16)
    matrix = np.concatenate([base, base, unit_rows(rng, count % 2, 16)])
    queries = np.concatenate([unit_rows(rng, 150, 16), near_copies(rng, matrix, 150), base[:30]])
    slices = {"one_row": 1, "default": sphere._PICK_ELEMENTS, "whole_block": sphere._BLOCK_ROWS * count}
    results = {}
    for name, cells in slices.items():
        monkeypatch.setattr(sphere, "_PICK_ELEMENTS", cells)
        with mock.patch.object(sphere, "_pick", wraps=sphere._pick) as spy:
            results[name] = [_nearest(queries, matrix, m, (False, True)) for m in (0.0, 0.3, -1.0)]
        rows = {len(call.args[0]) for call in spy.call_args_list}
        assert max(rows) == {"one_row": 1, "default": max(1, cells // count), "whole_block": 110}[name]
    for name in ("default", "whole_block"):
        for got, want in zip(results[name], results["one_row"]):
            for (gi, gc), (wi, wc) in zip(got, want):
                assert gi.tobytes() == wi.tobytes()
                assert gc.tobytes() == wc.tobytes()
