"""The (N, D) row contract shared by every batch entry point, and the row normalizer."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fiva import (
    AnchorSet,
    DimensionMismatch,
    Gallery,
    LabeledEmbedding,
    TrackerState,
    ZeroVector,
    load_rows,
    normalize,
    retrieval_report,
    sample_batch,
    score_rows,
    write_container,
)
from fiva.sphere import _normalize_rows
from conftest import random_unit

DIM = 8


def unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture
def world(rng, tmp_path):
    anchors = AnchorSet.from_embeddings([random_unit(rng, DIM) for _ in range(12)])
    gallery = Gallery.from_entries(
        LabeledEmbedding(f"id_{i}", random_unit(rng, DIM)) for i in range(5)
    )
    reference = unit_rows(rng, 10, DIM)
    return SimpleNamespace(anchors=anchors, gallery=gallery, reference=reference, dir=tmp_path)


def via_file(rows, world):
    path = world.dir / "rows.emb"
    write_container(path, rows)
    return load_rows(path)


def via_score_rows(rows, world):
    """Scored against itself, then against the D = 8 reference rows."""
    return score_rows(rows, rows), score_rows(world.reference[: len(rows)], rows)


# Each entry point with its other operands fixed at D = 8.
ENTRY_POINTS = {
    "sample_batch": lambda rows, w: sample_batch(rows, w.anchors, 0.3),
    "retrieval_report": lambda rows, w: retrieval_report(
        rows, ["id_0"] * len(rows), w.gallery, 0.63
    ),
    "score_rows": via_score_rows,
    "track_rows": lambda rows, w: TrackerState(anchors=w.anchors).track_rows(rows),
    "load_rows": via_file,
}

# Malformed inputs built from the 10 x 8 reference rows; all are unit length
# where a norm is defined, so only the shape can be at fault.
BAD_SHAPES = {
    "1-D": lambda ref: ref[0],
    "3-D": lambda ref: ref[None],
    "D=1": lambda ref: np.ones((len(ref), 1)),
    "wrong D": lambda ref: ref[:, :5] / np.linalg.norm(ref[:, :5], axis=1, keepdims=True),
}

# A file always holds a 2-D matrix and load_rows expects no particular D.
NOT_A_FILE = {("load_rows", "1-D"), ("load_rows", "3-D"), ("load_rows", "wrong D")}


@pytest.mark.parametrize(
    "entry,shape",
    [(e, s) for e in ENTRY_POINTS for s in BAD_SHAPES if (e, s) not in NOT_A_FILE],
)
def test_bad_shapes_raise_dimension_mismatch(world, entry, shape):
    with pytest.raises(DimensionMismatch):
        ENTRY_POINTS[entry](BAD_SHAPES[shape](world.reference), world)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_list_of_unit_rows_acts_as_the_array(world, entry):
    rows = world.reference
    np.testing.assert_equal(
        ENTRY_POINTS[entry](rows.tolist(), world), ENTRY_POINTS[entry](rows, world)
    )


def reference_normalize(rows):
    """Per-row ``row / np.linalg.norm(row)``: the single-vector formula."""
    return np.stack([row / float(np.linalg.norm(row)) for row in rows])


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(2, 70)), elements=finite))
def test_normalize_rows_has_the_bits_of_per_row_normalize(rows):
    norms = [float(np.linalg.norm(row)) for row in rows]
    bad = [i for i, n in enumerate(norms) if not (np.isfinite(n) and n > 1e-12)]
    if bad:
        with pytest.raises(ZeroVector, match=f"row {bad[0]} "):
            _normalize_rows(rows)
        return
    out = _normalize_rows(rows)
    assert out.tobytes() == reference_normalize(rows).tobytes()
    assert out.tobytes() == np.stack([normalize(row).values for row in rows]).tobytes()


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(2, 40),
    st.data(),
    st.sampled_from([0.0, np.nan, np.inf]),
)
def test_zero_or_non_finite_row_is_named(count, dim, data, poison):
    rows = np.random.default_rng(count * 100 + dim).normal(size=(count, dim))
    bad = data.draw(st.integers(0, count - 1))
    rows[bad] = 0.0
    rows[bad, data.draw(st.integers(0, dim - 1))] = poison
    with pytest.raises(ZeroVector, match=f"row {bad} "):
        _normalize_rows(rows)


@pytest.mark.parametrize("dim", [2, 3, 16, 64, 512, 513, 1000])
def test_normalize_rows_bits_at_wide_dimensions(dim):
    rng = np.random.default_rng(dim)
    rows = rng.normal(size=(300, dim)) * 10.0 ** rng.uniform(-3, 3, size=(300, 1))
    assert _normalize_rows(rows).tobytes() == reference_normalize(rows).tobytes()
