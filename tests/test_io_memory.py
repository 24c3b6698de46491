"""Container I/O holds each file once: traced peaks of writes and reads.

tracemalloc counts numpy's array buffers, so a peak over a call is the most
memory the call held at once, on top of what existed before it.
"""

import tracemalloc

import numpy as np
import pytest

from fiva import TrackerState, load_rows, save_state, write_container

MiB = 1 << 20
ROWS, DIM = 4096, 256


def traced_peak(call):
    """``call()``'s result and the bytes it held at its peak beyond those held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def labeled_rows():
    rows = np.random.default_rng(3).normal(size=(ROWS, DIM))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows, [f"id_{i:05d}" for i in range(ROWS)]


def test_write_container_holds_one_float32_payload(labeled_rows, tmp_path):
    rows, labels = labeled_rows
    _, peak = traced_peak(lambda: write_container(tmp_path / "rows.emb", rows, labels))
    assert peak <= rows.size * 4 + MiB


def test_load_rows_holds_the_float64_result_and_one_chunk(labeled_rows, tmp_path):
    rows, labels = labeled_rows
    path = tmp_path / "rows.emb"
    write_container(path, rows, labels)
    (loaded, loaded_labels), peak = traced_peak(lambda: load_rows(path))
    assert loaded_labels == labels
    assert loaded.tobytes() == rows.astype(np.float32).astype(np.float64).tobytes()
    assert peak <= loaded.nbytes + MiB


def test_save_state_holds_one_file_sized_buffer(labeled_rows, tmp_path):
    rows, _ = labeled_rows
    state = TrackerState(sampler=lambda stored: stored)
    state.track_rows(rows)
    path = tmp_path / "tracker.state"
    _, peak = traced_peak(lambda: save_state(state, path))
    assert peak <= path.stat().st_size + MiB
