"""Container I/O holds each file once, and ``fiva bench`` holds its frames
once and each fake corpus as a table and an index: traced peaks.

tracemalloc counts numpy's array buffers, so a peak over a call is the most
memory the call held at once, on top of what existed before it.
"""

import tracemalloc

import numpy as np
import pytest

from fiva import TrackerState, cli, load_rows, save_state, write_container

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


def test_bench_holds_the_frames_and_one_float32_corpus(tmp_path):
    # Anchor sampling at 400 x 10, D = 256: the frames are 7.8 MiB, a float32
    # corpus 3.9 MiB. A float64 (I, F, D) fake corpus held (+7.8 MiB) or a
    # float32 gather beside a write's file buffer (+3.9 MiB) breaks the bound;
    # the slack covers the gallery, the anchors, the fake table and the blocks
    # of rows scoring and writing gather.
    identities, frames, dim = 400, 10, 256
    argv = ["bench", "--identities", str(identities), "--frames", str(frames),
            "--dim", str(dim), "--out-dir", str(tmp_path)]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    cells = identities * frames * dim
    assert peak <= cells * 8 + cells * 4 + 8 * MiB
