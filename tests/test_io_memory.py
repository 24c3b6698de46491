"""Container I/O holds each file once or one block of it, ``fiva bench``
streams its frames to disk and holds each fake corpus as a table and an index,
the anchor set and the gallery keep the rows their builders made, the
scoring commands and the library's batch entries hold their inputs at file
width, the exact row fold holds less than its rows, and the tracker mints a
block of fakes at a time: traced peaks.

tracemalloc counts numpy's array buffers, so a peak over a call is the most
memory the call held at once, on top of what existed before it.
"""

import tracemalloc

import numpy as np
import pytest

from fiva import (
    AnchorSet,
    SynthConfig,
    TrackerState,
    build_anchor_set,
    cli,
    generate_identities,
    load_gallery,
    load_rows,
    sample_batch,
    save_state,
    score_rows,
    write_container,
)
from fiva import gallery as gallery_module
from fiva import sphere
from fiva.metrics import _distinct_rows
from fiva.sphere import _BLOCK_ELEMENTS

MiB = 1 << 20
ROWS, DIM = 4096, 256
# One write block: _BLOCK_ELEMENTS cells as float32, a quarter of a 4096 x 256 file.
BLOCK = 4 * _BLOCK_ELEMENTS


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


def test_write_container_holds_one_block(labeled_rows, tmp_path):
    rows, labels = labeled_rows
    _, peak = traced_peak(lambda: write_container(tmp_path / "rows.emb", rows, labels))
    assert peak <= BLOCK + MiB // 4


def test_load_rows_holds_the_float64_result_and_one_chunk(labeled_rows, tmp_path):
    rows, labels = labeled_rows
    path = tmp_path / "rows.emb"
    write_container(path, rows, labels)
    (loaded, loaded_labels), peak = traced_peak(lambda: load_rows(path))
    assert loaded_labels == labels
    assert loaded.tobytes() == rows.astype(np.float32).astype(np.float64).tobytes()
    assert peak <= loaded.nbytes + MiB


def test_save_state_holds_one_block(labeled_rows, tmp_path):
    rows, _ = labeled_rows
    state = TrackerState(sampler=lambda stored: stored)
    state.track_rows(rows)
    path = tmp_path / "tracker.state"
    _, peak = traced_peak(lambda: save_state(state, path))
    assert path.stat().st_size > 8 * BLOCK
    assert peak <= BLOCK + MiB // 4


def test_bench_holds_the_frames_and_one_float32_corpus(tmp_path):
    # Anchor sampling at 400 x 10, D = 256. The run holds the frames as the
    # float32 rows frames.emb holds (3.9 MiB), the gallery and its 800 anchors
    # (2.3 MiB), the tracker's (2, 512, D) store (2 MiB) and one float64 block
    # of frames (_BLOCK_ELEMENTS cells, 2 MiB). The slack covers the store's
    # growth and a block's sampling buffers. Float64 (I, F, D) frames
    # (+3.9 MiB over float32) or a float32 gather beside a write's buffer
    # break the bound.
    identities, frames, dim = 400, 10, 256
    argv = ["bench", "--identities", str(identities), "--frames", str(frames),
            "--dim", str(dim), "--out-dir", str(tmp_path)]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    cells = identities * frames * dim
    holdings = cells * 4 + 3 * identities * dim * 8 + 2 * 512 * dim * 8 + 8 * _BLOCK_ELEMENTS
    assert peak <= holdings + 5 * MiB


def test_bench_streams_its_frames_into_frames_emb(tmp_path):
    # Anchor sampling at 400 x 10, D = 256, as above, less the float32 frames:
    # each block of frames is written to frames.emb's temporary as it is made,
    # so the run holds the gallery and its anchors, the store and one block.
    # A float32 (I * F, D) frame table (3.9 MiB) breaks the bound.
    identities, frames, dim = 400, 10, 256
    argv = ["bench", "--identities", str(identities), "--frames", str(frames),
            "--dim", str(dim), "--out-dir", str(tmp_path)]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    holdings = 3 * identities * dim * 8 + 2 * 512 * dim * 8 + 8 * _BLOCK_ELEMENTS
    assert peak <= holdings + 5 * MiB


def test_bench_negation_holds_one_negated_table(tmp_path):
    # Negation at 400 x 10, D = 256: the float32 frames are 3.9 MiB and the
    # negated table 7.8 MiB, filled a block at a time. Per-block tables joined
    # by np.concatenate hold the table twice (+7.8 MiB); the slack covers the
    # gallery, the tracker's store, a block and what scoring gathers.
    identities, frames, dim = 400, 10, 256
    argv = ["bench", "--identities", str(identities), "--frames", str(frames), "--dim", str(dim),
            "--mode", "negation", "--out-dir", str(tmp_path)]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    cells = identities * frames * dim
    assert peak <= cells * 4 + cells * 8 + 8 * MiB


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    """256 identities of D = 256, 512 anchors, and files of 4 and 16 shuffled
    jittered frames per identity."""
    folder = tmp_path_factory.mktemp("scenes")
    rng = np.random.default_rng(5)
    people, anchors = (rng.normal(size=(n, DIM)) for n in (256, 512))
    people /= np.linalg.norm(people, axis=1, keepdims=True)
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    write_container(folder / "anchors.emb", anchors)
    for per in (4, 16):
        frames = np.repeat(people, per, axis=0) + rng.normal(0.0, 0.01, (256 * per, DIM))
        frames /= np.linalg.norm(frames, axis=1, keepdims=True)
        write_container(folder / f"frames{per}.emb", frames[rng.permutation(len(frames))])
    return folder


def command_peak(argv):
    code, peak = traced_peak(lambda: cli.main([str(arg) for arg in argv]))
    assert code == 0
    return peak


def test_track_holds_the_anchors_and_the_store_not_the_frames(scenes, tmp_path, capsys):
    # The anchors are 1 MiB (held twice while the anchor set copies them), the
    # store's (2, 256, D) buffer 1 MiB. Float64 frames would add 2 MiB at 4
    # frames per identity and 8 MiB at 16; a block of rows read, products and
    # gathered for the write stays under 3 MiB whatever the frame count.
    peaks = {}
    for per in (4, 16):
        out = tmp_path / f"out{per}"
        out.mkdir()
        peaks[per] = command_peak([
            "track", "--frames", scenes / f"frames{per}.emb", "--anchors", scenes / "anchors.emb",
            "--out", out / "fakes.emb", "--state-out", out / "state.bin", "--log", out / "log.csv",
        ])
        assert "256 distinct identities" in capsys.readouterr().err
    assert peaks[4] <= 2 * MiB + MiB + 3 * MiB
    # 3072 more frames add their log lines and per-frame keys, not their rows.
    assert peaks[16] <= peaks[4] + MiB // 2


def test_detect_peak_does_not_grow_with_the_row_count(scenes, tmp_path):
    peaks = {}
    for per in (4, 16):
        frames = scenes / f"frames{per}.emb"
        peaks[per] = command_peak([
            "detect", "--inputs", frames, "--outputs", frames, "--report", tmp_path / "detect.csv",
        ])
    # Float64 inputs and outputs would grow it by 12 MiB; per-row scores and
    # report lines stay under 1 MiB.
    assert peaks[16] <= peaks[4] + MiB


def test_bench_slerp_blend_holds_one_blended_table(tmp_path):
    # Slerp blending at 400 x 10, D = 256: the frames and the blended table are
    # 7.8 MiB each. Gathering all targets or blending every row at once adds
    # several more such arrays; the slack covers a block's blend and what
    # anchor sampling holds besides its frames.
    identities, frames, dim = 400, 10, 256
    argv = ["bench", "--identities", str(identities), "--frames", str(frames), "--dim", str(dim),
            "--mode", "slerp_blend", "--out-dir", str(tmp_path)]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    cells = identities * frames * dim
    assert peak <= 2 * cells * 8 + 16 * MiB


def test_load_gallery_and_a_loaded_anchor_set_hold_one_copy(labeled_rows, tmp_path):
    rows, labels = labeled_rows
    path = tmp_path / "rows.emb"
    write_container(path, rows, labels)
    gallery, peak = traced_peak(lambda: load_gallery(path))
    assert gallery.labels == labels
    assert peak <= gallery.matrix.nbytes + MiB
    anchors, peak = traced_peak(lambda: AnchorSet(load_rows(path)[0]))
    assert anchors.matrix.tobytes() == gallery.matrix.tobytes()
    assert peak <= anchors.matrix.nbytes + MiB


def test_build_anchor_set_holds_its_rounds_and_the_anchors_once(monkeypatch):
    # 1000 means of D = 512, two rounds: the rounds are 3.9 MiB each and the
    # anchors joined from them 7.8 MiB. The anchor set keeps the joined rows;
    # a copy of them (+7.8 MiB) breaks the bound, which leaves room for one
    # round's slerp temporaries.
    means = np.random.default_rng(4).normal(size=(1000, 512))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    given = []
    frozen = sphere._frozen
    monkeypatch.setattr(sphere, "_frozen", lambda rows: frozen(given.append(rows) or rows))
    anchors, peak = traced_peak(lambda: build_anchor_set(means, rounds=2))
    assert np.shares_memory(anchors.matrix, given[0])
    assert peak <= 2 * anchors.matrix.nbytes + means.nbytes + MiB


def test_generated_identities_are_kept_without_a_copy(monkeypatch):
    # The copy would come after the draws are freed, so it shows in the rows
    # the gallery holds, not in the peak.
    given = []
    frozen = gallery_module._frozen
    monkeypatch.setattr(gallery_module, "_frozen", lambda rows: frozen(given.append(rows) or rows))
    gallery = generate_identities(SynthConfig(dimension=64, identity_count=100))
    assert np.shares_memory(gallery.matrix, given[0])


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A 512-entry labeled gallery of D = 256, 4096 labeled jittered probes of
    it, and the same probes as 64 videos of 64 frames, one file each."""
    folder = tmp_path_factory.mktemp("scored")
    rng = np.random.default_rng(9)
    gallery = rng.normal(size=(512, DIM))
    gallery /= np.linalg.norm(gallery, axis=1, keepdims=True)
    labels = [f"id_{i:03d}" for i in range(512)]
    owner = rng.integers(0, 512, size=ROWS)
    probes = gallery[owner] + rng.normal(0.0, 0.05, size=(ROWS, DIM))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    write_container(folder / "gallery.emb", gallery, labels)
    write_container(folder / "probes.emb", probes, [labels[i] for i in owner])
    (folder / "videos").mkdir()
    for v in range(64):
        write_container(folder / "videos" / f"v{v:02d}.emb", probes[64 * v : 64 * (v + 1)])
    return folder


def test_eval_retrieval_holds_float32_probes_and_the_gallery_once(scored, tmp_path):
    # The probes are 4 MiB as float32 and would be 8 MiB as float64; the gallery
    # is 1 MiB, 2 MiB if copied. One search block holds about 2.2 MiB of products
    # and picks; the slack covers the labels and the report.
    peak = command_peak([
        "eval-retrieval", "--probes", scored / "probes.emb", "--gallery", scored / "gallery.emb",
        "--report", tmp_path / "report.csv",
    ])
    assert peak <= ROWS * DIM * 4 + 512 * DIM * 8 + 3 * MiB + 3 * MiB // 2


def test_eval_temporal_holds_float32_videos(scored, tmp_path):
    # The 64 videos are 4 MiB as float32 and would be 8 MiB as float64; a block
    # of videos widened, with its Gram products and distances, holds 3 MiB.
    videos = sorted((scored / "videos").iterdir())
    peak = command_peak(["eval-temporal", "--frames", *videos, "--report", tmp_path / "report.csv"])
    assert peak <= ROWS * DIM * 4 + 3 * MiB + MiB


def test_tracker_mints_a_block_of_fakes_at_a_time(rng):
    # 2049 identities grow the store's buffers to 4096 rows, so 2000 more mint
    # without regrowing them. Gathering those fakes at once as float64 and
    # rounding them to float32 holds 11.7 MiB at D = 512; one block holds 3 MiB,
    # under what the blocked lookups against the store hold.
    dim = 512
    anchors = rng.normal(size=(512, dim))
    state = TrackerState(anchors=AnchorSet(anchors / np.linalg.norm(anchors, axis=1, keepdims=True)))
    first, more = (rng.normal(size=(n, dim)) for n in (2049, 2000))
    for frames in (first, more):
        frames /= np.linalg.norm(frames, axis=1, keepdims=True)
    state.track_rows(first)
    (matched, _, _), peak = traced_peak(lambda: state.track_rows(more))
    assert not matched.any() and len(state) == 4049
    assert peak <= 6 * MiB


@pytest.mark.parametrize("entry", ["sample_batch", "score_rows"])
def test_batch_entries_hold_float32_rows_below_one_float64_copy(labeled_rows, entry):
    # The 4096 x 256 rows are 4 MiB as float32 and would be 8 MiB widened whole.
    # Checked and widened a block at a time, with the sampler's products against
    # 512 anchors or the detector's block of pairs, they stay under that copy.
    rows = labeled_rows[0].astype(np.float32)
    anchors = AnchorSet(labeled_rows[0][:512])
    calls = {"sample_batch": lambda: sample_batch(rows, anchors, 0.3), "score_rows": lambda: score_rows(rows, rows)}
    _, peak = traced_peak(calls[entry])
    assert peak < rows.size * 8


def test_fold_of_rows_sharing_their_leading_values_holds_less_than_one_copy(rng):
    # 1024 distinct rows whose first two values are 0, each four times: all
    # 4096 rows tie on their leading words. The fold holds its sort index, two
    # words per row and a block of compared neighbours, under the 4 MiB the rows
    # take as float32.
    distinct = rng.normal(size=(ROWS // 4, DIM)).astype(np.float32)
    distinct[:, :2] = 0.0
    rows = distinct[rng.permutation(np.repeat(np.arange(ROWS // 4), 4))]
    (first, inverse), peak = traced_peak(lambda: _distinct_rows(rows))
    assert len(first) == ROWS // 4 and rows[first][inverse].tobytes() == rows.tobytes()
    assert peak < rows.nbytes
