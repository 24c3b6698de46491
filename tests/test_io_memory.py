"""Container I/O holds each file once or one block of it (``load_rows`` with
``renormalize`` projects its rows in place), ``fiva bench``
streams its frames to disk and holds each fake corpus as a table and an index,
the anchor set and the gallery keep the rows their builders made, the
scoring commands and the library's batch entries hold their inputs at file
width, ``eval-temporal`` holds one block of videos whatever the file count
and one long video's Gram product and distances, not a mirror's indices,
sampling against many anchors holds a 128-row block of products, the exact row
fold holds less than its rows, the tracker mints a block of fakes at a time and
loads its fakes at file width, ``track`` reads its anchors only when it mints and
never beside float64 stored rows, the nearest-row kernel's pick buffers stay at
one slice while a store grows and at one row for a lone query, and a header of
zero-width rows sizes nothing by its row count: traced peaks.

tracemalloc counts numpy's array buffers, so a peak over a call is the most
memory the call held at once, on top of what existed before it. The tracker's
store lives in anonymous mappings, which it does not count; the tests that
weigh the store make it traced numpy buffers of the same shapes
(``traced_store``).
"""

import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from fiva import (
    AnchorSet,
    DimensionMismatch,
    Embedding,
    Gallery,
    SynthConfig,
    TrackerState,
    build_anchor_set,
    cli,
    generate_identities,
    load_gallery,
    load_rows,
    load_state,
    retrieve,
    sample_batch,
    sample_fake,
    save_state,
    score_rows,
    temporal_consistency,
    write_container,
)
from fiva import gallery as gallery_module
from fiva import io as fio
from fiva import sphere, tracking
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


@pytest.fixture(scope="module", autouse=True)
def warmed_up(tmp_path_factory):
    """One tiny ``fiva bench`` before any trace, so what a first ``cli.main``
    call allocates and keeps lands outside every test: a peak then reads the
    same alone and in module order."""
    argv = ["bench", "--identities", "4", "--frames", "2", "--dim", "8",
            "--out-dir", str(tmp_path_factory.mktemp("warm_up"))]
    assert cli.main(argv) == 0


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


def test_load_rows_with_normalize_holds_its_rows_once(labeled_rows, tmp_path):
    # The check projects the float64 result in place: no second (N, D) array.
    rows, labels = labeled_rows
    path = tmp_path / "rows.emb"
    write_container(path, rows * np.linspace(0.5, 4.0, len(rows))[:, None], labels)
    (loaded, _), peak = traced_peak(lambda: load_rows(path, renormalize=True))
    assert loaded.tobytes() == sphere._normalize_rows(fio.read_container(path)[0]).tobytes()
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
    # (2.3 MiB), the tracker's 512-row store (1.5 MiB: float64 stored rows,
    # float32 fakes) and one float64 block of frames (_BLOCK_ELEMENTS cells,
    # 2 MiB). The slack covers the store's growth and a block's sampling
    # buffers. Float64 (I, F, D) frames (+3.9 MiB over float32) or a float32
    # gather beside a write's buffer break the bound.
    identities, frames, dim = 400, 10, 256
    argv = ["bench", "--identities", str(identities), "--frames", str(frames),
            "--dim", str(dim), "--out-dir", str(tmp_path)]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    cells = identities * frames * dim
    holdings = cells * 4 + 3 * identities * dim * 8 + 512 * dim * (8 + 4) + 8 * _BLOCK_ELEMENTS
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
    holdings = 3 * identities * dim * 8 + 512 * dim * (8 + 4) + 8 * _BLOCK_ELEMENTS
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
    # The anchors are 1 MiB as float64, read at the mint; the store is mapped,
    # so untraced. Float64 frames would add 2 MiB at 4 frames per identity and
    # 8 MiB at 16; a block of rows read, products and gathered for the write
    # stays under 3 MiB whatever the frame count.
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


@pytest.fixture
def traced_store(monkeypatch):
    """The tracker's store made of traced numpy buffers, so peaks count it."""
    monkeypatch.setattr(tracking, "_mapped", lambda count, dim, dtype: np.zeros((count, dim), dtype))


def test_a_resumed_match_only_track_never_holds_the_anchors(scenes, tmp_path, traced_store, capsys):
    # 4096 anchors of D = 256 are 8 MiB as float64. A resume that mints nothing
    # checks their file a 256 KiB chunk at a time and never reads it whole: it
    # holds the loaded store (256 identities, float64 stored rows and float32
    # fakes, 0.75 MiB), a block of frames and its lookup, under 3 MiB.
    rng = np.random.default_rng(6)
    anchors = rng.normal(size=(4096, DIM))
    write_container(tmp_path / "anchors.emb", anchors / np.linalg.norm(anchors, axis=1, keepdims=True))
    first = ["track", "--frames", scenes / "frames4.emb", "--anchors", tmp_path / "anchors.emb"]
    command_peak([*first, "--state-out", tmp_path / "state1.bin", "--log", tmp_path / "log1.csv"])
    peak = command_peak([
        "track", "--frames", scenes / "frames16.emb", "--anchors", tmp_path / "anchors.emb",
        "--state-in", tmp_path / "state1.bin", "--state-out", tmp_path / "state2.bin",
        "--out", tmp_path / "fakes.emb", "--log", tmp_path / "log2.csv",
    ])
    assert "tracked 4096 frames: 256 distinct identities" in capsys.readouterr().err
    assert peak <= 256 * DIM * (8 + 4) + 3 * MiB < anchors.nbytes


def test_a_minting_track_holds_the_anchors_beside_stored_rows_at_file_width(rng, tmp_path, traced_store, capsys):
    # 2048 people of D = 512, each minted, against 2048 anchors: the anchors are
    # 8 MiB as float64, read at the mint, the store's 2048 stored rows 8 MiB as
    # float64 and 4 MiB at file width, its fakes 4 MiB. The mint holds a block of
    # stored rows widened (for the norm check) or of fakes gathered (for the
    # write), 2 MiB each and one at a time, a 128-row block of products (2 MiB)
    # with its pick slices, and the frame reader's float64 block (1 MiB). Stored
    # rows held at float64 beside the anchors (+4 MiB) break the bound.
    count, dim = 2048, 512
    people, anchors = (rng.normal(size=(count, dim)) for _ in range(2))
    for name, rows in (("people", people), ("anchors", anchors)):
        write_container(tmp_path / f"{name}.emb", rows / np.linalg.norm(rows, axis=1, keepdims=True))
    peak = command_peak([
        "track", "--frames", tmp_path / "people.emb", "--anchors", tmp_path / "anchors.emb",
        "--state-out", tmp_path / "state.bin", "--log", tmp_path / "log.csv",
    ])
    assert f"{count} distinct identities" in capsys.readouterr().err
    assert peak <= anchors.nbytes + count * dim * (4 + 4) + 6 * MiB


def test_an_in_memory_anchor_set_keeps_float64_stored_rows_across_minting_calls(rng, traced_store):
    # 1024 identities of D = 256 and one more, which grows the store to 2048
    # rows (4 MiB float64, fakes 2 MiB). Each later frame mints: a call holds its
    # one-row lookup and mint, under 64 KiB. Rewriting the stored rows at file
    # width for a mint (2 MiB) breaks the bound.
    dim = 256
    anchors, people = (rng.normal(size=(n, dim)) for n in (512, 1033))
    for rows in (anchors, people):
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    state = TrackerState(anchors=AnchorSet(anchors))
    state.track_rows(people[:1025])
    stored = state._stored
    assert stored.dtype == np.float64 and len(stored) == 2048
    for row in people[1025:]:
        result, peak = traced_peak(lambda: state.track(Embedding(row)))
        assert not result.matched
        assert state._stored is stored
        assert peak < 64 * 1024


def test_a_tracker_minting_from_file_anchors_then_tracking_again_is_one_built_in_memory(rng, tmp_path):
    # The first minting call reads the anchors from their file and rewrites the
    # stored rows at file width; the next call widens them once. Keys, distances,
    # fakes and the saved state equal those of a tracker given the anchor set.
    dim = 64
    anchors, people = (rng.normal(size=(n, dim)) for n in (300, 120))
    for rows in (anchors, people):
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    write_container(tmp_path / "anchors.emb", anchors)
    chunks = [np.repeat(people[:80], 2, axis=0), people[rng.permutation(120)]]
    kept = TrackerState(anchors=AnchorSet(load_rows(tmp_path / "anchors.emb")[0]))
    with fio._open_rows(tmp_path / "anchors.emb") as (checked, _):
        read = TrackerState(anchors=checked)
        for chunk, width in zip(chunks, (np.float32, np.float64)):
            want, got = kept.track_rows(chunk), read.track_rows(chunk)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert read._stored.dtype == width and kept._stored.dtype == np.float64
    assert isinstance(read.anchors, AnchorSet)
    assert read.anchors.matrix.tobytes() == kept.anchors.matrix.tobytes()
    states = []
    for state in (kept, read):
        save_state(state, tmp_path / "state.bin")
        states.append((tmp_path / "state.bin").read_bytes())
    assert states[0] == states[1]


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


def test_eval_temporal_peak_does_not_grow_with_the_file_count(rng, tmp_path, capsys):
    # 400 files of 16 frames of D = 256 are 6.25 MiB as float32; held at once,
    # they would add 5.5 MiB over 50 of them. Read and scored a block at a time,
    # the two peaks differ by the per-video stats and report rows alone.
    paths = []
    for v in range(400):
        rows = rng.normal(size=(16, DIM))
        paths.append(tmp_path / f"v{v:03d}.emb")
        write_container(paths[-1], rows / np.linalg.norm(rows, axis=1, keepdims=True))
    peaks = {
        count: command_peak(["eval-temporal", "--frames", *paths[:count], "--report", tmp_path / f"r{count}.csv"])
        for count in (50, 400)
    }
    assert abs(peaks[400] - peaks[50]) < 8 * _BLOCK_ELEMENTS


@pytest.mark.parametrize("listed", [False, True], ids=["stacked", "listed"])
def test_one_long_video_holds_its_gram_product_and_distances(rng, listed):
    # One 2000-frame video of D = 512 is 3.9 MiB as float32. Scoring it holds its
    # rows gathered (3.9 MiB) and widened (7.8 MiB), then the Gram product and the
    # distances (30.5 MiB each), 72.9 MiB in all. The product is freed before the
    # 3.8 MiB mask of equal pairs; the deviations are taken in the distances. A
    # mirror's index pair (30.5 MiB of intp), or a deviation copy, breaks the bound.
    video = rng.normal(size=(2000, 512))
    video = (video / np.linalg.norm(video, axis=1, keepdims=True)).astype(np.float32)
    report, peak = traced_peak(lambda: temporal_consistency([video] if listed else video[None]))
    assert len(report.video_means) == 1
    assert peak <= 80 * MiB


def test_tracker_mints_a_block_of_fakes_at_a_time(rng):
    # 2049 identities grow the store's buffers to 4096 rows, so 2000 more mint
    # without regrowing them. Gathering those fakes at once as float64 and
    # rounding them to float32 holds 11.7 MiB at D = 512; one gathered block,
    # rounded as it is written, holds 2 MiB, under what the blocked lookups
    # against the store hold.
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


def test_load_state_holds_the_float32_fakes_beside_the_float64_stored_rows(labeled_rows, tmp_path):
    # 4096 identities of D = 256: the stored rows are 8 MiB as float64 and the
    # fakes 4 MiB as float32, the width the file stores. The fakes' norms are
    # checked a float64 block of _BLOCK_ELEMENTS cells (2 MiB) at a time, and
    # the file is read in 256 KiB chunks. Fakes read as float64 (+4 MiB)
    # break the bound.
    rows, _ = labeled_rows
    state = TrackerState(sampler=lambda stored: stored)
    state.track_rows(rows)
    path = tmp_path / "tracker.state"
    save_state(state, path)
    loaded, peak = traced_peak(lambda: load_state(path))
    assert loaded.fake_matrix.tobytes() == state.fake_matrix.tobytes()
    assert peak <= rows.nbytes + rows.nbytes // 2 + 8 * _BLOCK_ELEMENTS + MiB // 2


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


def test_sample_batch_holds_128_rows_of_products_against_many_anchors(rng):
    # Past 2048 anchors the nearest-row kernel's blocks stop at 128 query rows:
    # at K = 8192 and D = 64 the anchors are 4 MiB, a block's products 8 MiB
    # and a pick slice of step = _BLOCK_ELEMENTS // K rows 2 MiB, its tie mask
    # a quarter of that. A 256-row block of products (16 MiB) breaks the bound.
    count, dim = 8192, 64
    anchors, queries = (rng.normal(size=(n, dim)) for n in (count, 512))
    for rows in (anchors, queries):
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    (index, _), peak = traced_peak(lambda: sample_batch(queries, AnchorSet(anchors), 0.3))
    assert len(index) == len(queries)
    step = _BLOCK_ELEMENTS // count
    assert peak <= anchors.nbytes + (128 + step) * count * 8 + step * count + MiB // 2


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


def test_a_zero_width_header_sizes_nothing_by_its_row_count(tmp_path, capsys):
    # 16 bytes declaring 2 ** 24 rows of width 0: the payload is empty, so the
    # probes reader must not size its index or its table of rows by the count
    # (256 MiB at this count) before the shape error.
    path = tmp_path / "empty_rows.emb"
    path.write_bytes(b"FIVAEMB1" + struct.pack("<II", 1 << 24, 0))
    message = "embedding rows must form an (N, D) array with D >= 2, got shape (16777216, 0)"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            fio._distinct_table(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < MiB
    assert cli.main(["eval-retrieval", "--probes", str(path), "--gallery", str(path)]) == 2
    assert capsys.readouterr().err == f"fiva: error: {message}\n"


def test_tracker_pick_buffers_stay_at_one_slice_while_the_store_grows(rng):
    # 3000 identities of D = 64 in scene order, each minted in turn: the store
    # grows row by row, and the walk's blocks of products with it, up to
    # _BLOCK_ELEMENTS cells (2 MiB). The pick's |c + m| and tie mask stay at one
    # slice of _PICK_ELEMENTS cells (512 KiB and 64 KiB) however their need creeps
    # up; doubled up to a block's cells they would add 2 MiB and break the bound.
    dim = 64
    anchors = rng.normal(size=(500, dim))
    people = rng.normal(size=(3000, dim))
    frames = np.repeat(people, 2, axis=0) + rng.normal(0.0, 0.01, size=(6000, dim))
    for rows in (anchors, frames):
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    state = TrackerState(0.1, anchors=AnchorSet(anchors))
    sizes = []
    call = sphere._Scratch.__call__

    def spy(scratch, key, *args, **kwargs):
        buffer = call(scratch, key, *args, **kwargs)
        if key == "objective":
            sizes.append(scratch._flat[key].size)
        return buffer

    with mock.patch.object(sphere._Scratch, "__call__", spy):
        (matched, _, _), peak = traced_peak(lambda: state.track_rows(frames))
    assert len(state) == 3000 and matched.sum() == 3000
    assert max(sizes) <= sphere._PICK_ELEMENTS < sphere._BLOCK_ELEMENTS
    held = 6000 * (8 + 8 + 1 + 1)  # keys, distances and the matched and minted flags
    assert peak <= held + 8 * _BLOCK_ELEMENTS + 9 * sphere._PICK_ELEMENTS + MiB


def test_one_query_search_holds_one_row_of_picks(rng):
    # A lone query against 1000 rows needs one row of |c + m| and of the tie
    # mask (9 KiB beside its 8 KiB of products); pick buffers sized for a whole
    # slice would hold 65 rows (585 KiB), or 256 rows in 2^18-cell slices.
    rows = rng.normal(size=(1000, 64))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    anchors, gallery = AnchorSet(rows), Gallery(rows, [f"g{i}" for i in range(1000)])
    query = Embedding(rows[3])
    for call in (lambda: sample_fake(query, anchors, 0.0), lambda: retrieve(query, gallery)):
        call()
        _, peak = traced_peak(call)
        assert peak < 64 * 1024
