"""``track`` checks its anchor file whole before it tracks and reads it again only
when it mints: a resume that mints nothing fails on a bad anchor file as an eager
load does, a file changed before the first mint fails as a changed ``--frames``
file does, and a piped or CSV anchor file, held in memory once, gives the bytes
of an ``.emb`` path."""

import os
import threading

import numpy as np
import pytest

from fiva import AnchorSet, TrackerState, write_container
from fiva import io as fio
from fiva import sphere
from fiva.cli import main
from fiva.sphere import _BLOCK_ELEMENTS

DIM = 64
CHUNK_ROWS = _BLOCK_ELEMENTS // (4 * DIM)  # rows per checking chunk
ANCHORS = CHUNK_ROWS + 500  # two chunks
PEOPLE, FRAMES = 40, 3


def unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture
def scene(rng, tmp_path):
    """Anchors, a first chunk of 40 people in scene order, its saved state, a second
    chunk revisiting them shuffled (matches only) and a third bringing 10 newcomers."""
    people = unit_rows(rng.normal(size=(PEOPLE + 10, DIM)))
    jitter = lambda rows: unit_rows(rows + rng.normal(0.0, 0.01, size=rows.shape))
    write_container(tmp_path / "anchors.emb", unit_rows(rng.normal(size=(ANCHORS, DIM))))
    write_container(tmp_path / "chunk1.emb", jitter(np.repeat(people[:PEOPLE], FRAMES, axis=0)))
    write_container(tmp_path / "revisits.emb", jitter(people[rng.permutation(PEOPLE)]))
    write_container(tmp_path / "newcomers.emb", jitter(people[rng.permutation(PEOPLE + 10)]))
    argv = ["track", "--frames", tmp_path / "chunk1.emb", "--anchors", tmp_path / "anchors.emb",
            "--state-out", tmp_path / "state1.bin"]
    assert main([str(arg) for arg in argv]) == 0
    (tmp_path / "out").mkdir()
    return tmp_path


def track(folder, frames, anchors, resume, capsys):
    """``fiva track`` of ``frames`` with ``anchors``, resumed from the first chunk's
    state if ``resume``, writing its state, fakes and log under ``out``; its exit
    code, stderr and the bytes it wrote."""
    out = folder / "out"
    argv = ["track", "--frames", folder / frames, "--anchors", anchors,
            "--state-out", out / "state.bin", "--out", out / "fakes.emb", "--log", out / "log.csv"]
    argv += ["--state-in", folder / "state1.bin"] if resume else []
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    for path in out.iterdir():
        path.unlink()
    return code, captured.err, written


def bad_anchors(folder, fault):
    """The anchor file with one fault an eager load reports, and its message."""
    rows = unit_rows(np.random.default_rng(4).normal(size=(ANCHORS, DIM)))
    late = CHUNK_ROWS + 100  # in the second checking chunk
    if fault == "nan":
        rows[late, 3] = np.nan
        message = f"row {late} contains a NaN or infinite value"
    elif fault == "norm":
        rows[late] = 0.25  # norm 2 at D = 64
        message = f"row {late} has norm 2.00000000, expected 1 within 1e-06"
    elif fault == "dimension":
        rows = rows[:, :16] / np.linalg.norm(rows[:, :16], axis=1, keepdims=True)
        message = f"anchors have dimension 16, tracker state has dimension {DIM}"
    path = folder / f"{fault}.emb"
    write_container(path, rows)
    if fault == "truncated":
        os.truncate(path, fio._HEADER.size + 4 * DIM * 100)
        message = f"payload needs {4 * DIM * ANCHORS} bytes for {ANCHORS}x{DIM} values, found {4 * DIM * 100}"
    return path, message


@pytest.mark.parametrize("fault", ["nan", "norm", "truncated", "dimension"])
def test_a_resume_that_mints_nothing_fails_on_a_bad_anchor_file(scene, capsys, fault):
    assert track(scene, "revisits.emb", scene / "anchors.emb", True, capsys)[0] == 0  # mints nothing
    path, message = bad_anchors(scene, fault)
    code, err, written = track(scene, "revisits.emb", path, True, capsys)
    assert (code, err, written) == (2, f"fiva: error: {message}\n", {})


def rewrite_row(path, row, values):
    with open(path, "r+b") as fh:  # in place, as another process might
        fh.seek(fio._HEADER.size + 4 * DIM * row)
        fh.write(np.asarray(values, "<f4").tobytes())


# Edits of a file after its check, and what a --frames file so changed raises
# as it is read (tests/test_row_reader.py).
LATE = CHUNK_ROWS + 100
CHANGES = {
    "nan": (lambda path: rewrite_row(path, LATE, [np.nan]),
            f"row {LATE} contains a NaN or infinite value"),
    "norm": (lambda path: rewrite_row(path, LATE, np.full(DIM, 0.5)),
             f"row {LATE} has norm {0.5 * np.sqrt(DIM):.8f}, expected 1 within 1e-06"),
    "cut": (lambda path: os.truncate(path, fio._HEADER.size + 4 * DIM * (ANCHORS - 10)),
            f"payload ends before row {ANCHORS} of {ANCHORS}"),
}


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
@pytest.mark.parametrize("change", sorted(CHANGES))
def test_anchors_changed_before_the_first_mint_fail_as_a_changed_frames_file(
    scene, capsys, monkeypatch, change, resume
):
    frames = "newcomers.emb" if resume else "chunk1.emb"
    assert track(scene, frames, scene / "anchors.emb", resume, capsys)[0] == 0
    edit, message = CHANGES[change]
    tracked = TrackerState.track_rows

    def changed_first(state, rows):  # after the command's check, before any mint
        edit(scene / "anchors.emb")
        return tracked(state, rows)

    monkeypatch.setattr(TrackerState, "track_rows", changed_first)
    code, err, written = track(scene, frames, scene / "anchors.emb", resume, capsys)
    assert (code, err, written) == (2, f"fiva: error: {message}\n", {})


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
def test_piped_and_csv_anchors_are_read_once_and_give_the_bytes_of_an_emb_path(
    scene, capsys, monkeypatch, resume
):
    frames = "newcomers.emb" if resume else "chunk1.emb"  # both mint
    code, _, want = track(scene, frames, scene / "anchors.emb", resume, capsys)
    assert code == 0 and set(want) == {"state.bin", "fakes.emb", "log.csv"}
    assert b"0" in [line.split(b",")[1] for line in want["log.csv"].splitlines()[1:]]  # it mints
    write_container(scene / "anchors.csv", fio.read_container(scene / "anchors.emb")[0])
    os.mkfifo(scene / "anchors.fifo")
    opened, parsed = [], []
    payload, parse_csv = fio._payload, fio._parse_csv
    monkeypatch.setattr(fio, "_payload", lambda source: payload(opened.append(source) or source))
    monkeypatch.setattr(fio, "_parse_csv", lambda data: parse_csv(parsed.append(data) or data))
    for source in ("anchors.csv", "anchors.fifo"):
        opened.clear(), parsed.clear()
        writer = None
        if source == "anchors.fifo":
            data = (scene / "anchors.emb").read_bytes()
            writer = threading.Thread(target=(scene / source).write_bytes, args=(data,), daemon=True)
            writer.start()
        code, err, written = track(scene, frames, scene / source, resume, capsys)
        if writer is not None:
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert code == 0, err
        assert written == want, source
        assert [str(path) for path in opened].count(str(scene / source)) == 1
        assert len(parsed) == (source == "anchors.csv")


@pytest.mark.parametrize("from_file", [False, True], ids=["anchor-set", "anchor-file"])
def test_a_mint_does_not_check_the_frames_it_stored_again(scene, monkeypatch, from_file):
    # Every new identity mints from its stored row, a frame track_rows checked.
    seen = []
    check = sphere._check_norms

    def spy(arr, *args, **kwargs):
        seen.append((args[0], len(arr)))
        return check(arr, *args, **kwargs)

    monkeypatch.setattr(sphere, "_check_norms", spy)
    monkeypatch.setattr(fio, "_check_norms", spy)
    chunks = [fio.read_container(scene / name)[0] for name in ("chunk1.emb", "newcomers.emb")]
    with fio._open_rows(scene / "anchors.emb", False) as (rows, _):
        anchors = rows if from_file else AnchorSet(fio.read_container(scene / "anchors.emb")[0])
        tracker = TrackerState(anchors=anchors)
        for frames in chunks:
            seen.clear()
            tracker.track_rows(frames)
            # The anchor file's rows are checked as 'row' when read, and as 'anchor' by AnchorSet.
            assert sum(count for name, count in seen if name not in ("row", "anchor")) == len(frames)
    assert tracker.key_pointer > PEOPLE  # the second call minted too


def test_a_minting_track_checks_each_anchor_row_twice(scene, capsys, monkeypatch):
    # Once in the pass that checks the file when track starts and once as the first
    # mint reads it; the anchor set keeps the rows that read checked.
    anchors = fio.read_container(scene / "anchors.emb")[0].astype(np.float64)
    position = {row.tobytes(): i for i, row in enumerate(anchors)}
    checks, names = np.zeros(len(anchors), dtype=int), set()
    check = sphere._check_norms

    def spy(arr, name, *args, **kwargs):
        for row in arr:
            if (i := position.get(row.tobytes())) is not None:
                checks[i] += 1
                names.add(name)
        return check(arr, name, *args, **kwargs)

    monkeypatch.setattr(sphere, "_check_norms", spy)
    monkeypatch.setattr(fio, "_check_norms", spy)
    code, err, written = track(scene, "chunk1.emb", scene / "anchors.emb", False, capsys)
    assert code == 0 and set(written) == {"state.bin", "fakes.emb", "log.csv"}
    assert f"{PEOPLE} distinct identities" in err  # it mints
    assert names == {"row"}
    assert checks.tolist() == [2] * ANCHORS
