"""Writers: CSV labels that need quoting, the shared label check, atomic file
writes, and one container writer behind every container's bytes."""

import io
import os
import shutil
import stat
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiva import cli
from fiva import io as fio
from fiva import (
    AnchorSet,
    IoFailure,
    LabelCountMismatch,
    TrackerState,
    pack_container,
    read_container,
    save_state,
    write_container,
    write_image_ppm,
)
from fiva.sphere import _Take
from conftest import random_unit


def unit_matrix(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def test_csv_labels_that_need_quoting_round_trip(rng, tmp_path):
    labels = ["a,b", 'say "hi"', '"', ",", " padded "]
    matrix = unit_matrix(rng, len(labels), 4)
    path = tmp_path / "quoted.csv"
    write_container(path, matrix, labels)
    out_matrix, out_labels = read_container(path)
    assert out_labels == labels
    assert out_matrix.tobytes() == matrix.tobytes()


def test_csv_labels_without_quoting_keep_their_bytes(rng, tmp_path):
    labels = ["id_0", "id 1", "ünï"]
    matrix = unit_matrix(rng, 3, 4)
    path = tmp_path / "plain.csv"
    write_container(path, matrix, labels)
    expected = "".join(
        ",".join([label, *(repr(float(v)) for v in row)]) + "\n"
        for label, row in zip(labels, matrix)
    )
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("label", ["", "a\nb", "a\rb", "tail\n", "a\u2028b"])
@pytest.mark.parametrize("suffix", [".csv", ".emb"])
def test_both_writers_reject_empty_and_multiline_labels(rng, tmp_path, label, suffix):
    path = tmp_path / f"labels{suffix}"
    with pytest.raises(LabelCountMismatch):
        write_container(path, unit_matrix(rng, 2, 4), ["ok", label])
    assert not path.exists()
    with pytest.raises(LabelCountMismatch):
        pack_container(unit_matrix(rng, 2, 4), ["ok", label])


def tracker_with_rows(rng):
    tracker = TrackerState(sampler=lambda z: z)
    tracker.track(random_unit(rng, 8))
    return tracker


WRITERS = {
    "container": lambda path, rng: write_container(path / "out.emb", unit_matrix(rng, 3, 8)),
    "csv": lambda path, rng: write_container(path / "out.csv", unit_matrix(rng, 3, 8)),
    "image": lambda path, rng: write_image_ppm(path / "out.ppm", rng.random((4, 5, 3))),
    "state": lambda path, rng: save_state(tracker_with_rows(rng), path / "out.state"),
}


class HalfWritten:
    """A file open to write that takes half the bytes of its first write and fails."""

    def __init__(self, path):
        self.file = open(path, "wb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        view = memoryview(data).cast("B")
        self.file.write(view[: len(view) // 2])
        raise OSError("disk full")


def half_write(path, mode="r", *args, **kwargs):
    """``open`` as ``fiva.io`` calls it, whose files opened to write fail halfway."""
    return HalfWritten(path) if "w" in mode else open(path, mode, *args, **kwargs)


def failing_replace(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("failure", ["midway", "at rename"])
def test_failed_write_keeps_old_bytes_and_leaves_no_temporary(
    rng, tmp_path, monkeypatch, writer, failure
):
    WRITERS[writer](tmp_path, rng)
    (target,) = tmp_path.iterdir()
    before = target.read_bytes()
    if failure == "midway":
        monkeypatch.setattr(fio, "open", half_write, raising=False)
    else:
        monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises((OSError, IoFailure)):
        WRITERS[writer](tmp_path, np.random.default_rng(1))
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == before


# Per command: its arguments, with {inputs} and {out} folders, and the text file checked.
TEXT_OUTPUTS = {
    "eval-retrieval --report": (
        "eval-retrieval --probes {inputs}/means.emb --gallery {inputs}/means.emb"
        " --report {out}/report.csv",
        "report.csv",
    ),
    "track --log": (
        "track --frames {inputs}/means.emb --anchors {inputs}/means.emb --log {out}/log.csv",
        "log.csv",
    ),
    "build-anchors --provenance": (
        "build-anchors --means {inputs}/means.emb --out {out}/anchors.emb"
        " --provenance {out}/provenance.csv",
        "provenance.csv",
    ),
    "bench report.csv": (
        "bench --identities 6 --frames 2 --dim 8 --out-dir {out}",
        "report.csv",
    ),
}


def only_for(target, injected, real):
    """``injected`` when the first argument is a temporary of ``target``, else ``real``."""

    def call(first, *rest):
        if Path(first).name.startswith(f".{target.name}."):
            return injected(first, *rest)
        return real(first, *rest)

    return call


@pytest.mark.parametrize("command", TEXT_OUTPUTS)
@pytest.mark.parametrize("failure", ["midway", "at rename"])
def test_failed_text_output_keeps_old_bytes_and_leaves_no_temporary(
    rng, tmp_path, monkeypatch, capsys, command, failure
):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    write_container(inputs / "means.emb", unit_matrix(rng, 6, 8), [f"id_{i}" for i in range(6)])
    args, name = TEXT_OUTPUTS[command]
    target = out / name
    target.write_bytes(b"old bytes\n")
    if failure == "midway":
        monkeypatch.setattr(fio, "open", only_for(target, half_write, open), raising=False)
    else:
        monkeypatch.setattr(os, "replace", only_for(target, failing_replace, os.replace))
    code = cli.main([arg.format(inputs=inputs, out=out) for arg in args.split()])
    monkeypatch.undo()
    assert code == 2
    assert ("disk full" if failure == "midway" else "rename failed") in capsys.readouterr().err
    assert target.read_bytes() == b"old bytes\n"
    assert not [path.name for path in out.iterdir() if path.name.endswith(".tmp")]


def test_new_file_gets_the_default_mode(rng, tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    path = tmp_path / "fresh.emb"
    write_container(path, unit_matrix(rng, 2, 4))
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_symlink_destination_is_kept_and_its_target_replaced(rng, tmp_path):
    target = tmp_path / "target.emb"
    target.write_bytes(b"old")
    link = tmp_path / "link.emb"
    link.symlink_to(target)
    matrix = unit_matrix(rng, 2, 4)
    write_container(link, matrix)
    assert link.is_symlink()
    assert read_container(target)[0].tobytes() == matrix.tobytes()


def test_text_output_to_a_directory_names_the_path_as_given(rng, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_container("means.emb", unit_matrix(rng, 3, 8), ["a", "b", "c"])
    Path("report.csv").mkdir()
    args = ["eval-retrieval", "--probes", "means.emb", "--gallery", "means.emb"]
    assert cli.main([*args, "--report", "report.csv"]) == 2
    assert capsys.readouterr().err.endswith("Is a directory: 'report.csv'\n")


def prepare_track(inputs, folder):
    argv = f"track --anchors {inputs}/anchors.emb --frames {inputs}/first.emb --state-out {folder}/state.bin"
    assert cli.main(argv.split()) == 0


# Per command: how a folder is made ready; the arguments of a run in it, with
# {target} for the file whose write is made to fail; that file; the file the run
# rewrites in place, which a failed run must leave as it was; and the files the
# rerun must write as the clean run did.
IN_PLACE_RUNS = {
    "track": (
        prepare_track,
        "track --anchors {inputs}/anchors.emb --frames {inputs}/second.emb --state-in {folder}/state.bin"
        " --state-out {folder}/state.bin --out {folder}/fakes.emb --log {folder}/{target}",
        "log.csv", "state.bin", ("state.bin", "fakes.emb", "log.csv"),
    ),
    "build-anchors": (
        lambda inputs, folder: shutil.copy(inputs / "means.emb", folder),
        "build-anchors --means {folder}/means.emb --out {folder}/means.emb"
        " --provenance {folder}/provenance.csv --skips {folder}/{target}",
        "skips.csv", "means.emb", ("means.emb", "provenance.csv", "skips.csv"),
    ),
}


@pytest.mark.parametrize("command", IN_PLACE_RUNS)
@pytest.mark.parametrize("failure", ["missing directory", "midway", "at rename"])
def test_failed_run_leaves_the_file_it_rewrites_and_the_rerun_matches_the_clean_run(
    rng, tmp_path, monkeypatch, command, failure
):
    # 8 identities tracked into a state, then resumed in place on 4 of them and
    # 4 new ones; 12 means holding an antipodal pair built into anchors over
    # themselves. Each run once cleanly, once with a write failing before a rerun.
    prepare, args, target, kept, outputs = IN_PLACE_RUNS[command]
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    people = unit_matrix(rng, 12, 64)
    write_container(inputs / "anchors.emb", unit_matrix(rng, 20, 64))
    write_container(inputs / "first.emb", people[:8])
    write_container(inputs / "second.emb", people[4:])
    means = unit_matrix(rng, 12, 16)
    means[3] = -means[2]
    write_container(inputs / "means.emb", means)

    def run(folder, target=target):
        return cli.main(args.format(inputs=inputs, folder=folder, target=target).split())

    clean, failed = tmp_path / "clean", tmp_path / "failed"
    for folder in (clean, failed):
        folder.mkdir()
        prepare(inputs, folder)
    before = (failed / kept).read_bytes()
    assert run(clean) == 0
    if failure == "midway":
        monkeypatch.setattr(fio, "open", only_for(failed / target, half_write, open), raising=False)
    elif failure == "at rename":
        monkeypatch.setattr(os, "replace", only_for(failed / target, failing_replace, os.replace))
    assert run(failed, f"nodir/{target}" if failure == "missing directory" else target) == 2
    monkeypatch.undo()
    assert (failed / kept).read_bytes() == before
    if failure == "missing directory":  # checked before any input is read: no output written
        assert [path.name for path in failed.iterdir()] == [kept]
    assert run(failed) == 0
    for name in outputs:
        assert (failed / name).read_bytes() == (clean / name).read_bytes(), name


def packed(rows, labels=None):
    """A container's bytes by the layout: header, float32 rows, label lines."""
    rows = np.asarray(rows, dtype="<f4")
    block = "".join(f"{label}\n" for label in labels or []).encode("utf-8")
    return struct.pack("<8sII", b"FIVAEMB1", *rows.shape) + rows.tobytes() + block


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_container_writer_gives_the_same_bytes(tmp_path_factory, data):
    # float64, float32 or gathered rows, with or without labels, written whole to
    # a path and to a stream, packed, and streamed in random blocks, through a
    # conversion buffer of one row up to the default.
    count, dim = data.draw(st.integers(0, 40)), data.draw(st.integers(2, 9))
    kind = data.draw(st.sampled_from(["float64", "float32", "gathered"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "gathered":
        rows = _Take(rng.normal(size=(5, dim)), rng.integers(0, 5, count))
        want = rows.table[rows.index]
    else:
        rows = want = rng.normal(size=(count, dim)).astype(kind)
    labels = [f"row {i}" for i in range(count)] if data.draw(st.booleans()) else None
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=4)))
    cells = data.draw(st.sampled_from([1, 4 * dim * 3, fio._BLOCK_ELEMENTS]))
    folder = tmp_path_factory.mktemp("writers")
    stream = io.BytesIO()
    with mock.patch.object(fio, "_BLOCK_ELEMENTS", cells):
        write_container(folder / "whole.emb", rows, labels)
        write_container(stream, rows, labels)
        blob = pack_container(rows, labels)
        with fio._opened(folder / "streamed.emb") as fh, fio._container_writer(fh, count, dim, labels) as write:
            for start, stop in zip([0, *cuts], [*cuts, count]):
                write(rows[start:stop])
    expected = packed(want, labels)
    assert (folder / "whole.emb").read_bytes() == expected
    assert stream.getvalue() == expected
    assert blob == expected
    assert (folder / "streamed.emb").read_bytes() == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 20), st.sampled_from([2, 7, 64]), st.booleans())
def test_save_state_is_two_containers_and_the_trailer(tmp_path_factory, count, dim, anchored):
    rng = np.random.default_rng(count * 100 + dim)
    # An anchored tracker has a width before its first key; the other has none.
    tracker = TrackerState(0.4, 0.2, anchors=AnchorSet(unit_matrix(rng, 3, dim))) if anchored else \
        TrackerState(0.4, 0.2, sampler=lambda stored: -stored)
    tracker.track_rows(unit_matrix(rng, count, dim))
    path = tmp_path_factory.mktemp("state") / "tracker.state"
    stream = io.BytesIO()
    save_state(tracker, path)
    save_state(tracker, stream)
    keys, width = len(tracker), tracker.dim or 0
    expected = (
        packed(tracker._stored[:keys].reshape(keys, width))
        + packed(tracker.fake_matrix.reshape(keys, width))
        + struct.pack("<ffI", tracker.threshold, tracker.margin, keys)
    )
    assert path.read_bytes() == stream.getvalue() == expected
