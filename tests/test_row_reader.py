"""``track``, ``sample`` and ``detect`` check a row file whole, then read it a
block at a time: errors keep their order and name rows by their index in the
file, and every input kind gives the bytes of an ``.emb`` path."""

import os
import threading

import numpy as np
import pytest

from fiva import NonFinite, NotUnitNorm, Truncated, ZeroVector, load_rows, write_container
from fiva import io as fio
from fiva.cli import main
from fiva.sphere import _BLOCK_ELEMENTS

DIM = 64
CHUNK_ROWS = _BLOCK_ELEMENTS // (4 * DIM)  # rows per checking chunk
COUNT = 2 * CHUNK_ROWS + 552  # three chunks


def unit_rows(rng, count, dim=DIM):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.fixture
def files(rng, tmp_path):
    write_container(tmp_path / "anchors.emb", unit_rows(rng, 40))
    write_container(tmp_path / "frames.emb", unit_rows(rng, COUNT), [f"f{i}" for i in range(COUNT)])
    return tmp_path


def commands(folder, rows):
    """Per command, its arguments reading ``rows`` and the paths it would write."""
    out = folder / "out"
    return {
        "track": (["track", "--frames", rows, "--anchors", folder / "anchors.emb",
                   "--out", out / "fakes.emb", "--log", out / "log.csv",
                   "--state-out", out / "state.bin"], ["fakes.emb", "log.csv", "state.bin"]),
        "sample": (["sample", "--anchors", folder / "anchors.emb", "--query", rows,
                    "--out", out / "fakes.emb"], ["fakes.emb"]),
        "detect": (["detect", "--inputs", folder / "frames.emb", "--outputs", rows,
                    "--report", out / "report.csv"], ["report.csv"]),
    }


def run(capsys, argv, *flags):
    code = main([str(arg) for arg in argv] + list(flags))
    return code, capsys.readouterr()


def fails_with(capsys, folder, rows, message, *flags):
    (folder / "out").mkdir(exist_ok=True)
    for name, (argv, _) in commands(folder, rows).items():
        code, captured = run(capsys, argv, *flags)
        assert code == 2, name
        assert captured.err == f"fiva: error: {message}\n", name
        assert captured.out == ""
        assert not list((folder / "out").iterdir()), name


def test_a_nan_in_the_last_block_beats_a_bad_norm_in_the_first(rng, files, capsys):
    rows = unit_rows(rng, COUNT)
    rows[5] *= 2.0
    rows[COUNT - 7, 3] = np.nan
    write_container(files / "bad.emb", rows)
    message = f"row {COUNT - 7} contains a NaN or infinite value"
    with pytest.raises(NonFinite, match=message):
        load_rows(files / "bad.emb")
    fails_with(capsys, files, files / "bad.emb", message)
    fails_with(capsys, files, files / "bad.emb", message, "--normalize")


def test_a_late_row_is_named_by_its_index_in_the_file(rng, files, capsys):
    rows = unit_rows(rng, COUNT)
    late = 2 * CHUNK_ROWS + 100
    rows[late] = 0.0
    write_container(files / "zero.emb", rows)
    with pytest.raises(NotUnitNorm, match=f"row {late} has norm 0.00000000"):
        load_rows(files / "zero.emb")
    with pytest.raises(ZeroVector, match=f"cannot normalize row {late} with norm 0"):
        load_rows(files / "zero.emb", renormalize=True)
    fails_with(capsys, files, files / "zero.emb",
               f"row {late} has norm 0.00000000, expected 1 within 1e-06")
    fails_with(capsys, files, files / "zero.emb",
               f"cannot normalize row {late} with norm 0", "--normalize")


def test_a_bad_label_block_exits_2_and_writes_nothing(files, capsys):
    blob = (files / "frames.emb").read_bytes()
    (files / "labels.emb").write_bytes(blob[: blob.index(b"f0\n")] + b"only\nthree\nlabels\n")
    fails_with(capsys, files, files / "labels.emb", f"3 labels for {COUNT} embeddings")


def test_a_dimension_mismatch_keeps_its_message(rng, files, capsys):
    write_container(files / "narrow.emb", unit_rows(rng, 30, 32))
    (files / "out").mkdir()
    want = {"track": "frame", "sample": "query", "detect": "output"}
    for name, (argv, _) in commands(files, files / "narrow.emb").items():
        code, captured = run(capsys, argv)
        assert code == 2
        assert captured.err == (
            f"fiva: error: {want[name]} embedding rows must form an (N, D) array with "
            f"D = {DIM}, got shape (30, 32)\n"
        )


def rewrite_row(path, row, values):
    with open(path, "r+b") as fh:  # in place, as another process might
        fh.seek(fio._HEADER.size + 4 * DIM * row)
        fh.write(np.asarray(values, "<f4").tobytes())


@pytest.mark.parametrize(
    "values, error, message",
    [
        ([np.nan], NonFinite, "row {row} contains a NaN or infinite value"),
        (np.full(DIM, 0.5), NotUnitNorm, "row {row} has norm 4.00000000"),
    ],
)
def test_rows_changed_after_the_check_fail_as_they_are_read(rng, tmp_path, values, error, message):
    rows = unit_rows(rng, COUNT)
    write_container(tmp_path / "rows.emb", rows)
    row = 2 * CHUNK_ROWS + 100
    with fio._open_rows(tmp_path / "rows.emb") as (served, _):
        rewrite_row(tmp_path / "rows.emb", row, values)
        assert served[:CHUNK_ROWS].tobytes() == rows[:CHUNK_ROWS].astype("<f4").astype(float).tobytes()
        with pytest.raises(error, match=message.format(row=row)):
            served[2 * CHUNK_ROWS :]


def test_a_file_cut_after_the_check_names_the_row_in_the_file(rng, tmp_path):
    write_container(tmp_path / "rows.emb", unit_rows(rng, COUNT))
    with fio._open_rows(tmp_path / "rows.emb") as (served, _):
        os.truncate(tmp_path / "rows.emb", fio._HEADER.size + 4 * DIM * (COUNT - 10))
        assert len(served[: 2 * CHUNK_ROWS]) == 2 * CHUNK_ROWS
        with pytest.raises(Truncated, match=f"payload ends before row {COUNT} of {COUNT}"):
            served[2 * CHUNK_ROWS :]


def outputs(folder, names):
    return {name: (folder / "out" / name).read_bytes() for name in names}


@pytest.mark.parametrize("command", ["track", "sample"])
def test_an_input_can_be_its_own_output(files, capsys, command):
    (files / "out").mkdir()
    argv, names = commands(files, files / "frames.emb")[command]
    assert run(capsys, argv)[0] == 0
    want = outputs(files, names)["fakes.emb"]
    argv = [files / "out" / "fakes.emb" if arg == files / "frames.emb" else arg for arg in argv]
    (files / "out" / "fakes.emb").write_bytes((files / "frames.emb").read_bytes())
    assert run(capsys, argv)[0] == 0
    assert (files / "out" / "fakes.emb").read_bytes() == want


def fill_fifo(fifo, data):
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    return writer


@pytest.mark.parametrize("normalize", [[], ["--normalize"]])
@pytest.mark.parametrize("command", ["track", "sample", "detect"])
def test_csv_and_piped_inputs_give_the_bytes_of_an_emb_path(rng, files, capsys, command, normalize):
    rows = rng.normal(size=(300, DIM))
    if not normalize:
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    write_container(files / "frames.emb", rows)  # detect pairs the frames with these rows
    write_container(files / "rows.emb", rows[::-1])
    write_container(files / "rows.csv", rows[::-1])
    (files / "out").mkdir()
    argv, names = commands(files, files / "rows.emb")[command]
    code, captured = run(capsys, argv, *normalize)
    assert code == 0
    want = outputs(files, names), captured.out
    for source in ("rows.csv", "rows.fifo"):
        argv, names = commands(files, files / source)[command]
        writer = None
        if source == "rows.fifo":
            os.mkfifo(files / source)
            writer = fill_fifo(files / source, (files / "rows.emb").read_bytes())
        code, captured = run(capsys, argv, *normalize)
        if writer is not None:
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert code == 0, captured.err
        assert (outputs(files, names), captured.out) == want, source
