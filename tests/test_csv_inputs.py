"""A malformed CSV input fails every reading command the same way: exit 2, one
exact stderr line, nothing on stdout and no file written. A CSV file is packed
into a container where it is opened, so the streamed readers of ``track``,
``sample`` and ``detect`` raise what the whole-file readers raise."""

from pathlib import Path

import numpy as np
import pytest

from fiva import write_container
from fiva.cli import main

# name: (file bytes, extra flags, the message after "fiva: error: ").
CASES = {
    "nan": (b"0.6,0.8\nnan,1\n", (), "row 1 contains a NaN or infinite value"),
    "overflow": (b"0.6,0.8\n1e39,1\n", ("--normalize",), "row 1 contains a NaN or infinite value"),
    "off_sphere": (b"0.6,0.8\n1.2,1.6\n", (), "row 1 has norm 2.00000005, expected 1 within 1e-06"),
    "zero_row": (b"0.6,0.8\n0,0\n", ("--normalize",), "cannot normalize row 1 with norm 0"),
    "short_row": (b"0.6,0.8\n1.0\n", (), "line 2: 1 values, expected 2"),
    "mixed_labels": (b"a,0.6,0.8\n0.8,0.6\n", (), "line 2: mixed labeled and unlabeled CSV rows"),
    "label_only": (
        b"a\nb\n", (), "embedding rows must form an (N, D) array with D >= 2, got shape (2, 0)"
    ),
    "blank": (b"\n\n", (), "CSV file contains no embedding rows"),
    "non_utf8": (
        b"0.6,0.8\n\xff0.8,0.6\n",
        (),
        "CSV payload is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
        "in position 8: invalid start byte",
    ),
    "empty_label": (
        b'"",0.6,0.8\nb,0.8,0.6\n', (), "labels must be non-empty and newline-free, got ''"
    ),
    "label_line_break": (
        b'"a\nb",0.6,0.8\nc,0.8,0.6\n', (), "labels must be non-empty and newline-free, got 'a\\nb'"
    ),
    "non_numeric": (
        b"0.6,x\n0.8,0.6\n", (), "line 1: non-numeric cell: could not convert string to float: 'x'"
    ),
}


def commands(folder, rows):
    """Per command, its arguments reading the CSV file ``rows`` and writing into ``out``."""
    out = folder / "out"
    return {
        "sample": ["sample", "--anchors", folder / "anchors.emb", "--query", rows,
                   "--out", out / "fakes.emb"],
        "track": ["track", "--frames", rows, "--anchors", folder / "anchors.emb",
                  "--out", out / "fakes.emb", "--log", out / "log.csv", "--state-out", out / "state.bin"],
        "detect --inputs": ["detect", "--inputs", rows, "--outputs", folder / "pair.emb",
                            "--report", out / "report.csv"],
        "detect --outputs": ["detect", "--inputs", folder / "pair.emb", "--outputs", rows,
                             "--report", out / "report.csv"],
        "eval-retrieval": ["eval-retrieval", "--probes", rows, "--gallery", folder / "gallery.emb",
                           "--report", out / "report.csv"],
        "eval-temporal": ["eval-temporal", "--frames", rows, "--report", out / "report.csv"],
        "build-anchors": ["build-anchors", "--means", rows, "--out", out / "anchors.emb",
                          "--provenance", out / "provenance.csv"],
    }


@pytest.fixture
def folder(tmp_path):
    pair = np.array([[0.6, 0.8], [0.8, 0.6]])
    write_container(tmp_path / "anchors.emb", np.vstack([pair, [[0.0, 1.0]]]))
    write_container(tmp_path / "pair.emb", pair)
    write_container(tmp_path / "gallery.emb", pair, ["a", "b"])
    (tmp_path / "out").mkdir()
    return tmp_path


@pytest.mark.parametrize("command", list(commands(Path("."), "rows.csv")))
@pytest.mark.parametrize("case", list(CASES))
def test_a_malformed_csv_input_fails_every_reader_alike(folder, capsys, case, command):
    data, flags, message = CASES[case]
    (folder / "rows.csv").write_bytes(data)
    argv = commands(folder, folder / "rows.csv")[command]
    code = main([str(arg) for arg in argv] + list(flags))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"fiva: error: {message}\n"
    assert captured.out == ""
    assert not list((folder / "out").iterdir())

