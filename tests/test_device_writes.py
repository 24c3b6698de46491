"""Devices and pipes are written in place: the bytes a regular-file write gives,
with no temporary file beside the destination."""

import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from fiva import write_container
from fiva.cli import main


@pytest.fixture
def folder(rng, tmp_path):
    rows = rng.normal(size=(50, 16))
    write_container(tmp_path / "inputs.emb", rows / np.linalg.norm(rows, axis=1, keepdims=True))
    rows = rng.normal(size=(50, 16))
    write_container(tmp_path / "outputs.emb", rows / np.linalg.norm(rows, axis=1, keepdims=True))
    return tmp_path


def detect(folder, report):
    return main(["detect", "--inputs", str(folder / "inputs.emb"),
                 "--outputs", str(folder / "outputs.emb"), "--report", str(report)])


def read_through_fifo(path: Path, write) -> bytes:
    """The bytes ``write()`` sends into a new FIFO at ``path``, read by a thread."""
    os.mkfifo(path)
    received = []
    reader = threading.Thread(target=lambda: received.append(path.read_bytes()), daemon=True)
    reader.start()
    write()
    reader.join(timeout=30)
    assert not reader.is_alive()
    return received[0]


def test_a_report_to_dev_null_is_written_in_place(folder, capsys):
    assert detect(folder, folder / "report.csv") == 0
    to_file = capsys.readouterr()
    devices = set(os.listdir("/dev"))
    assert detect(folder, "/dev/null") == 0
    assert capsys.readouterr() == to_file
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
    assert not [name for name in set(os.listdir("/dev")) - devices if name.endswith(".tmp")]


def test_a_container_into_a_fifo_has_the_bytes_of_a_file(rng, tmp_path):
    rows = rng.normal(size=(3000, 64))  # more than one 2^18-value block
    labels = [f"id{i}" for i in range(len(rows))]
    write_container(tmp_path / "file.emb", rows, labels)
    piped = read_through_fifo(tmp_path / "pipe", lambda: write_container(tmp_path / "pipe", rows, labels))
    assert piped == (tmp_path / "file.emb").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.emb", "pipe"]


def test_a_report_into_a_fifo_has_the_bytes_of_a_file(folder):
    assert detect(folder, folder / "report.csv") == 0
    piped = read_through_fifo(folder / "pipe", lambda: detect(folder, folder / "pipe"))
    assert piped == (folder / "report.csv").read_bytes()
    assert sorted(p.name for p in folder.iterdir()) == ["inputs.emb", "outputs.emb", "pipe", "report.csv"]
