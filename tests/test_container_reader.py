"""The one container reader: chunked reads, short reads, streams that cannot
seek, and loads straight into float64 with the bits of the float32 read."""

import io
import os
import struct
import threading

import numpy as np
import pytest

from fiva import (
    CorruptState,
    TrackerState,
    Truncated,
    load_rows,
    load_state,
    pack_container,
    parse_container,
    read_container,
    save_state,
    write_container,
)
from fiva.sphere import _BLOCK_ELEMENTS

DIM = 64
# Rows per read chunk at DIM, so the file below spans 2.5 chunks.
CHUNK_ROWS = _BLOCK_ELEMENTS // (4 * DIM)


class Dribble(io.BytesIO):
    """A stream whose ``readinto`` returns at most 1000 bytes a call."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer).cast("B")[:1000])


class Pipe(io.RawIOBase):
    """A readable stream that cannot seek, as a pipe."""

    def __init__(self, data: bytes) -> None:
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        return self._data.readinto(buffer)


class EndsEarly(io.BytesIO):
    """A stream that reports its full size but stops returning bytes at ``stop``."""

    def __init__(self, data: bytes, stop: int) -> None:
        super().__init__(data)
        self.stop = stop

    def readinto(self, buffer):
        room = max(0, self.stop - self.tell())
        return super().readinto(memoryview(buffer).cast("B")[:room])


@pytest.fixture
def labeled(tmp_path):
    rng = np.random.default_rng(17)
    count = CHUNK_ROWS * 2 + CHUNK_ROWS // 2 + 3
    rows = rng.normal(size=(count, DIM))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    labels = [f"row {i}" for i in range(count)]
    path = tmp_path / "rows.emb"
    write_container(path, rows, labels)
    return path, rows.astype(np.float32), labels


KINDS = ["path", "unbuffered", "dribble", "pipe", "named pipe"]


def read_as(kind, path, reader):
    """``reader`` of ``path`` given as a path, an unbuffered file, a dribbling
    stream, a pipe stream, or the path of a named pipe that a thread fills."""
    if kind == "path":
        return reader(path)
    if kind == "unbuffered":
        with open(path, "rb", buffering=0) as raw:
            return reader(raw)
    if kind == "named pipe":
        fifo = path.with_suffix(".fifo")
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        try:
            return reader(fifo)
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()
            fifo.unlink()
    return reader({"dribble": Dribble, "pipe": Pipe}[kind](path.read_bytes()))


@pytest.mark.parametrize("kind", KINDS)
def test_reads_span_chunks_and_come_back_bit_exact(labeled, kind):
    path, want, labels = labeled
    assert len(want) % CHUNK_ROWS and len(want) > 2 * CHUNK_ROWS
    matrix, got_labels = read_as(kind, path, read_container)
    assert matrix.dtype == np.float32 and matrix.tobytes() == want.tobytes()
    assert got_labels == labels
    rows, got_labels = read_as(kind, path, load_rows)
    assert rows.dtype == np.float64 and rows.tobytes() == want.astype(np.float64).tobytes()
    assert got_labels == labels


@pytest.mark.parametrize("kind", KINDS)
def test_tracker_state_reads_back_from_every_stream(labeled, tmp_path, kind):
    _, rows, _ = labeled
    tracker = TrackerState(threshold=0.5, margin=0.25, sampler=lambda stored: -stored)
    tracker.track_rows(rows[:300])
    path = tmp_path / "tracker.state"
    save_state(tracker, path)
    loaded = read_as(kind, path, load_state)
    assert loaded.threshold == tracker.threshold and loaded.margin == tracker.margin
    assert len(loaded) == len(tracker) == 300
    assert loaded._stored[:300].tobytes() == tracker._stored[:300].tobytes()
    assert loaded.fake_matrix.tobytes() == tracker.fake_matrix.tobytes()


@pytest.mark.parametrize("suffix", [".emb", ".csv"])
@pytest.mark.parametrize("renormalize", [False, True])
def test_load_rows_has_the_bits_of_the_float32_read_widened(tmp_path, suffix, renormalize):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(37, 9))
    if not renormalize:
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    path = tmp_path / f"rows{suffix}"
    write_container(path, rows, [f"r{i}" for i in range(37)])
    widened = read_container(path)[0].astype(np.float64)
    if renormalize:
        widened = np.stack([row / np.linalg.norm(row) for row in widened])
    loaded, labels = load_rows(path, renormalize)
    assert loaded.tobytes() == widened.tobytes()
    assert labels == [f"r{i}" for i in range(37)]


def test_a_header_declaring_too_many_rows_raises_truncated(tmp_path):
    blob = b"FIVAEMB1" + struct.pack("<II", 2**32 - 1, 512) + bytes(64)
    path = tmp_path / "huge.emb"
    path.write_bytes(blob)
    message = f"payload needs {(2**32 - 1) * 512 * 4} bytes for 4294967295x512 values, found 64"
    for read in (read_container, load_rows):
        with pytest.raises(Truncated, match=message):
            read(path)
    with pytest.raises(Truncated, match=message):
        parse_container(blob)
    with pytest.raises(CorruptState, match=message):
        load_state(io.BytesIO(blob))


def test_a_stream_that_ends_before_its_size_raises_truncated(labeled):
    path, _, _ = labeled
    data = path.read_bytes()
    stop = 16 + 4 * DIM * (CHUNK_ROWS + 5)  # inside the second chunk
    with pytest.raises(Truncated, match=f"payload ends before row {2 * CHUNK_ROWS}"):
        load_rows(EndsEarly(data, stop))
    with pytest.raises(Truncated):
        read_container(EndsEarly(data, stop))


def test_parse_container_at_an_offset_reads_one_embedded_container():
    first = np.eye(3, 4, dtype=np.float32)
    second = np.eye(2, 5, k=1, dtype=np.float32)
    blob = pack_container(first) + pack_container(second) + b"tail"
    parsed, labels, end = parse_container(blob, 0, allow_labels=False)
    assert parsed.tobytes() == first.tobytes() and labels is None
    parsed, labels, end = parse_container(blob, end, allow_labels=False)
    assert parsed.tobytes() == second.tobytes() and blob[end:] == b"tail"
