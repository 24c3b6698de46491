"""Readers and writers for the fiva file formats, independent of ``fiva.io``.

The benchmark writes its inputs and checks the program's outputs with this
module, so a defect in the program's reader cannot hide one in its writer.
Layouts follow the README: a ``FIVAEMB1`` container is a little-endian
header (magic, u32 count, u32 dim), float32 rows, then an optional block of
newline-terminated labels; a tracker state file is two label-free
containers followed by threshold (f32), margin (f32) and key pointer (u32).
"""

from __future__ import annotations

import csv
import shutil
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

MAGIC = b"FIVAEMB1"
_HEADER = struct.Struct("<8sII")
_TRAILER = struct.Struct("<ffI")


class CheckFailed(Exception):
    """An output of the program disagrees with what the benchmark expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def fresh(path: Path) -> Path:
    """Remove ``path`` (a file or a directory tree) if it exists.

    Outputs are always written as new files: on ext4, truncating a file
    whose earlier contents are still being written back stalls the writer
    at disk speed, which would time the previous pass's writes.
    """
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)
    return path


def write_container(
    path: Path, matrix: np.ndarray, labels: Sequence[str] | None = None
) -> None:
    rows = np.ascontiguousarray(matrix, dtype="<f4")
    parts = [_HEADER.pack(MAGIC, *rows.shape), rows.tobytes()]
    if labels is not None:
        parts.append("".join(f"{label}\n" for label in labels).encode("utf-8"))
    fresh(path)
    path.write_bytes(b"".join(parts))


def _parse(buf: bytes, offset: int, labeled: bool):
    expect(len(buf) - offset >= _HEADER.size, "container shorter than its header")
    magic, count, dim = _HEADER.unpack_from(buf, offset)
    expect(magic == MAGIC, f"bad container magic {magic!r}")
    body = offset + _HEADER.size
    end = body + count * dim * 4
    expect(end <= len(buf), f"container payload of {count}x{dim} is truncated")
    matrix = np.frombuffer(buf, "<f4", count * dim, body).reshape(count, dim)
    labels = None
    if labeled and end < len(buf):
        text = buf[end:].decode("utf-8")
        expect(text.endswith("\n"), "label block does not end with a newline")
        labels = text.split("\n")[:-1]
        expect(len(labels) == count, f"{len(labels)} labels for {count} rows")
        end = len(buf)
    return matrix.astype(np.float64), labels, end


def read_container(path: Path) -> tuple[np.ndarray, list[str] | None]:
    """Rows widened to float64, and the labels or ``None``."""
    matrix, labels, _ = _parse(path.read_bytes(), 0, labeled=True)
    return matrix, labels


def read_state(path: Path) -> tuple[np.ndarray, np.ndarray, tuple[float, float, int]]:
    """Stored rows, fake rows and (threshold, margin, key pointer)."""
    buf = path.read_bytes()
    stored, _, offset = _parse(buf, 0, labeled=False)
    fakes, _, offset = _parse(buf, offset, labeled=False)
    expect(len(buf) - offset == _TRAILER.size, "state trailer has the wrong size")
    return stored, fakes, _TRAILER.unpack_from(buf, offset)


def read_csv(path: Path, header: str) -> list[list[str]]:
    """Data rows of a report CSV whose first line must equal ``header``."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    expect(bool(rows) and ",".join(rows[0]) == header, f"{path.name}: bad header")
    return rows[1:]


def column(rows: list[list[str]], index: int, kind=str) -> np.ndarray:
    return np.array([kind(row[index]) for row in rows])
