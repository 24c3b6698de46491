"""File formats: binary embedding containers, CSV interop, and PPM images.

Embedding container layout, all integers little-endian:

    offset 0   magic bytes ``FIVAEMB1``
    offset 8   u32 count
    offset 12  u32 dim
    offset 16  count * dim IEEE-754 binary32 values, row-major
    then       optional label block: count newline-terminated UTF-8 lines

The label block is detected by its presence: bytes after the payload are
labels, a file ending at the payload has none. Round trips are bit-exact
because payloads pass through untouched single-precision values.

CSV files (suffix ``.csv``) are accepted for interop: one row per
embedding, optional leading label column, numeric cells parsed as
single-precision values. A CSV file is packed into an in-memory container
where it is opened, then read like one.

Images travel as binary netpbm rasters with maxval 255: P6 for 3-channel,
P5 for single-channel. Reading maps byte b to b / 255; writing maps v to
round(v * 255) with ties to even.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import re
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    LabelCountMismatch,
    MissingLabels,
    NonFinite,
    NotUnitNorm,
    Truncated,
    UnsupportedFormat,
    ZeroVector,
)
from .gallery import Gallery, LabeledEmbedding
from .sphere import (
    _BLOCK_ELEMENTS,
    Embedding,
    _as_rows,
    _check_norms,
    _CheckedRows,
    _normalize_rows,
    _row_blocks,
    _stack,
    _Take,
)

__all__ = [
    "MAGIC",
    "pack_container",
    "parse_container",
    "read_container",
    "write_container",
    "load_rows",
    "load_labeled_rows",
    "load_embeddings",
    "load_labeled_embeddings",
    "load_gallery",
    "write_embeddings",
    "read_image_ppm",
    "write_image_ppm",
]

MAGIC = b"FIVAEMB1"

_HEADER = struct.Struct("<8sII")

# Errors a container parse can raise; callers embedding containers inside
# larger files (tracker state) catch this to re-map them.
ContainerError = (BadMagic, Truncated, LabelCountMismatch)


def _coerce_matrix(matrix: np.ndarray, dim: int | None = None) -> np.ndarray | _Take:
    """``matrix`` as a 2-D array of any dtype: a 1-D one is one row, and an
    empty one is ``(0, dim)`` when ``dim`` is given. Gathered rows pass as they are."""
    if isinstance(matrix, _Take):
        return matrix
    arr = np.asarray(matrix)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionMismatch(
            f"embedding matrix must be 2-D, got shape {arr.shape}"
        )
    if dim is not None and arr.shape[0] == 0:
        arr = arr.reshape(0, dim)
    return arr


def _check_labels(labels: Sequence[str] | None, count: int) -> list[str] | None:
    """Labels as a list of ``count`` non-empty single-line strings, or ``None``."""
    if labels is None:
        return None
    labels = list(labels)
    if len(labels) != count:
        raise LabelCountMismatch(f"{len(labels)} labels for {count} embeddings")
    for label in labels:
        # splitlines() knows every line break the CSV reader splits on.
        if label.splitlines() != [label]:
            raise LabelCountMismatch(
                f"labels must be non-empty and newline-free, got {label!r}"
            )
    return labels


def _container(
    matrix: np.ndarray, labels: Sequence[str] | None = None, dim: int | None = None
) -> tuple[np.ndarray, bytes]:
    """One container's checked 2-D rows and encoded label block."""
    arr = _coerce_matrix(matrix, dim)
    labels = _check_labels(labels, len(arr))
    return arr, ("\n".join(labels) + "\n" if labels else "").encode("utf-8")


def _packed(containers: Sequence[tuple[np.ndarray, bytes]], tail: bytes = b"") -> Iterator:
    """The file's bytes in order: each :func:`_container`'s header, its rows as
    float32 a block of at most ``_BLOCK_ELEMENTS`` cells at a time, and its label
    block; then ``tail``. Row blocks share one buffer, so a piece is good only
    until the next one is taken."""
    buffer = np.empty(0, "<f4")
    for arr, block in containers:
        count, dim = arr.shape
        yield _HEADER.pack(MAGIC, count, dim)
        for part in _row_blocks(arr):
            rows = min(part.stop, count) - part.start
            if buffer.size < rows * dim:
                buffer = np.empty(rows * dim, "<f4")
            chunk = buffer[: rows * dim].reshape(rows, dim)
            chunk[...] = arr[part]  # gathered rows are held only while converted
            yield chunk
        yield block
    yield tail


def pack_container(
    matrix: np.ndarray, labels: Sequence[str] | None = None, dim: int | None = None
) -> bytes:
    """Serialize a (count, dim) matrix and optional labels to bytes."""
    return b"".join(map(bytes, _packed([_container(matrix, labels, dim)])))


@contextlib.contextmanager
def _binary_stream(source: str | Path | BinaryIO) -> Iterator[BinaryIO]:
    """``source`` as a seekable binary stream at its current position: a path is
    opened, and a stream that cannot seek or ``readinto`` (a pipe, say) is read
    whole first."""
    if not hasattr(source, "read"):
        with open(source, "rb") as opened, _binary_stream(opened) as stream:
            yield stream
    elif hasattr(source, "readinto") and getattr(source, "seekable", bool)():
        yield source
    else:
        yield io.BytesIO(source.read())


def _remaining(stream: BinaryIO) -> int:
    here = stream.tell()
    end = stream.seek(0, os.SEEK_END)
    stream.seek(here)
    return end - here


def _readinto(stream: BinaryIO, buffer) -> int:
    """Fill ``buffer`` from ``stream`` through short reads; the bytes filled,
    fewer only at end of stream."""
    view = memoryview(buffer).cast("B")
    filled = 0
    while filled < len(view):
        got = stream.readinto(view[filled:])
        if not got:
            break
        filled += got
    return filled


def _header(stream: BinaryIO) -> tuple[int, int, bool]:
    """One container's row count and dimension from the header at ``stream``'s
    position, and whether bytes follow its payload. The declared payload is
    checked against the bytes left before anything is allocated."""
    remaining = _remaining(stream)
    head = bytearray(_HEADER.size)
    got = _readinto(stream, head)
    if got < len(MAGIC):
        raise Truncated(
            f"file ends after {remaining} bytes, before the {len(MAGIC)}-byte magic"
        )
    if head[: len(MAGIC)] != MAGIC:
        raise BadMagic(f"bad magic {bytes(head[: len(MAGIC)])!r}, expected {MAGIC!r}")
    if got < _HEADER.size:
        raise Truncated(f"header needs {_HEADER.size} bytes, found {remaining}")
    _, count, dim = _HEADER.unpack(head)
    payload_bytes = count * dim * 4
    remaining -= _HEADER.size
    if remaining < payload_bytes:
        raise Truncated(
            f"payload needs {payload_bytes} bytes for {count}x{dim} values, "
            f"found {remaining}"
        )
    return count, dim, remaining > payload_bytes


def _chunks(
    stream: BinaryIO, count: int, dim: int, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Rows ``start`` to ``stop`` (default ``count``) of a payload of ``count``
    float32 rows, the stream at row ``start``, in chunks of at most
    ``_BLOCK_ELEMENTS`` bytes (or one row) read into one reused buffer, each
    with the index of its first row."""
    stop = count if stop is None else stop
    step = max(1, _BLOCK_ELEMENTS // max(1, 4 * dim))
    chunk = np.empty((min(step, stop - start), dim), "<f4")
    for first in range(start, stop if dim else start, step):  # zero-width rows hold no bytes
        rows = chunk[: min(step, stop - first)]
        if _readinto(stream, rows) < rows.nbytes:
            raise Truncated(f"payload ends before row {first + len(rows)} of {count}")
        yield first, rows


def _fill(
    chunks: Iterable[tuple[int, np.ndarray]], matrix: np.ndarray, start: int = 0
) -> np.ndarray:
    """``matrix`` filled from ``chunks`` of rows counted from ``start``, converted
    a chunk at a time."""
    for first, rows in chunks:
        matrix[first - start : first - start + len(rows)] = rows
    return matrix


def _check_finite(rows: np.ndarray, first: int = 0) -> None:
    """Raise :class:`NonFinite` naming the first row holding a NaN or infinite
    value, rows counted from ``first``."""
    # min and max are NaN or infinite exactly when some value is, without a mask.
    if rows.size and not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        raise NonFinite(f"row {first + bad[0]} contains a NaN or infinite value")


def _read_rows(
    stream: BinaryIO, dtype, allow_labels: bool
) -> tuple[np.ndarray, list[str] | None]:
    """Read one container from ``stream``'s position as a ``dtype`` matrix,
    holding the result and one chunk. With ``allow_labels`` the label block
    runs to the end of the stream; otherwise the stream is left one past the
    payload."""
    count, dim, more = _header(stream)
    matrix = _fill(_chunks(stream, count, dim), np.empty((count, dim), dtype))
    labels = _parse_label_block(stream.read(), count) if allow_labels and more else None
    return matrix, labels


def parse_container(
    buf: bytes, offset: int = 0, allow_labels: bool = True
) -> tuple[np.ndarray, list[str] | None, int]:
    """Parse one container from ``buf`` at ``offset``.

    Returns the (count, dim) float32 matrix, the labels (or ``None``), and
    the offset one past the parsed bytes. With ``allow_labels`` the label
    block is assumed to run to the end of the buffer; embedded containers
    must pass ``allow_labels=False``.
    """
    stream = io.BytesIO(buf)
    stream.seek(offset)
    matrix, labels = _read_rows(stream, "<f4", allow_labels)
    return matrix, labels, stream.tell()


def _parse_label_block(block: bytes, count: int) -> list[str]:
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LabelCountMismatch(f"label block is not valid UTF-8: {exc}") from exc
    if not text.endswith("\n"):
        raise LabelCountMismatch("label block must end with a newline")
    return _check_labels(text.split("\n")[:-1], count)


def _write_file(path: str | Path, pieces: Iterable) -> None:
    """Create or truncate the file at ``path`` and write ``pieces`` to it in order."""
    with open(path, "wb") as fh:
        fh.writelines(pieces)


def _write(destination: str | Path | BinaryIO, pieces: Iterable) -> None:
    """Write ``pieces`` (bytes-like, each written before the next is taken) to a
    file object, or to a path through a temporary file in its directory and
    ``os.replace``, so a failed write leaves the old file whole. Devices and
    pipes are written in place; a symlink's target is replaced."""
    if hasattr(destination, "write"):
        for piece in pieces:
            destination.write(piece)
        return
    path = Path(destination).resolve()
    if path.exists() and not path.is_file():
        _write_file(destination, pieces)  # errors name the path as given
        return
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        _write_file(temporary, pieces)
        os.replace(temporary, path)
    except BaseException as exc:
        temporary.unlink(missing_ok=True)
        if getattr(exc, "filename", None) == str(temporary) and exc.filename2 is None:
            exc.filename = os.fspath(destination)  # name the file the caller asked for
        raise


def _parse_csv(data: bytes) -> tuple[np.ndarray, list[str] | None]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UnsupportedFormat(f"CSV payload is not valid UTF-8: {exc}") from exc
    rows: list[list[float]] = []
    labels: list[str] = []
    labeled: bool | None = None
    try:
        for line_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            if not row:
                continue
            try:
                float(row[0])
                has_label = False
            except ValueError:
                has_label = True
            if labeled is None:
                labeled = has_label
            elif labeled != has_label:
                raise UnsupportedFormat(
                    f"line {line_no}: mixed labeled and unlabeled CSV rows"
                )
            cells = row[1:] if has_label else row
            if has_label:
                labels.append(row[0])
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise UnsupportedFormat(f"line {line_no}: non-numeric cell: {exc}") from exc
            if len(rows[-1]) != len(rows[0]):
                raise UnsupportedFormat(
                    f"line {line_no}: {len(rows[-1])} values, expected {len(rows[0])}"
                )
    except csv.Error as exc:  # e.g. a cell beyond the csv module's field size limit
        raise UnsupportedFormat(f"malformed CSV: {exc}") from exc
    if not rows:
        raise UnsupportedFormat("CSV file contains no embedding rows")
    with np.errstate(over="ignore"):  # overflow to inf is reported as NonFinite
        matrix = np.asarray(rows, dtype="<f4")
    return matrix, (_check_labels(labels, len(rows)) if labeled else None)


def _is_csv(target: str | Path | BinaryIO) -> bool:
    """Whether ``target``, a path or a stream, is named ``*.csv``."""
    return str(getattr(target, "name", target)).lower().endswith(".csv")


@contextlib.contextmanager
def _embedding_stream(source: str | Path | BinaryIO) -> Iterator[BinaryIO]:
    """The embedding file ``source`` as :func:`_binary_stream` gives it, except
    that a file named ``*.csv`` that does not start with the container magic is
    parsed and packed into an in-memory container, so every reader reads one
    format."""
    with _binary_stream(source) as stream:
        here = stream.tell()
        text = _is_csv(source) and stream.read(len(MAGIC)) != MAGIC
        stream.seek(here)
        yield io.BytesIO(pack_container(*_parse_csv(stream.read()))) if text else stream


def read_container(
    source: str | Path | BinaryIO,
) -> tuple[np.ndarray, list[str] | None]:
    """Read one embedding file (binary container or interop CSV).

    Returns the raw (count, dim) float32 matrix and labels (or ``None``).

    Raises:
        NonFinite: if any value is NaN or infinite.
    """
    with _embedding_stream(source) as stream:
        matrix, labels = _read_rows(stream, "<f4", allow_labels=True)
    _check_finite(matrix)
    return matrix, labels


def _csv_text(rows: Iterable[Sequence]) -> str:
    """CSV lines of ``rows`` of Python scalars (a float64 scalar passes too), each
    cell quoted only where CSV needs it. ``csv.writer`` writes a float by ``str``,
    which is its ``repr``, so every float reads back as the value written."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def write_container(
    destination: str | Path | BinaryIO,
    matrix: np.ndarray,
    labels: Sequence[str] | None = None,
) -> None:
    """Write a (count, dim) matrix and optional labels.

    A ``.csv`` destination gets interop CSV (single-precision values
    rendered exactly, labels quoted where CSV needs it); anything else gets
    the binary container. Either is written a block of rows at a time, after
    the shape and labels are checked. Labels must be non-empty and newline-free.
    """
    if _is_csv(destination):
        arr = _coerce_matrix(matrix)
        labels = _check_labels(labels, len(arr))
        pieces = (
            _csv_text(
                row.tolist() if labels is None else [labels[i], *row.tolist()]
                for i, row in enumerate(np.asarray(arr[part], dtype="<f4"), part.start)
            ).encode("utf-8")
            for part in _row_blocks(arr)
        )
    else:
        pieces = _packed([_container(matrix, labels)])
    _write(destination, pieces)


def _checked(rows, chunks: Iterable[tuple[int, np.ndarray]], renormalize: bool):
    """``rows``, an embedding file's rows as an array or as :class:`_CheckedRows`,
    once their ``chunks``, each with the index of its first row, pass the checks
    every reader makes, in the order it raises them. After the file's label
    errors come the first row holding a NaN or infinite value, a bad shape, then
    the first row off the sphere (with ``renormalize``, the first of norm zero)."""
    fault = None
    for first, chunk in chunks:
        _check_finite(chunk, first)
        if fault is None:  # a row off the sphere is known; only a later NaN outranks it
            try:
                _check_norms(chunk.astype(np.float64, copy=False), "row", renormalize, first=first)
            except (NotUnitNorm, ZeroVector) as exc:
                fault = exc
    rows = _as_rows(rows, "embedding")
    if fault:
        raise fault
    return rows


def _unit_file(
    source: str | Path | BinaryIO, dtype, renormalize: bool
) -> tuple[np.ndarray, list[str] | None]:
    """The embedding file ``source`` read whole as a ``dtype`` matrix and
    :func:`_checked` a block at a time from memory. The rows come back
    read-only, as ``dtype`` rows, or as float64 projections with ``renormalize``."""
    with _embedding_stream(source) as stream:
        matrix, labels = _read_rows(stream, dtype, allow_labels=True)
    rows = _checked(matrix, ((part.start, matrix[part]) for part in _row_blocks(matrix)), renormalize)
    rows = _normalize_rows(rows, "row") if renormalize else rows
    rows.flags.writeable = False
    return rows, labels


@contextlib.contextmanager
def _open_rows(
    source: str | Path | BinaryIO, renormalize: bool = False
) -> Iterator[tuple[_CheckedRows, list[str] | None]]:
    """The rows and labels of an embedding file as :func:`load_rows` gives them,
    the rows served a slice at a time from the file while the block runs.

    One chunked pass checks the whole file first and raises what
    :func:`load_rows` raises, in its order (:func:`_checked`), naming rows by
    their index in the file. Each slice served is checked again as it is read, so
    a file changed in the meantime raises the same errors. A stream that cannot
    seek is read whole first, and a CSV file is packed into a container
    (:func:`_embedding_stream`).
    """
    with _embedding_stream(source) as stream:
        count, dim, more = _header(stream)
        payload, labels = stream.tell(), None
        if more:
            stream.seek(payload + 4 * dim * count)
            labels = _parse_label_block(stream.read(), count)

        def chunks(start: int, stop: int) -> Iterator[tuple[int, np.ndarray]]:
            stream.seek(payload + 4 * dim * start)
            return _chunks(stream, count, dim, start, stop)

        def read(start: int, stop: int) -> np.ndarray:
            rows = _fill(chunks(start, stop), np.empty((stop - start, dim)), start)
            rows = _checked(rows, [(start, rows)], renormalize)
            return _normalize_rows(rows, "row") if renormalize else rows

        yield _checked(_CheckedRows((count, dim), read), chunks(0, count), renormalize), labels


def load_rows(
    source: str | Path | BinaryIO, renormalize: bool = False
) -> tuple[np.ndarray, list[str] | None]:
    """Read an embedding file as a read-only float64 (count, dim) array of unit rows.

    The file is read whole once into the float64 result and checked from
    memory (see :func:`_unit_file`). Returns the rows and the labels (or
    ``None``). :class:`Gallery` and :class:`AnchorSet` keep these rows without
    a copy.
    """
    return _unit_file(source, np.float64, renormalize)


def _load_table(source, renormalize: bool = False) -> tuple[np.ndarray, list[str] | None]:
    """:func:`load_rows` at the width the file stores: the rows as a read-only
    float32 (count, dim) array. With ``renormalize`` the rows are
    :func:`load_rows`'s float64 projections."""
    return _unit_file(source, np.float64 if renormalize else "<f4", renormalize)


def _labeled(source, loaded: tuple) -> tuple[np.ndarray, list[str]]:
    """The rows and labels ``loaded`` from ``source``, which must carry a label per row."""
    rows, labels = loaded
    if labels is None:
        raise MissingLabels(f"{getattr(source, 'name', source)} has no label block")
    return rows, labels


def load_labeled_rows(
    source: str | Path | BinaryIO, renormalize: bool = False
) -> tuple[np.ndarray, list[str]]:
    """:func:`load_rows` for a file that must carry a label per row."""
    return _labeled(source, load_rows(source, renormalize))


def load_embeddings(
    source: str | Path | BinaryIO, renormalize: bool = False
) -> list[Embedding]:
    """Read an embedding file as unit embeddings, ignoring labels."""
    return [Embedding(row) for row in load_rows(source, renormalize)[0]]


def load_labeled_embeddings(
    source: str | Path | BinaryIO, renormalize: bool = False
) -> list[LabeledEmbedding]:
    """Read an embedding file that must carry a label per row."""
    rows, labels = load_labeled_rows(source, renormalize)
    return [LabeledEmbedding(label, Embedding(row)) for label, row in zip(labels, rows)]


def load_gallery(
    source: str | Path | BinaryIO, renormalize: bool = False
) -> Gallery:
    """Read a labeled embedding file as a retrieval gallery."""
    return Gallery(*load_labeled_rows(source, renormalize))


def write_embeddings(
    destination: str | Path | BinaryIO,
    embeddings: Iterable[Embedding],
    labels: Sequence[str] | None = None,
) -> None:
    """Write a list of embeddings (and optional labels) to one file."""
    write_container(destination, _stack(list(embeddings)), labels)


# --- netpbm images ---------------------------------------------------------

# One header token: a whitespace run, a comment to the end of its line, or a number.
_PNM_TOKEN = re.compile(rb"\s+|#[^\n]*\n?|(\d+)")


def read_image_ppm(source: str | Path | BinaryIO) -> np.ndarray:
    """Read a binary netpbm image as an (H, W, C) float array in [0, 1].

    P6 yields C = 3, P5 yields C = 1. Only maxval 255 is supported; plain
    (ASCII) variants and other maxvals raise :class:`UnsupportedFormat`.
    """
    with _binary_stream(source) as stream:
        data = stream.read()
    if len(data) < 2:
        raise Truncated("file too short for a netpbm magic")
    magic = data[:2]
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise UnsupportedFormat(
            f"unsupported netpbm magic {magic!r}; only binary P5/P6 are readable"
        )
    pos, fields = 2, []
    while len(fields) < 3:
        if pos >= len(data):
            raise Truncated("header ends before width, height, and maxval")
        token = _PNM_TOKEN.match(data, pos)
        if token is None:
            raise UnsupportedFormat(
                f"unexpected header byte {data[pos : pos + 1]!r} at offset {pos}"
            )
        pos = token.end()
        if token[1]:
            try:
                fields.append(int(token[1]))
            except ValueError as exc:  # beyond Python's int-string digit limit
                raise UnsupportedFormat(f"{len(token[1])}-digit header number") from exc
    width, height, maxval = fields
    if maxval != 255:
        raise UnsupportedFormat(f"only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise UnsupportedFormat(f"bad raster size {width}x{height}")
    # Exactly one whitespace byte separates maxval from the raster.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise Truncated("missing whitespace between header and raster")
    pos += 1
    need = width * height * channels
    raster = data[pos:]
    if len(raster) < need:
        raise Truncated(f"raster needs {need} bytes, found {len(raster)}")
    if len(raster) > need:
        raise UnsupportedFormat(f"{len(raster) - need} trailing bytes after raster")
    values = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / 255.0
    return values.reshape(height, width, channels)


def write_image_ppm(destination: str | Path | BinaryIO, image: np.ndarray) -> None:
    """Write an (H, W, C) float image in [0, 1] as binary P6 (or P5 if C=1)."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise DimensionMismatch(
            f"image must be (H, W, C) with C in {{1, 3}}, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("image values must be finite and within [0, 1]")
    height, width, channels = arr.shape
    magic = b"P6" if channels == 3 else b"P5"
    header = magic + f"\n{width} {height}\n255\n".encode("ascii")
    raster = np.rint(arr * 255.0).astype(np.uint8).tobytes(order="C")
    _write(destination, (header, raster))
