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

Each job has one path. Every reader walks a container the same way
(:func:`_walk`): the header, the labels, then the rows in chunks read into
one reused buffer. Every container write, tracker states and ``fiva bench``'s
streamed frames included, goes through one writer (:func:`_container_writer`)
into a file that :func:`_opened` gives: a stream as it is, or a path through
its staged temporary. A scored file, probes or a video, is folded as it is
read, one row at a time, by a dict of row hashes (:func:`_distinct_table`).

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
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    LabelCountMismatch,
    MissingLabels,
    NonFinite,
    NotUnitNorm,
    ShapeMismatch,
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
    _row_blocks,
    _Scratch,
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


def _label_block(labels: Sequence[str] | None, count: int) -> bytes:
    """The encoded label block of ``count`` rows: empty without labels."""
    labels = _check_labels(labels, count)
    return ("\n".join(labels) + "\n" if labels else "").encode("utf-8")


def pack_container(
    matrix: np.ndarray, labels: Sequence[str] | None = None, dim: int | None = None
) -> bytes:
    """Serialize a (count, dim) matrix and optional labels to bytes."""
    stream = io.BytesIO()
    write_container(stream, _coerce_matrix(matrix, dim), labels)
    return stream.getvalue()


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


def _walk(
    stream: BinaryIO, labeled: bool = True
) -> tuple[tuple[int, int], list[str] | None, Callable[[int, int], Iterator[tuple[int, np.ndarray]]]]:
    """The container at ``stream``'s position: its (count, dim) shape and its labels,
    read first, and a function giving its rows ``start`` to ``stop`` in chunks of
    at most ``_BLOCK_ELEMENTS`` bytes (or one row) read into one buffer that every
    call reuses, each with the index of its first row. With ``labeled`` a label
    block runs to the end of the stream; without it the container is one embedded
    in a larger file, and reading its rows to the last leaves the stream one past
    its payload."""
    count, dim, more = _header(stream)
    payload, labels = stream.tell(), None
    if labeled and more:
        stream.seek(payload + 4 * dim * count)
        labels = _parse_label_block(stream.read(), count)
    step = max(1, _BLOCK_ELEMENTS // max(1, 4 * dim))
    chunk = np.empty((min(step, count), dim), "<f4")

    def chunks(start: int, stop: int) -> Iterator[tuple[int, np.ndarray]]:
        stream.seek(payload + 4 * dim * start)
        for first in range(start, stop if dim else start, step):  # zero-width rows hold no bytes
            rows = chunk[: min(step, stop - first)]
            if _readinto(stream, rows) < rows.nbytes:
                raise Truncated(f"payload ends before row {first + len(rows)} of {count}")
            yield first, rows

    return (count, dim), labels, chunks


def _fill(walk, dtype, start: int = 0, stop: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``start`` to ``stop`` (default all) of a :func:`_walk` read into a new
    ``dtype`` matrix, or into ``out`` of that shape, converted a chunk at a time."""
    (count, dim), _, chunks = walk
    stop = count if stop is None else stop
    matrix = np.empty((stop - start, dim), dtype) if out is None else out
    for first, rows in chunks(start, stop):
        matrix[first - start : first - start + len(rows)] = rows
    return matrix


def _check_finite(rows: np.ndarray, first: int = 0) -> None:
    """Raise :class:`NonFinite` naming the first row holding a NaN or infinite
    value, rows counted from ``first``."""
    # min and max are NaN or infinite exactly when some value is, without a mask.
    if rows.size and not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        raise NonFinite(f"row {first + bad[0]} contains a NaN or infinite value")


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
    walk = _walk(stream, allow_labels)
    matrix = _fill(walk, "<f4")
    return matrix, walk[1], len(buf) if allow_labels else stream.tell()


def _parse_label_block(block: bytes, count: int) -> list[str]:
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LabelCountMismatch(f"label block is not valid UTF-8: {exc}") from exc
    if not text.endswith("\n"):
        raise LabelCountMismatch("label block must end with a newline")
    return _check_labels(text.split("\n")[:-1], count)


@contextlib.contextmanager
def _opened(destination: str | Path | BinaryIO) -> Iterator[BinaryIO]:
    """``destination`` as a binary file to write. A file object is used as it is
    given, and a device or pipe is written in place. A path is written through the
    temporary ``.NAME.PID.tmp`` in its directory, which replaces it by ``os.replace``
    when the block exits cleanly, so a failed write leaves the old file whole (a
    symlink's target is replaced). On any exception the temporary is removed, and
    an error naming it names ``destination`` instead."""
    if hasattr(destination, "write"):
        yield destination
        return
    path = Path(destination).resolve()
    if path.exists() and not path.is_file():
        with open(destination, "wb") as fh:  # errors name the path as given
            yield fh
        return
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException as exc:
        temporary.unlink(missing_ok=True)
        if getattr(exc, "filename", None) == str(temporary) and exc.filename2 is None:
            exc.filename = os.fspath(destination)  # name the file the caller asked for
        raise


@contextlib.contextmanager
def _container_writer(
    fh: BinaryIO, count: int, dim: int, labels: Sequence[str] | None = None
) -> Iterator[Callable[[np.ndarray], None]]:
    """A container of ``count`` rows of width ``dim`` and optional ``labels``,
    written to the open binary file ``fh`` as its rows arrive.

    The labels are checked, then the header is written, and the block is given a
    function that writes the next rows, an (n, dim) array or gathered rows,
    converted through one reused float32 buffer of a quarter of a block's cells.
    At a clean exit the rows written must number ``count``; the label block is
    then written.
    """
    block = _label_block(labels, count)
    buffer = np.empty((max(1, min(count, _BLOCK_ELEMENTS // 4 // max(1, dim))), dim), "<f4")
    fh.write(_HEADER.pack(MAGIC, count, dim))
    written = 0

    def write(rows) -> None:
        nonlocal written
        if rows.shape[1:] != (dim,) or written + len(rows) > count:
            raise ShapeMismatch(
                f"rows of shape {rows.shape} after {written} of {count} rows of width {dim}"
            )
        for start in range(0, len(rows), len(buffer)):
            chunk = buffer[: min(len(buffer), len(rows) - start)]
            chunk[...] = rows[start : start + len(buffer)]  # gathered rows are held only while converted
            fh.write(chunk)
        written += len(rows)

    yield write
    if written != count:
        raise ShapeMismatch(f"{written} rows written to a container of {count}")
    fh.write(block)


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
def _payload(
    source: str | Path | BinaryIO,
) -> Iterator[tuple[tuple[int, int], list[str] | None, Callable[[int, int], Iterator]]]:
    """The :func:`_walk` of the embedding file ``source`` while the block runs. A
    stream that cannot seek is read whole first (:func:`_binary_stream`), and a file
    named ``*.csv`` that does not start with the container magic is parsed and
    packed into an in-memory container, so every reader reads one format."""
    with _binary_stream(source) as stream:
        here = stream.tell()
        text = _is_csv(source) and stream.read(len(MAGIC)) != MAGIC
        stream.seek(here)
        yield _walk(io.BytesIO(pack_container(*_parse_csv(stream.read()))) if text else stream)


def read_container(
    source: str | Path | BinaryIO,
) -> tuple[np.ndarray, list[str] | None]:
    """Read one embedding file (binary container or interop CSV).

    Returns the raw (count, dim) float32 matrix and labels (or ``None``).

    Raises:
        NonFinite: if any value is NaN or infinite.
    """
    with _payload(source) as walk:
        matrix = _fill(walk, "<f4")
    _check_finite(matrix)
    return matrix, walk[1]


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
    the binary container (:func:`_container_writer`). Either is written a
    block of rows at a time, after the shape and labels are checked. Labels
    must be non-empty and newline-free.
    """
    arr = _coerce_matrix(matrix)
    if not _is_csv(destination):
        with _opened(destination) as fh, _container_writer(fh, *arr.shape, labels) as write:
            write(arr)
        return
    labels = _check_labels(labels, len(arr))
    with _opened(destination) as fh:
        for part in _row_blocks(arr):
            fh.write(_csv_text(
                row.tolist() if labels is None else [labels[i], *row.tolist()]
                for i, row in enumerate(np.asarray(arr[part], dtype="<f4"), part.start)
            ).encode("utf-8"))


def _checked(
    rows,
    chunks: Iterable[tuple[int, np.ndarray]],
    renormalize: bool,
    keep: Callable[[int, np.ndarray], None] = lambda first, chunk: None,
):
    """``rows``, an embedding file's rows as an array, :class:`_CheckedRows` or
    gathered rows, once their ``chunks``, each with the index of its first row,
    pass the checks every reader makes, in the order it raises them. After the
    file's label errors come the first row holding a NaN or infinite value, a bad
    shape, then the first row off the sphere (with ``renormalize``, the first of
    norm zero). Each chunk that passes, while every row before it has, goes to
    ``keep`` with the index of its first row. A float32 chunk's norms are taken
    from its rows widened into one buffer held for every chunk. With ``renormalize``
    those float64 rows are divided in place by the norms just taken (the bits of
    :func:`fiva.sphere._normalize_rows`), and ``keep`` gets these projections."""
    fault, held = None, _Scratch()
    for first, chunk in chunks:
        _check_finite(chunk, first)
        if fault is None:  # a row off the sphere is known; only a later NaN outranks it
            wide = chunk
            if chunk.dtype != np.float64:
                wide = held("wide", chunk.shape)
                wide[...] = chunk
            try:
                norms = _check_norms(wide, "row", renormalize, first=first)
            except (NotUnitNorm, ZeroVector) as exc:
                fault = exc
            else:
                keep(first, np.divide(wide, norms[:, None], out=wide) if renormalize else chunk)
    rows = _as_rows(rows, "embedding")
    if fault:
        raise fault
    return rows


@contextlib.contextmanager
def _open_rows(
    source: str | Path | BinaryIO, renormalize: bool = False
) -> Iterator[tuple[_CheckedRows, list[str] | None]]:
    """The rows and labels of an embedding file as :func:`load_rows` gives them,
    the rows served a slice at a time from the file while the block runs.

    One chunked pass (:func:`_payload`) checks the whole file first and raises
    what :func:`load_rows` raises, in its order (:func:`_checked`), naming rows by
    their index in the file. Each slice served is checked again as it is read, so
    a file changed in the meantime raises the same errors, and with
    ``renormalize`` projected in place by the norms its check took. Slices are
    read into one float64 buffer held while the block runs, grown to the largest
    slice asked for: a slice holds its rows until the next slice is read. A slice
    read by ``read(start, stop, out)`` goes straight into ``out``, a float64
    array of its shape that the caller keeps.
    """
    with _payload(source) as walk:
        (count, dim), labels, chunks = walk
        held = _Scratch()

        def read(start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
            rows = _fill(walk, np.float64, start, stop, held("rows", (stop - start, dim)) if out is None else out)
            return _checked(rows, [(start, rows)], renormalize)

        try:
            yield _checked(_CheckedRows((count, dim), read), chunks(0, count), renormalize), labels
        finally:
            del walk, held  # the buffers go with the block: its rows are served only inside it


def _distinct_table(source, renormalize: bool = False) -> tuple[_Take, list[str] | None]:
    """The rows and labels of a scored embedding file, each distinct row held once:
    folded gathered rows whose table holds the file's bit-distinct rows in order of
    first appearance, and whose index gives each row's copy among them.

    The rows are folded in the one chunked pass that checks them (:func:`_checked`
    over :func:`_payload`), so the errors and their order are :func:`load_rows`'s.
    Each row, at the width the file stores or, with ``renormalize``, as the float64
    projection the check made, is looked up by the hash of its bytes in a dict that
    gives the code of the first row to claim that hash, and a hit counts only if
    that row's bytes are its bytes. A row whose hash another row holds is looked up
    by its bytes in a second dict. A row found in neither is new: it takes the next
    code and is written behind the rows kept so far. So the fold is exact whatever
    the hashes, and its codes follow first appearance. The dicts cost about 100
    bytes per distinct row, a few percent of a 512-wide float32 row. The table of
    rows is sized for every row and filled from the front, so the pages of rows a
    repeating file never keeps are never written. Rows narrower than 2 fold to
    nothing and size nothing by their count: their shape error comes once every
    chunk is checked."""
    with _payload(source) as ((count, dim), labels, chunks):
        table = np.empty((count if dim > 1 else 0, dim), np.float64 if renormalize else "<f4")
        index = np.empty(count, np.intp) if dim > 1 else np.broadcast_to(np.intp(0), count)
        codes, spilled, kept = {}, {}, 0

        def keep(start: int, chunk: np.ndarray) -> None:
            nonlocal kept
            if dim < 2:
                return
            for i, row in enumerate(chunk, start):
                key = row.tobytes()
                code = codes.setdefault(hash(key), kept)
                if code < kept and table[code].tobytes() != key:  # another row holds its hash
                    code = spilled.setdefault(key, kept)
                if code == kept:
                    table[kept] = row
                    kept += 1
                index[i] = code

        _checked(_Take(table, index), chunks(0, count), renormalize, keep)
    table.flags.writeable = False
    return _Take(table[:kept], index, folded=True), labels


def load_rows(
    source: str | Path | BinaryIO, renormalize: bool = False
) -> tuple[np.ndarray, list[str] | None]:
    """Read an embedding file as a read-only float64 (count, dim) array of unit rows.

    The file is read whole once into the float64 result and :func:`_checked` as
    one chunk from memory; with ``renormalize`` the rows are projected in place by
    the norms the check took, so the rows are held once. Returns the rows and the
    labels (or ``None``). :class:`Gallery` and :class:`AnchorSet` keep these rows
    without a copy.
    """
    with _payload(source) as walk:
        rows = _fill(walk, np.float64)
    rows = _checked(rows, [(0, rows)], renormalize)
    rows.flags.writeable = False
    return rows, walk[1]


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
    with _opened(destination) as fh:
        fh.write(header)
        fh.write(raster)
