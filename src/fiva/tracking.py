"""Identity tracking: one consistent fake identity per real identity.

The tracker keeps every first-contact embedding it has seen. Frames are
scored in blocks: one nearest-row search gives each frame of a block its
key and distance in the store as it stood at block start, then the block
is walked in order. A frame whose best distance is below the match
threshold returns the fake identity minted at first contact. An unmatched
frame is appended to the store and gets a fresh fake from the sampler; one
matrix-vector product hands it each later frame of the block that it
clearly beats. A frame it beats only within rounding, or whose best
distance lies within rounding of the threshold, is scored again on its own
against the store at its size, so blocked tracking takes exactly the
decisions of tracking one frame at a time. Keys are assigned by an
increasing pointer, so key k always means "the k-th distinct identity this
tracker has seen".

Embeddings are quantized to single precision when they enter the store,
and fakes are held at that precision. The persisted state file stores
single-precision payloads, so quantizing at insertion makes a save/load
cycle reproduce the live state bit for bit.
"""

from __future__ import annotations

import math
import mmap
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable, Optional

import numpy as np

from . import io as fio
from .errors import (
    CorruptState,
    DimensionMismatch,
    EmptyAnchorSet,
    IoFailure,
    NotUnitNorm,
    ShapeMismatch,
)
from .sampling import _f32_margin, sample_batch
from .sphere import (
    _BLOCK_ELEMENTS,
    _BLOCK_ROWS,
    DEFAULT_MATCH_THRESHOLD,
    AnchorSet,
    Embedding,
    _block_products,
    _CheckedRows,
    _nearest,
    _row_blocks,
    _Scratch,
    _Take,
    _tie,
    _unit_matrix,
)

__all__ = [
    "DEFAULT_MATCH_THRESHOLD",
    "TrackResult",
    "TrackerState",
    "save_state",
    "load_state",
]

# Trailer appended after the two embedding blocks of a state file.
_TRAILER = struct.Struct("<ffI")

# Unit-norm slack allowed when validating reloaded state; single-precision
# storage can add ~1e-7 on top of the live tolerance.
_LOAD_NORM_TOL = 1e-5


@dataclass(frozen=True)
class TrackResult:
    """Outcome of tracking one frame embedding.

    ``match_distance`` is the best cosine distance found in the store:
    below threshold when matched, at or above it when a new identity was
    minted, ``None`` on the very first contact of an empty tracker.
    """

    fake_identity: Embedding
    matched: bool
    key: int
    match_distance: Optional[float]


def _mapped(count: int, dim: int, dtype) -> np.ndarray:
    """A (count, dim) ``dtype`` array in an anonymous mapping of its own. The
    kernel gives each page, zeroed, when it is first written, and unmaps it once
    no array holds it: the store never frees a malloc chunk, whose release would
    move the allocator's mmap threshold and send later buffers to its heap."""
    dtype = np.dtype(dtype)
    buffer = mmap.mmap(-1, max(1, count * dim * dtype.itemsize))
    return np.frombuffer(buffer, dtype, count * dim).reshape(count, dim)


def _grown(rows: np.ndarray, used: int, capacity: int, dim: int, dtype=None) -> np.ndarray:
    """A (capacity, dim) mapped buffer of ``dtype`` (default ``rows``') holding ``rows``' first ``used`` rows."""
    grown = _mapped(capacity, dim, rows.dtype if dtype is None else dtype)
    if used:
        grown[:used] = rows[:used]
    return grown


class TrackerState:
    """Mutable store mapping seen identities to their fake identities.

    Row k of the store holds the first-contact embedding and the fake of
    key k, so ``len(stored) == len(fakes) == key_pointer`` by construction.

    Args:
        threshold: cosine-distance match threshold, strictly inside (0, 2).
            Quantized to single precision so persistence is lossless.
        margin: sampling margin forwarded to the anchor sampler.
        anchors: anchor set used to mint fake identities, or rows checked in
            their file (:func:`fiva.io._open_rows`), read into one at the first
            mint (see :meth:`_anchor_set`).
            May be ``None`` for match-only use; minting then raises
            :class:`EmptyAnchorSet`.
        sampler: optional override mapping the read-only (M, D) stored rows of
            one call's new identities, in key order, to their (M, D) fakes.
            When given, ``anchors``/``margin`` are bypassed. Not persistable.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_MATCH_THRESHOLD,
        margin: float = 0.0,
        anchors: AnchorSet | _CheckedRows | None = None,
        sampler: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self.threshold = threshold
        self.margin = margin
        self.anchors = anchors
        self.sampler = sampler
        self.key_pointer = 0
        # Capacity-doubling (capacity, D) buffers indexed by key; rows at and
        # past key_pointer are unused. The stored rows are float64, the operand
        # every lookup product takes at its width (float32 from a first mint from
        # anchors read from their file to the next track_rows call); the fakes are
        # float32, the width every mint rounds them to, and are only gathered and written.
        self._stored = np.empty((0, 0), dtype=np.float64)
        self._fakes = np.empty((0, 0), dtype=np.float32)

    def __len__(self) -> int:
        return self.key_pointer

    @property
    def threshold(self) -> float:
        return self._threshold

    @threshold.setter
    def threshold(self, value: float) -> None:
        rounded = float(np.float32(value))
        if not 0.0 < rounded < 2.0:
            raise ValueError(f"match threshold must be in (0, 2), got {value}")
        self._threshold = rounded

    @property
    def margin(self) -> float:
        return self._margin

    @margin.setter
    def margin(self, value: float) -> None:
        self._margin = _f32_margin(value)

    @property
    def stored(self) -> tuple[Embedding, ...]:
        """First-contact embeddings in key order."""
        return tuple(Embedding(row) for row in self._stored[: self.key_pointer])

    @property
    def fakes(self) -> tuple[Embedding, ...]:
        """Fake identities in key order."""
        return tuple(Embedding(row) for row in self._fakes[: self.key_pointer])

    @property
    def fake_matrix(self) -> np.ndarray:
        """Fake identities in key order as a read-only float32 (key_pointer, D) array."""
        view = self._fakes[: self.key_pointer]
        view.flags.writeable = False
        return view

    @property
    def dim(self) -> int | None:
        if self.key_pointer:
            return self._stored.shape[1]
        if self.anchors is not None and len(self.anchors):
            return self.anchors.dim
        return None

    def _reserve(self, used: int, dim: int) -> None:
        """Make room for row ``used``, keeping the stored rows ``[0, used)`` and the
        fakes of keys ``[0, key_pointer)``: the fakes past them are not minted yet.
        The buffers grow one after the other, so a growth copies one at a time."""
        if used < len(self._stored):
            return
        capacity = max(16, 2 * used)
        self._stored = _grown(self._stored, used, capacity, dim)
        self._fakes = _grown(self._fakes, self.key_pointer, capacity, dim)

    def _anchor_set(self, used: int) -> AnchorSet:
        """The anchor set to mint from while stored rows ``[0, used)`` are in use.

        Anchors checked in their file are read at the first mint, straight into
        the float64 array the anchor set keeps, and checked again as they are
        read. Just before, the stored rows are rewritten at file width into a
        fresh mapping, exact as each holds float32 values, so the anchors never
        sit beside float64 stored rows; the next :meth:`track_rows` widens them.
        """
        if self.anchors is None:
            raise EmptyAnchorSet(
                "tracker has no anchor set attached; cannot mint a fake identity"
            )
        if isinstance(self.anchors, _CheckedRows):
            self._stored = _grown(self._stored, used, *self._stored.shape, np.float32)
            self.anchors = AnchorSet(self.anchors)
        return self.anchors

    def _mint_fakes(self, start: int, stop: int) -> None:
        """Fill the fakes of keys ``[start, stop)`` from their stored rows, a block
        of rows at a time. All or none: rows from ``key_pointer`` on are not in
        use until the caller moves it past them."""
        if start == stop:
            return
        anchors = self._anchor_set(stop) if self.sampler is None else None
        rows = self._stored[start:stop]  # taken once the anchor set may have narrowed the store
        rows.flags.writeable = False
        if anchors is not None:  # anchor rows, checked when the anchor set was made
            # The stored rows are frames track_rows checked, so they are not checked again.
            checked = _CheckedRows(rows.shape, lambda start, stop: rows[start:stop].astype(np.float64, copy=False))
            fakes = _Take(anchors.matrix, sample_batch(checked, anchors, self.margin)[0])
        else:
            fakes = _unit_matrix(self.sampler(rows), "fake identity", rows.shape[1])
        if len(fakes) != len(rows):
            raise ShapeMismatch(f"sampler made {len(fakes)} fakes for {len(rows)} new identities")
        minted = self._fakes[start:stop]
        for part in _row_blocks(fakes):
            minted[part] = fakes[part]  # rounded to float32 as it is written

    def _score(
        self, frames: np.ndarray, used: int, scratch: _Scratch
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each frame's key and best distance among ``used`` stored rows (``inf`` if none)."""
        if not used:
            return np.zeros(len(frames), dtype=np.intp), np.full(len(frames), np.inf)
        index, cosine = _nearest(frames, self._stored[:used], -1.0, scratch=scratch)
        return index, 1.0 - cosine

    def _walk(
        self, block: np.ndarray, used: int, minted: np.ndarray, scratch: _Scratch
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Decide one block of frames in order against the first ``used`` stored rows.

        New identities are written to the store from row ``used`` on and
        flagged in ``minted``. Returns the new row count and each frame's
        key and best distance (``inf`` when the store was empty). Lookups
        take their buffers from ``scratch``.
        """
        rows, dim = block.shape
        tie = _tie(dim)
        key, best = self._score(block, used, scratch)
        pos = 0
        while True:
            ahead = np.flatnonzero(best[pos:] >= self.threshold - tie)
            if not ahead.size:
                return used, key, best
            r = pos + int(ahead[0])
            pos = r + 1
            if abs(best[r] - self.threshold) <= tie:
                # Too close to call on blocked bits: score as a lone frame.
                key[r : r + 1], best[r : r + 1] = self._score(block[r : r + 1], used, scratch)
            if best[r] < self.threshold:
                continue
            self._reserve(used, dim)
            self._stored[used] = block[r].astype(np.float32)
            key[r], minted[r] = used, True
            if pos < rows:
                # The new identity's distances to the later frames, one GEMV. As
                # best <= min + tie, it takes each frame whose best it beats by
                # over two ties; a frame it beats by less is scored alone.
                column = 1.0 - _block_products(self._stored[used : used + 1], block[pos:])[0]
                gap = best[pos:] - column
                won = gap > 2 * tie
                key[pos:][won], best[pos:][won] = used, column[won]
                for j in np.flatnonzero(~won & (gap > 0)) + pos:
                    key[j : j + 1], best[j : j + 1] = self._score(block[j : j + 1], used + 1, scratch)
            used += 1

    def track_rows(self, frames) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Track the unit rows of an (N, D) array-like in order, minting fakes as needed.

        Takes the decisions of :meth:`track` called on each row in turn and
        returns per-frame ``matched`` flags, ``key`` and ``distance`` arrays.
        ``distance`` is the best cosine distance in the store (NaN on the
        first contact of an empty tracker); it may differ from the one-frame
        value by up to ``D * eps``. Dimension and unit norm are checked
        before the store changes, and if minting raises the tracker is left
        as it was.
        """
        frames = _unit_matrix(frames, "frame embedding", self.dim)
        if self._stored.dtype != np.float64:  # narrowed for a first mint: widened once
            self._stored = _grown(self._stored, self.key_pointer, *self._stored.shape, np.float64)
        count = len(frames)
        minted = np.zeros(count, dtype=bool)
        key = np.empty(count, dtype=np.intp)
        distance = np.empty(count, dtype=np.float64)
        used = self.key_pointer
        start = 0
        # One set of lookup buffers for every block: fresh ones per block would
        # each be mapped and faulted in anew.
        scratch = _Scratch()
        while start < count:
            rows = max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // (used + _BLOCK_ROWS)))
            stop = min(count, start + rows)
            used, key[start:stop], distance[start:stop] = self._walk(
                np.asarray(frames[start:stop], dtype=np.float64), used, minted[start:stop], scratch
            )
            start = stop
        del scratch  # freed before the mint allocates its own
        self._mint_fakes(self.key_pointer, used)
        self.key_pointer = used
        distance[np.isinf(distance)] = np.nan
        return ~minted, key, distance

    def track(self, z_id: Embedding) -> TrackResult:
        """Return the fake identity for one frame, minting it if needed."""
        matched, key, distance = self.track_rows(z_id.values[None, :])
        chosen, best = int(key[0]), float(distance[0])
        return TrackResult(
            Embedding(self._fakes[chosen]),
            bool(matched[0]),
            chosen,
            None if math.isnan(best) else best,
        )

    def reset(self) -> "TrackerState":
        """A fresh tracker with the same threshold and sampler configuration."""
        return TrackerState(self.threshold, self.margin, self.anchors, self.sampler)


def save_state(state: TrackerState, destination: str | BinaryIO) -> None:
    """Serialize tracker state: two embedding blocks plus a trailer.

    Layout: the stored identities as one label-free embedding container,
    the fake identities (in key order) as a second one, then threshold
    (f32), margin (f32), and key pointer (u32), all little-endian. The file
    is written a block of rows at a time.
    """
    count, dim = state.key_pointer, state.dim or 0
    try:
        with fio._opened(destination) as fh:
            for rows in (state._stored, state._fakes):
                with fio._container_writer(fh, count, dim) as write:
                    write(rows[:count].reshape(count, dim))
            fh.write(_TRAILER.pack(state.threshold, state.margin, count))
    except OSError as exc:
        raise IoFailure(f"cannot write tracker state: {exc}") from exc


def _read_mapped(stream: BinaryIO, dtype) -> np.ndarray:
    """The embedded container at ``stream``'s position read into a mapped ``dtype`` array."""
    walk = fio._walk(stream, labeled=False)
    return fio._fill(walk, dtype, out=_mapped(*walk[0], dtype))


def load_state(
    source: str | BinaryIO,
    anchors: AnchorSet | _CheckedRows | None = None,
    sampler: Callable[[np.ndarray], np.ndarray] | None = None,
) -> TrackerState:
    """Rebuild a tracker from :func:`save_state` output.

    Anchor sets are not persisted; pass ``anchors`` (or ``sampler``) to
    re-attach a minting strategy to the loaded state. Anchors whose
    dimension differs from the stored embeddings' raise
    :class:`DimensionMismatch`.
    """
    try:
        with fio._binary_stream(source) as stream:
            stored = _read_mapped(stream, np.float64)
            fakes = _read_mapped(stream, np.float32)
            left, trailer = fio._remaining(stream), bytearray(_TRAILER.size)
            if left != _TRAILER.size or fio._readinto(stream, trailer) != left:
                raise CorruptState(
                    f"expected a {_TRAILER.size}-byte trailer, found {left} bytes"
                )
    except OSError as exc:
        raise IoFailure(f"cannot read tracker state: {exc}") from exc
    except fio.ContainerError as exc:
        raise CorruptState(f"malformed embedding block: {exc}") from exc
    threshold, margin, key_pointer = _TRAILER.unpack(trailer)
    if stored.shape != fakes.shape:
        raise CorruptState(
            f"stored block shape {stored.shape} != fake block shape {fakes.shape}"
        )
    if key_pointer != stored.shape[0]:
        raise CorruptState(
            f"key pointer {key_pointer} does not match {stored.shape[0]} stored rows"
        )
    try:
        state = TrackerState(float(threshold), float(margin), anchors=anchors, sampler=sampler)
        state._stored = _unit_matrix(stored, "stored embedding", tol=_LOAD_NORM_TOL)
        state._fakes = _unit_matrix(fakes, "fake embedding", tol=_LOAD_NORM_TOL)
    except (ValueError, DimensionMismatch, NotUnitNorm) as exc:
        raise CorruptState(str(exc)) from exc
    if key_pointer and anchors is not None and len(anchors) and anchors.dim != stored.shape[1]:
        raise DimensionMismatch(
            f"anchors have dimension {anchors.dim}, tracker state has dimension {stored.shape[1]}"
        )
    state.key_pointer = key_pointer
    return state
