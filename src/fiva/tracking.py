"""Identity tracking: one consistent fake identity per real identity.

The tracker keeps every first-contact embedding it has seen. For each new
embedding it scans the store by cosine distance; a hit below the match
threshold returns the fake identity minted at first contact, an unmatched
embedding is appended and gets a fresh fake from the sampler. Keys are
assigned by an increasing pointer, so key k always means "the k-th
distinct identity this tracker has seen".

Embeddings are quantized to single precision when they enter the store.
The persisted state file stores single-precision payloads, so quantizing
at insertion makes a save/load cycle reproduce the live state bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable, Optional

import numpy as np

from . import io as fio
from .errors import CorruptState, DimensionMismatch, EmptyAnchorSet, IoFailure, NotUnitNorm
from .sampling import sample_fake
from .sphere import AnchorSet, Embedding, _nearest, _require_unit, _require_unit_rows

__all__ = [
    "DEFAULT_MATCH_THRESHOLD",
    "TrackResult",
    "TrackerState",
    "save_state",
    "load_state",
]

# Cosine-distance operating point of the reference verifier at a false
# acceptance rate of one in a thousand.
DEFAULT_MATCH_THRESHOLD = 0.63

# Trailer appended after the two embedding blocks of a state file.
_TRAILER = struct.Struct("<ffI")

# Unit-norm slack allowed when validating reloaded state; single-precision
# storage can add ~1e-7 on top of the live tolerance.
_LOAD_NORM_TOL = 1e-5


def _f32_exact(values: np.ndarray) -> np.ndarray:
    """Round float64 values to the nearest single-precision numbers."""
    return np.asarray(values, dtype=np.float32).astype(np.float64)


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


class TrackerState:
    """Mutable store mapping seen identities to their fake identities.

    Row k of the store holds the first-contact embedding and the fake of
    key k, so ``len(stored) == len(fakes) == key_pointer`` by construction.

    Args:
        threshold: cosine-distance match threshold, strictly inside (0, 2).
            Quantized to single precision so persistence is lossless.
        margin: sampling margin forwarded to the anchor sampler.
        anchors: anchor set used to mint fake identities. May be ``None``
            for match-only use; minting then raises :class:`EmptyAnchorSet`.
        sampler: optional override mapping an embedding to its fake. When
            given, ``anchors``/``margin`` are bypassed. Not persistable.
    """

    def __init__(
        self,
        threshold: float = DEFAULT_MATCH_THRESHOLD,
        margin: float = 0.0,
        anchors: AnchorSet | None = None,
        sampler: Callable[[Embedding], Embedding] | None = None,
    ) -> None:
        if not 0.0 < threshold < 2.0:
            raise ValueError(f"match threshold must be in (0, 2), got {threshold}")
        if not -1.0 <= margin <= 1.0:
            raise ValueError(f"margin must be in [-1, 1], got {margin}")
        self.threshold = float(np.float32(threshold))
        self.margin = float(np.float32(margin))
        self.anchors = anchors
        self.sampler = sampler
        self.key_pointer = 0
        # Capacity-doubling (capacity, D) buffers indexed by key; rows at and
        # past key_pointer are unused.
        self._stored = np.empty((0, 0), dtype=np.float64)
        self._fakes = np.empty((0, 0), dtype=np.float64)

    def __len__(self) -> int:
        return self.key_pointer

    @property
    def stored(self) -> tuple[Embedding, ...]:
        """First-contact embeddings in key order."""
        return tuple(Embedding(row) for row in self._stored[: self.key_pointer])

    @property
    def fakes(self) -> tuple[Embedding, ...]:
        """Fake identities in key order."""
        return tuple(Embedding(row) for row in self._fakes[: self.key_pointer])

    @property
    def dim(self) -> int | None:
        if self.key_pointer:
            return self._stored.shape[1]
        if self.anchors is not None and len(self.anchors):
            return self.anchors.dim
        return None

    def _mint_fake(self, z: Embedding) -> Embedding:
        if self.sampler is not None:
            return self.sampler(z)
        if self.anchors is None or len(self.anchors) == 0:
            raise EmptyAnchorSet(
                "tracker has no anchor set attached; cannot mint a fake identity"
            )
        return sample_fake(z, self.anchors, self.margin).fake_identity

    def _append(self, stored: np.ndarray, fake: np.ndarray) -> int:
        key = self.key_pointer
        if key == len(self._stored):
            grown = np.empty((2, max(16, 2 * key), stored.size), dtype=np.float64)
            if key:
                grown[0, :key], grown[1, :key] = self._stored[:key], self._fakes[:key]
            self._stored, self._fakes = grown
        self._stored[key] = stored
        self._fakes[key] = fake
        self.key_pointer = key + 1
        return key

    def track(self, z_id: Embedding) -> TrackResult:
        """Return the fake identity for one frame, minting it if needed."""
        _require_unit(z_id, "frame embedding")
        expected = self.dim
        if expected is not None and z_id.dim != expected:
            raise DimensionMismatch(
                f"frame has dimension {z_id.dim}, tracker expects {expected}"
            )
        best_distance: Optional[float] = None
        if self.key_pointer:
            index, cosine = _nearest(
                z_id.values[None, :], self._stored[: self.key_pointer], -1.0
            )
            key = int(index[0])
            best_distance = float(1.0 - cosine[0])
            if best_distance < self.threshold:
                return TrackResult(Embedding(self._fakes[key]), True, key, best_distance)
        stored = Embedding(_f32_exact(z_id.values))
        fake = Embedding(_f32_exact(self._mint_fake(stored).values))
        key = self._append(stored.values, fake.values)
        return TrackResult(fake, False, key, best_distance)

    def reset(self) -> "TrackerState":
        """A fresh tracker with the same threshold and sampler configuration."""
        return TrackerState(
            threshold=self.threshold,
            margin=self.margin,
            anchors=self.anchors,
            sampler=self.sampler,
        )


def save_state(state: TrackerState, destination: str | BinaryIO) -> None:
    """Serialize tracker state: two embedding blocks plus a trailer.

    Layout: the stored identities as one label-free embedding container,
    the fake identities (in key order) as a second one, then threshold
    (f32), margin (f32), and key pointer (u32), all little-endian.
    """
    count = state.key_pointer
    dim = state.dim or 0
    blob = (
        fio.pack_container(state._stored[:count], dim=dim)
        + fio.pack_container(state._fakes[:count], dim=dim)
        + _TRAILER.pack(state.threshold, state.margin, count)
    )
    try:
        fio._write_bytes(destination, blob)
    except OSError as exc:
        raise IoFailure(f"cannot write tracker state: {exc}") from exc


def load_state(
    source: str | BinaryIO,
    anchors: AnchorSet | None = None,
    sampler: Callable[[Embedding], Embedding] | None = None,
) -> TrackerState:
    """Rebuild a tracker from :func:`save_state` output.

    Anchor sets are not persisted; pass ``anchors`` (or ``sampler``) to
    re-attach a minting strategy to the loaded state.
    """
    try:
        data = fio._read_bytes(source)
    except OSError as exc:
        raise IoFailure(f"cannot read tracker state: {exc}") from exc
    try:
        stored, _, offset = fio.parse_container(data, 0, allow_labels=False)
        fakes, _, offset = fio.parse_container(data, offset, allow_labels=False)
    except fio.ContainerError as exc:
        raise CorruptState(f"malformed embedding block: {exc}") from exc
    if len(data) - offset != _TRAILER.size:
        raise CorruptState(
            f"expected a {_TRAILER.size}-byte trailer, found {len(data) - offset} bytes"
        )
    threshold, margin, key_pointer = _TRAILER.unpack_from(data, offset)
    if stored.shape != fakes.shape:
        raise CorruptState(
            f"stored block shape {stored.shape} != fake block shape {fakes.shape}"
        )
    if key_pointer != stored.shape[0]:
        raise CorruptState(
            f"key pointer {key_pointer} does not match {stored.shape[0]} stored rows"
        )
    if not 0.0 < threshold < 2.0:
        raise CorruptState(f"threshold {threshold} outside (0, 2)")
    if not -1.0 <= margin <= 1.0:
        raise CorruptState(f"margin {margin} outside [-1, 1]")
    if key_pointer and stored.shape[1] < 2:
        raise CorruptState(f"embedding blocks have dimension {stored.shape[1]}, need >= 2")
    state = TrackerState(
        threshold=float(threshold), margin=float(margin), anchors=anchors, sampler=sampler
    )
    state._stored, state._fakes = stored.astype(np.float64), fakes.astype(np.float64)
    try:
        _require_unit_rows(state._stored, "stored embedding", _LOAD_NORM_TOL)
        _require_unit_rows(state._fakes, "fake embedding", _LOAD_NORM_TOL)
    except NotUnitNorm as exc:
        raise CorruptState(str(exc)) from exc
    state.key_pointer = key_pointer
    return state
