"""Synthetic corpora and an end-to-end benchmark without any model weights.

Identities are uniform random directions on the sphere; videos are jittered
copies of an identity center; anonymizers are cheap mocks (negation, anchor
sampling, slerp blending). That is enough structure to exercise tracking,
retrieval, and temporal metrics with known expected outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .gallery import Gallery
from .errors import ShapeMismatch
from .metrics import (
    RetrievalReport,
    TemporalReport,
    retrieval_reports,
    temporal_consistency,
)
from .sampling import _check_margin, sample_batch
from .sphere import (
    _BLOCK_ELEMENTS,
    AnchorSet,
    Embedding,
    _Take,
    _antipodal,
    _normalize_rows,
    _require_unit,
    _row_blocks,
    _slerp_rows,
    _unit_matrix,
)
from .tracking import DEFAULT_MATCH_THRESHOLD, TrackerState
from .util import spawn_seed

__all__ = [
    "ANONYMIZER_MODES",
    "SynthConfig",
    "MockAnonymizer",
    "BenchmarkVariant",
    "BenchmarkResult",
    "generate_identities",
    "generate_frames",
    "mock_anonymize",
    "end_to_end_benchmark",
]

ANONYMIZER_MODES = ("negation", "anchor_sample", "slerp_blend")


def _check_jitter(jitter_sigma: float) -> None:
    """The frame jitter rule: a finite sigma >= 0."""
    if not 0.0 <= jitter_sigma < np.inf:  # NaN fails too
        raise ValueError(f"jitter_sigma must be >= 0 and finite, got {jitter_sigma}")


@dataclass(frozen=True)
class SynthConfig:
    """Shape of a synthetic corpus."""

    dimension: int = 512
    identity_count: int = 100
    frames_per_identity: int = 1
    jitter_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        if self.identity_count < 1:
            raise ValueError(f"identity_count must be >= 1, got {self.identity_count}")
        if self.frames_per_identity < 1:
            raise ValueError(
                f"frames_per_identity must be >= 1, got {self.frames_per_identity}"
            )
        _check_jitter(self.jitter_sigma)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class MockAnonymizer:
    """A stand-in anonymizer acting directly in embedding space.

    Modes: ``negation`` flips the identity; ``anchor_sample`` swaps it for
    a sampled anchor; ``slerp_blend`` walks a fraction ``blend`` of the way
    from the identity to the sampled anchor.
    """

    mode: str
    margin: float = 0.0
    blend: float = 0.5
    anchors: AnchorSet | None = None

    def __post_init__(self) -> None:
        if self.mode not in ANONYMIZER_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {ANONYMIZER_MODES}"
            )
        _check_margin(self.margin)
        if not 0.0 <= self.blend <= 1.0:
            raise ValueError(f"blend must be in [0, 1], got {self.blend}")
        if self.mode in ("anchor_sample", "slerp_blend") and self.anchors is None:
            raise ValueError(f"mode {self.mode!r} requires an anchor set")


def generate_identities(config: SynthConfig) -> Gallery:
    """Uniform random unit embeddings labeled ``id_0000``, ``id_0001``, ...

    Gaussian draws normalized to the sphere are direction-uniform, so
    random identities are near-orthogonal in high dimensions.
    """
    rng = np.random.default_rng(config.seed)
    rows = _normalize_rows(rng.normal(size=(config.identity_count, config.dimension)))
    rows.flags.writeable = False  # the gallery keeps these rows without a copy
    return Gallery(rows, [f"id_{i:04d}" for i in range(config.identity_count)])


def _frame_rows(center: np.ndarray, count: int, jitter_sigma: float, seed: int) -> np.ndarray:
    """The frames of :func:`generate_frames` as a (count, D) array."""
    if count < 1:
        raise ValueError(f"frame count must be >= 1, got {count}")
    _check_jitter(jitter_sigma)
    if jitter_sigma == 0.0:
        return np.repeat(center[None, :], count, axis=0)
    rng = np.random.default_rng(seed)
    return _normalize_rows(center + rng.normal(0.0, jitter_sigma, size=(count, center.size)))


def generate_frames(
    center: Embedding, count: int, jitter_sigma: float, seed: int
) -> list[Embedding]:
    """``count`` jittered observations of one identity center.

    Each frame is normalize(center + N(0, jitter_sigma^2)); zero jitter
    returns exact copies of the center.
    """
    _require_unit(center, "frame center")
    return [Embedding(row) for row in _frame_rows(center.values, count, jitter_sigma, seed)]


def mock_anonymize(z_id: Embedding, anonymizer: MockAnonymizer) -> Embedding:
    """Apply one mock anonymizer to one embedding."""
    return Embedding(_anonymize_rows(z_id.values[None, :], anonymizer)[0])


def _fake_corpus(count: int, dim: int, anonymizer: MockAnonymizer) -> _Take:
    """Room for the fakes of ``count`` rows, as gathered rows: the anchors and an
    index of picks for ``anchor_sample``, a table of new rows in order for the
    other modes."""
    if anonymizer.mode == "anchor_sample":
        return _Take(anonymizer.anchors.matrix, np.empty(count, dtype=np.intp))
    return _Take(np.empty((count, dim)), np.arange(count))


def _anonymize_rows(rows: np.ndarray, anonymizer: MockAnonymizer, out: _Take | None = None,
                    at: int = 0) -> _Take:
    """:func:`mock_anonymize` for each unit row of an (N, D) array, sampled in one
    batch, as the gathered rows of :func:`_fake_corpus`: a fresh one, or ``out``
    with the picks or new rows written from its row ``at`` on."""
    if out is None:
        out = _fake_corpus(len(rows), rows.shape[1], anonymizer)
    span = slice(at, at + len(rows))
    if anonymizer.mode == "negation":
        np.negative(_unit_matrix(rows, "frame"), out=out.table[span], dtype=np.float64)
        return out
    anchors = anonymizer.anchors
    picks = sample_batch(rows, anchors, anonymizer.margin)[0]
    if anonymizer.mode == "anchor_sample":
        out.index[span] = picks
        return out
    table = out.table[span]
    for part in _row_blocks(rows):  # blended into the table a block at a time
        targets = anchors.matrix[picks[part]]
        keep, blended = _slerp_rows(rows[part], targets, anonymizer.blend)
        if not keep.all():
            raise _antipodal(rows[part][~keep][0], targets[~keep][0])
        table[part] = blended
    return out


def _frame_blocks(gallery: Gallery, config: SynthConfig) -> Iterator[tuple[slice, np.ndarray]]:
    """The frames of every identity, a block of identities at a time: the slice of
    identities and their (n * frames, D) float64 rows, each identity's frames
    those of :func:`generate_frames` seeded ``spawn_seed(config.seed, 1, i)``.

    A block holds about ``_BLOCK_ELEMENTS`` cells (or one identity). Every block
    is generated into one buffer, so a block is good only until the next one is
    taken.
    """
    count, per_video, dim = config.identity_count, config.frames_per_identity, config.dimension
    step = max(1, _BLOCK_ELEMENTS // (per_video * dim))
    buffer = np.empty((min(step, count), per_video, dim))
    for start in range(0, count, step):
        stop = min(count, start + step)
        block = buffer[: stop - start]
        for i in range(start, stop):
            block[i - start] = _frame_rows(
                gallery.matrix[i], per_video, config.jitter_sigma, spawn_seed(config.seed, 1, i)
            )
        yield slice(start, stop), block.reshape(-1, dim)


@dataclass(frozen=True)
class BenchmarkVariant:
    """Metrics for one anonymization strategy over the whole corpus."""

    id_report: RetrievalReport
    neg_id_report: RetrievalReport
    temporal: TemporalReport


@dataclass(frozen=True)
class BenchmarkResult:
    """Tracked (one fake per identity) vs per-frame (fresh fake per frame).

    The headline retrieval numbers are the tracked variant's; the
    per-frame variant shows what tracking buys, mostly in temporal std.
    ``frames`` is the float64 (identities, frames, D) array, every identity's
    frames generated again from its seed each time it is read, so a caller
    binds it once: the result does not hold the frames. Each fake set is held
    as a table of rows and an index, one row per frame in file order (the
    tracked table is the tracker's float32 fakes); ``tracked_fakes`` and
    ``per_frame_fakes`` gather it as a float64 array of the frames' shape
    when read.
    """

    tracked: BenchmarkVariant
    per_frame: BenchmarkVariant
    gallery: Gallery
    _config: SynthConfig
    _tracked_rows: _Take
    _per_frame_rows: _Take

    @property
    def _shape(self) -> tuple[int, int, int]:
        config = self._config
        return config.identity_count, config.frames_per_identity, config.dimension

    @property
    def frames(self) -> np.ndarray:
        frames = np.empty(self._shape)
        for part, rows in _frame_blocks(self.gallery, self._config):
            frames[part] = rows.reshape(-1, *self._shape[1:])
        return frames

    @property
    def tracked_fakes(self) -> np.ndarray:
        return self._tracked_rows[:].astype(np.float64).reshape(self._shape)

    @property
    def per_frame_fakes(self) -> np.ndarray:
        return self._per_frame_rows[:].reshape(self._shape)


def end_to_end_benchmark(
    config: SynthConfig,
    anonymizer: MockAnonymizer,
    retrieval_threshold: float = DEFAULT_MATCH_THRESHOLD,
    tracker_threshold: float = DEFAULT_MATCH_THRESHOLD,
    gallery: Gallery | None = None,
    sink: Callable[[np.ndarray], None] | None = None,
) -> BenchmarkResult:
    """Generate a corpus, anonymize it two ways, and score both ways.

    The tracked path routes every frame through one shared tracker whose
    minting function is the mock anonymizer; the per-frame path anonymizes
    every frame independently. Both are scored for identity retrieval,
    inverted-identity retrieval, and temporal consistency against the
    gallery: ``generate_identities(config)``, or ``gallery`` when given,
    whose shape must then be ``(identity_count, dimension)``.

    The frames are generated a block of identities at a time, and each block
    goes to the tracker, to the per-frame anonymizer and, when given, to
    ``sink`` in turn: its (n, D) float64 frame rows in file order, good only
    until the call returns. No frame is kept beyond its block. The tracker's
    keys and every pick are those of one call over all the frames.
    """
    if gallery is None:
        gallery = generate_identities(config)
    elif gallery.matrix.shape != (config.identity_count, config.dimension):
        raise ShapeMismatch(
            f"gallery of shape {gallery.matrix.shape} for "
            f"{config.identity_count} identities of dimension {config.dimension}"
        )
    per_video, dim = config.frames_per_identity, config.dimension
    count = config.identity_count * per_video
    tracker = TrackerState(
        tracker_threshold, sampler=lambda new: _anonymize_rows(new, anonymizer)[:]
    )
    keys = np.empty(count, dtype=np.intp)
    per_frame = _fake_corpus(count, dim, anonymizer)
    for part, rows in _frame_blocks(gallery, config):
        at = slice(part.start * per_video, part.stop * per_video)
        keys[at] = tracker.track_rows(rows)[1]
        _anonymize_rows(rows, anonymizer, per_frame, at.start)
        if sink is not None:
            sink(rows)
    tracked = _Take(tracker.fake_matrix.copy(), keys)
    del tracker  # its stored and fake buffers are freed before scoring
    labels = [label for label in gallery.labels for _ in range(per_video)]
    per_frame_reports = retrieval_reports(per_frame, labels, gallery, retrieval_threshold)
    tracked_reports = retrieval_reports(tracked, labels, gallery, retrieval_threshold)

    def temporal(fakes: _Take) -> TemporalReport:
        return temporal_consistency(_Take(fakes.table, fakes.index.reshape(-1, per_video)))

    return BenchmarkResult(
        tracked=BenchmarkVariant(*tracked_reports, temporal(tracked)),
        per_frame=BenchmarkVariant(*per_frame_reports, temporal(per_frame)),
        gallery=gallery,
        _config=config,
        _tracked_rows=tracked,
        _per_frame_rows=per_frame,
    )
