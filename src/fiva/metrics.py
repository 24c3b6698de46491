"""Anonymization quality metrics: retrieval rates, temporal consistency, losses.

Retrieval success means the nearest gallery entry carries the probe's true
label AND sits within the distance threshold; the inverted variant negates
the probe first to measure how much of the original identity survives in
a trivially-reversible form.

Temporal consistency summarizes, per video, the full N x N pairwise
cosine-distance matrix of its frame embeddings (diagonal included) by its
mean and population standard deviation, then averages both across videos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyGallery, EmptyList, ShapeMismatch
from .gallery import Gallery, LabeledEmbedding
from .sphere import Embedding, _nearest, _rows_of, _stack, _unit_matrix, cosine

__all__ = [
    "VideoConsistency",
    "TemporalReport",
    "ProbeOutcome",
    "RetrievalReport",
    "pairwise_distance_matrix",
    "temporal_consistency",
    "retrieve",
    "retrieval_report",
    "id_retrieval_rate",
    "neg_id_retrieval_rate",
    "anti_id_loss",
    "id_loss",
    "recon_l1",
]


@dataclass(frozen=True)
class VideoConsistency:
    """Mean and population std of one video's pairwise distance matrix."""

    mean_distance: float
    std_distance: float


@dataclass(frozen=True)
class TemporalReport:
    """Per-video consistency plus the across-video averages of both stats."""

    mean_of_means: float
    mean_of_stds: float
    per_video: tuple[VideoConsistency, ...]


@dataclass(frozen=True)
class ProbeOutcome:
    """One probe's retrieval result."""

    true_label: str
    retrieved_label: str
    distance: float
    success: bool


@dataclass(frozen=True)
class RetrievalReport:
    """Success rate over all probes at a fixed distance threshold."""

    success_rate: float
    threshold: float
    per_query: tuple[ProbeOutcome, ...]


def pairwise_distance_matrix(frames: Sequence[Embedding] | np.ndarray) -> np.ndarray:
    """All-pairs cosine distances of a frame list or (N, D) array as an (N, N) array.

    For unit vectors 1 - cos(a, b) equals |a - b|^2 / 2, which is what is
    computed here: it is exactly symmetric, exactly zero for identical
    frames, and never dips below zero, so downstream statistics are clean.
    """
    stacked = _rows_of(frames, "frame")
    if not len(stacked):
        raise EmptyList("a video needs at least one frame embedding")
    n = stacked.shape[0]
    distances = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        diff = stacked - stacked[i]
        distances[i] = 0.5 * (diff * diff).sum(axis=1)
    np.clip(distances, 0.0, 2.0, out=distances)
    return distances


def _video_consistency(frames: Sequence[Embedding] | np.ndarray) -> VideoConsistency:
    distances = pairwise_distance_matrix(frames)
    mean = float(distances.mean())
    std = float(np.sqrt(np.mean((distances - mean) ** 2)))
    return VideoConsistency(mean, std)


def temporal_consistency(
    videos: Sequence[Sequence[Embedding] | np.ndarray], threads: int = 1
) -> TemporalReport:
    """Consistency statistics for a list of videos (frame lists or (F, D) arrays).

    ``threads`` is accepted for compatibility and has no effect.
    """
    videos = list(videos)
    if not videos:
        raise EmptyList("need at least one video")
    per_video = [_video_consistency(video) for video in videos]
    mean_of_means = float(np.mean([v.mean_distance for v in per_video]))
    mean_of_stds = float(np.mean([v.std_distance for v in per_video]))
    return TemporalReport(mean_of_means, mean_of_stds, tuple(per_video))


def _search(queries, gallery: Gallery, negate: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Nearest entry index and cosine distance for each row of a (N, D) array-like."""
    if len(gallery) == 0:
        raise EmptyGallery("cannot retrieve from an empty gallery")
    probes = _unit_matrix(queries, "probe", gallery.dim)
    index, cosine = _nearest(probes, gallery.matrix, -1.0, negate)
    return index, 1.0 - cosine


def retrieve(query: Embedding, gallery: Gallery) -> tuple[str, float]:
    """Nearest gallery entry by cosine distance; ties go to the lowest index."""
    index, distance = _search(query.values[None, :], gallery)
    return gallery.labels[int(index[0])], float(distance[0])


def retrieval_report(
    queries,
    true_labels: Sequence[str],
    gallery: Gallery,
    threshold: float,
    negate: bool = False,
) -> RetrievalReport:
    """Retrieval outcome of every row of a (N, D) array-like of unit probes.

    Success means the nearest entry carries the probe's label at a distance
    no larger than ``threshold``. With ``negate`` each probe is negated
    before the search, as :func:`neg_id_retrieval_rate` does.
    """
    if len(true_labels) == 0:
        raise EmptyList("need at least one probe")
    if not 0.0 <= threshold <= 2.0:
        raise ValueError(f"threshold must be in [0, 2], got {threshold}")
    index, distance = _search(queries, gallery, negate)
    if len(index) != len(true_labels):
        raise ShapeMismatch(f"{len(true_labels)} labels for {len(index)} probes")
    labels = gallery.labels
    outcomes = tuple(
        ProbeOutcome(true, labels[i], d, labels[i] == true and d <= threshold)
        for true, i, d in zip(true_labels, index.tolist(), distance.tolist())
    )
    rate = sum(1 for o in outcomes if o.success) / len(outcomes)
    return RetrievalReport(rate, threshold, outcomes)


def _probe_rows(
    probes: Sequence[tuple[Embedding, str] | LabeledEmbedding],
) -> tuple[np.ndarray, list[str]]:
    pairs = [
        (p.embedding, p.label) if isinstance(p, LabeledEmbedding) else tuple(p)
        for p in probes
    ]
    return _stack([e for e, _ in pairs], "probe"), [label for _, label in pairs]


def id_retrieval_rate(
    probes: Sequence[tuple[Embedding, str] | LabeledEmbedding],
    gallery: Gallery,
    threshold: float,
    threads: int = 1,
) -> RetrievalReport:
    """Fraction of probes whose nearest entry is their own label in range.

    A retrieval at exactly the threshold distance still counts as success.
    ``threads`` is accepted for compatibility and has no effect.
    """
    return retrieval_report(*_probe_rows(probes), gallery, threshold)


def neg_id_retrieval_rate(
    probes: Sequence[tuple[Embedding, str] | LabeledEmbedding],
    gallery: Gallery,
    threshold: float,
    threads: int = 1,
) -> RetrievalReport:
    """Retrieval rate after negating each probe first.

    Measures whether the original identity is recoverable from a fake by
    the cheapest possible inversion. ``threads`` has no effect.
    """
    return retrieval_report(*_probe_rows(probes), gallery, threshold, negate=True)


def anti_id_loss(z_target: Embedding, z_anchor: Embedding, z_blend: Embedding) -> float:
    """2 + cos(target, anchor) + cos(target, blend); 0 when both are antipodal."""
    return 2.0 + cosine(z_target, z_anchor) + cosine(z_target, z_blend)


def id_loss(a: Embedding, b: Embedding) -> float:
    """Identity dissimilarity 1 - cos(a, b), in [0, 2]."""
    return 1.0 - cosine(a, b)


def recon_l1(x: np.ndarray, y: np.ndarray) -> float:
    """Mean absolute elementwise difference of two same-shape arrays."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeMismatch(f"shape {x.shape} vs {y.shape}")
    if x.size == 0:
        raise EmptyList("cannot average over zero elements")
    return float(np.mean(np.abs(x - y)))
