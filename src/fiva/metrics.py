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

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyGallery, EmptyList, ShapeMismatch
from .gallery import Gallery, LabeledEmbedding
from .sphere import (
    _BLOCK_ELEMENTS,
    Embedding,
    _Take,
    _as_rows,
    _nearest,
    _stack,
    _unit_matrix,
    cosine,
)

__all__ = [
    "VideoConsistency",
    "TemporalReport",
    "ProbeOutcome",
    "RetrievalReport",
    "pairwise_distance_matrix",
    "temporal_consistency",
    "retrieve",
    "retrieval_report",
    "retrieval_reports",
    "id_retrieval_rate",
    "neg_id_retrieval_rate",
    "anti_id_loss",
    "id_loss",
    "recon_l1",
]


class _ValueEq:
    """Reports held as arrays compare and hash by the values they report."""

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class VideoConsistency:
    """Mean and population std of one video's pairwise distance matrix."""

    mean_distance: float
    std_distance: float


@dataclass(frozen=True, eq=False)
class TemporalReport(_ValueEq):
    """Per-video consistency plus the across-video averages of both stats.

    The per-video stats are held as the arrays ``video_means`` and
    ``video_stds``; ``per_video`` builds a :class:`VideoConsistency` tuple
    from them when read.
    """

    mean_of_means: float
    mean_of_stds: float
    video_means: np.ndarray
    video_stds: np.ndarray

    @property
    def per_video(self) -> tuple[VideoConsistency, ...]:
        return tuple(
            VideoConsistency(m, s)
            for m, s in zip(self.video_means.tolist(), self.video_stds.tolist())
        )

    def _key(self) -> tuple:
        return self.mean_of_means, self.mean_of_stds, self.per_video


@dataclass(frozen=True)
class ProbeOutcome:
    """One probe's retrieval result."""

    true_label: str
    retrieved_label: str
    distance: float
    success: bool


@dataclass(frozen=True, eq=False)
class RetrievalReport(_ValueEq):
    """Success rate over all probes at a fixed distance threshold.

    Per probe, held as arrays: ``index`` of the nearest entry among
    ``gallery_labels``, its cosine ``distance`` and ``success``; the probes'
    own labels are ``true_labels``. ``per_query`` builds a
    :class:`ProbeOutcome` tuple from them when read.
    """

    success_rate: float
    threshold: float
    true_labels: tuple[str, ...]
    gallery_labels: Sequence[str]
    index: np.ndarray
    distance: np.ndarray
    success: np.ndarray

    @property
    def per_query(self) -> tuple[ProbeOutcome, ...]:
        labels = self.gallery_labels
        return tuple(
            ProbeOutcome(true, labels[i], d, s)
            for true, i, d, s in zip(
                self.true_labels,
                self.index.tolist(),
                self.distance.tolist(),
                self.success.tolist(),
            )
        )

    def _key(self) -> tuple:
        return self.success_rate, self.threshold, self.per_query


def _fold(corpus, name: str, dim: int | None = None) -> _Take:
    """Check a corpus once (:func:`_unit_matrix`) and fold it once (:func:`_distinct_rows`)
    into folded gathered rows: the checked rows of an (N, D) array-like, each indexed
    by its first copy, or the checked table of gathered rows, its index mapped through
    the table's fold once their (N, D) shape is checked (so a shape error names N, not
    the table's length). Folded gathered rows are returned as they are."""
    gathered = isinstance(corpus, _Take)
    if gathered:
        _as_rows(corpus, name, dim)
        if corpus.folded:
            return corpus
    rows = _unit_matrix(corpus.table if gathered else corpus, name, dim)
    first, codes = _distinct_rows(rows)
    index = first[codes]
    return _Take(rows, index[corpus.index] if gathered else index, folded=True)


def _video_rows(frames) -> _Take:
    """:func:`_fold` of a video (a frame list, an (F, D) array or gathered rows) or
    of stacked videos (an (N, D) array or gathered rows), float32 tables kept."""
    if not isinstance(frames, (np.ndarray, _Take)):
        frames = _stack(list(frames), "frame")
    video = _fold(frames, "frame")
    if not len(video):
        raise EmptyList("a video needs at least one frame embedding")
    return video


def _video_distances(videos, codes) -> np.ndarray:
    """The (B, n, n) pairwise cosine distances within each video of a (B, n, D)
    block, widened to float64 (from a float32 array, or a list of videos), with
    the (B, n) folded index of its rows.

    Entry (i, j) is ``|a - b|^2 / 2`` in Gram form, ``(s_i + s_j) / 2 - g_ij``
    with ``g = V V^T`` and ``s`` its diagonal, the squared row norms. On rows
    stored as float32, which lie up to ~1e-7 off the sphere, this keeps the
    difference form's value to ~1e-15 where ``1 - g_ij`` is off by ~1e-8.
    numpy forms ``g`` by SYRK, one triangle copied to the other, so ``g`` and the
    distances are exactly symmetric. Values are clipped to [0, 2], and every pair
    of rows with equal index entries, the diagonal included, is exactly 0.
    """
    videos = np.asarray(videos, dtype=np.float64)
    codes = np.asarray(codes)
    gram = np.matmul(videos, videos.transpose(0, 2, 1))
    squares = np.diagonal(gram, axis1=1, axis2=2)
    distances = squares[:, :, None] + squares[:, None, :]
    distances *= 0.5
    distances -= gram
    del gram, squares  # freed before the mask: squares is a view of gram
    np.clip(distances, 0.0, 2.0, out=distances)
    distances[codes[:, :, None] == codes[:, None, :]] = 0.0
    return distances


def pairwise_distance_matrix(frames: Sequence[Embedding] | np.ndarray) -> np.ndarray:
    """All-pairs cosine distances of a frame list or (N, D) array as an (N, N) array.

    For unit vectors 1 - cos(a, b) equals |a - b|^2 / 2, which is computed
    here in Gram form: the matrix is exactly symmetric, as numpy's ``V V^T`` is,
    in [0, 2], and exactly zero for bit-identical frames. Each entry is within
    ``(D + 2) * eps`` of the difference form computed on the rows as given.
    """
    video = _video_rows(frames)
    return _video_distances(video[:][None], video.index[None])[0]


def temporal_consistency(
    videos: Iterable[Sequence[Embedding] | np.ndarray] | np.ndarray,
) -> TemporalReport:
    """Consistency statistics for a list or an iterable of videos (frame lists,
    (F, D) arrays or gathered rows), for an (I, F, D) array of I videos, or for
    gathered rows with an (I, F) index.

    Listed videos are read as they come, each folded once (:func:`_fold`), and scored
    in blocks of consecutive videos of one shape, a block per batched Gram product
    (see :func:`pairwise_distance_matrix`): an iterable is held a block at a time.
    Stacked videos are folded as one table of rows. Either way a block's rows are
    gathered from their table and widened when it is scored. A video's stats do not
    depend on the videos that share its block.
    """
    means, stds = [], []

    def score(rows, codes) -> None:  # a block of videos of one (F, D) shape
        distances = _video_distances(rows, codes)
        mean = distances.mean(axis=(1, 2))
        distances -= mean[:, None, None]  # the deviations, squared in place
        means.append(mean)
        stds.append(np.sqrt(np.square(distances, out=distances).mean(axis=(1, 2))))

    if isinstance(videos, _Take) or (isinstance(videos, np.ndarray) and videos.ndim == 3):
        count, frames, dim = videos.shape
        gathered = isinstance(videos, _Take)
        rows = _Take(videos.table, videos.index.ravel(), videos.folded) if gathered else videos.reshape(count * frames, dim)
        folded = _video_rows(rows) if count else None  # no videos: raised below
        step = max(1, _BLOCK_ELEMENTS // max(1, frames * (frames + dim)))
        for start in range(0, count, step):
            index = folded.index.reshape(count, frames)[start : start + step]
            score(folded.table[index], index)
    else:  # runs of consecutive videos of one shape, read as they come and cut into blocks
        for (frames, dim), run in itertools.groupby(map(_video_rows, videos), lambda video: video.shape):
            step = max(1, _BLOCK_ELEMENTS // (frames * (frames + dim)))
            while block := list(itertools.islice(run, step)):
                score([video[:] for video in block], [video.index for video in block])
    if not means:
        raise EmptyList("need at least one video")
    means, stds = np.concatenate(means), np.concatenate(stds)
    means.setflags(write=False)
    stds.setflags(write=False)
    return TemporalReport(float(means.mean()), float(stds.mean()), means, stds)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the bit-distinct rows of a float (N, D) array at their
    first appearance, and per row the position of its copy among them. Rows
    are compared as unsigned words of their values' width, so widening float32
    rows to float64, which is injective, changes neither result. One stable sort
    on all of each row's bytes, through a void view of the rows, puts equal rows
    next to each other in row order. Neighbours that share their first two words
    are compared in full, ``_BLOCK_ELEMENTS`` words at a time, so the fold holds
    the sort index and two words per row whatever the rows hold."""
    count, dim = rows.shape
    if count < 2:
        return np.arange(count), np.arange(count)
    words = np.ascontiguousarray(rows).view(f"u{rows.itemsize}")
    order = np.argsort(words.view(f"V{rows.itemsize * dim}").ravel(), kind="stable")
    lead = words[:, :2][order]
    tied = (lead[1:] == lead[:-1]).all(axis=1)
    if not tied.any():  # no two rows share their leading words: all distinct
        return np.arange(count), np.arange(count)
    same = np.zeros_like(tied)  # sorted rows k and k + 1 are equal
    pairs = np.flatnonzero(tied)
    for k in np.array_split(pairs, -(-len(pairs) * dim // _BLOCK_ELEMENTS) or 1):
        same[k] = (words[order[k]] == words[order[k + 1]]).all(axis=1)
    # Per row, the lowest index of a row equal to it: the head of its run.
    heads = np.concatenate(([True], ~same))
    owner = np.empty_like(order)
    owner[order] = order[heads][np.cumsum(heads) - 1]
    first = np.flatnonzero(owner == np.arange(count))
    return first, np.searchsorted(first, owner)


def _search(
    queries, gallery: Gallery, negate: Sequence[bool]
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per flag of ``negate``, the nearest entry index and cosine distance of
    each row of a (N, D) array-like or of gathered rows, all from one product
    with the gallery. The rows are folded (:func:`_fold`) and the distinct rows used
    are searched in one :func:`_nearest` call, which gathers (unless every row is
    used) and widens a block at a time; copies get their original's bits. Float32
    rows are folded on their own bits."""
    if len(gallery) == 0:
        raise EmptyGallery("cannot retrieve from an empty gallery")
    folded = _fold(queries, "probe", gallery.dim)
    used, spread = np.unique(folded.index, return_inverse=True)
    rows = folded.table
    if len(used) < len(rows):  # else every row is used, in order: sliced, not gathered
        rows = _Take(rows, used)
    picks = _nearest(rows, gallery.matrix, -1.0, tuple(negate))
    return tuple((index[spread], 1.0 - cosine[spread]) for index, cosine in picks)


def retrieve(query: Embedding, gallery: Gallery) -> tuple[str, float]:
    """Nearest gallery entry by cosine distance; ties go to the lowest index."""
    ((index, distance),) = _search(query.values[None, :], gallery, (False,))
    return gallery.labels[int(index[0])], float(distance[0])


def retrieval_reports(
    queries,
    true_labels: Sequence[str],
    gallery: Gallery,
    threshold: float,
    negate: Sequence[bool] = (False, True),
) -> tuple[RetrievalReport, ...]:
    """One :func:`retrieval_report` per flag of ``negate``, all from one
    product of the probes with the gallery.

    Each report has the indices, distance bits and success flags of its
    one-flag call, because negating a product is exact.
    """
    if len(true_labels) == 0:
        raise EmptyList("need at least one probe")
    if not 0.0 <= threshold <= 2.0:
        raise ValueError(f"threshold must be in [0, 2], got {threshold}")
    true_labels = tuple(true_labels)
    # Gallery labels are unique, so a probe's own entry is at most one index.
    position = {label: i for i, label in enumerate(gallery.labels)}
    own = np.array([position.get(label, -1) for label in true_labels], dtype=np.intp)
    reports = []
    for index, distance in _search(queries, gallery, negate):
        if len(index) != len(true_labels):
            raise ShapeMismatch(f"{len(true_labels)} labels for {len(index)} probes")
        success = (index == own) & (distance <= threshold)
        for array in (index, distance, success):
            array.setflags(write=False)
        rate = int(np.count_nonzero(success)) / len(success)
        reports.append(
            RetrievalReport(rate, threshold, true_labels, gallery.labels, index, distance, success)
        )
    return tuple(reports)


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
    return retrieval_reports(queries, true_labels, gallery, threshold, (negate,))[0]


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
) -> RetrievalReport:
    """Fraction of probes whose nearest entry is their own label in range.

    A retrieval at exactly the threshold distance still counts as success.
    """
    return retrieval_report(*_probe_rows(probes), gallery, threshold)


def neg_id_retrieval_rate(
    probes: Sequence[tuple[Embedding, str] | LabeledEmbedding],
    gallery: Gallery,
    threshold: float,
) -> RetrievalReport:
    """Retrieval rate after negating each probe first.

    Measures whether the original identity is recoverable from a fake by
    the cheapest possible inversion.
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
