"""Deepfake scoring by identity displacement.

A manipulated face keeps its pixels plausible but moves its identity
embedding; the cosine distance between the input and output embeddings of
a pipeline is therefore a direct fakeness score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyList, ShapeMismatch
from .sphere import Embedding, _row_blocks, _row_dots, _stack, _unit_matrix, cosine_distance

__all__ = [
    "DEFAULT_DETECT_THRESHOLD",
    "HISTOGRAM_BINS",
    "DetectionScore",
    "ScoreDistribution",
    "detect",
    "score_distribution",
    "score_rows",
]

# Distance above which a pair is flagged; chosen so genuine re-encodings
# of the same face land clearly below and identity swaps clearly above.
DEFAULT_DETECT_THRESHOLD = 0.6

HISTOGRAM_BINS = 40


def _check_threshold(threshold: float) -> float:
    """``threshold``, once it is a detection threshold in (0, 2)."""
    if not 0.0 < threshold < 2.0:
        raise ValueError(f"threshold must be in (0, 2), got {threshold}")
    return threshold


@dataclass(frozen=True)
class DetectionScore:
    distance: float
    is_fake: bool
    threshold: float


@dataclass(frozen=True)
class ScoreDistribution:
    """Scores of a corpus plus exact summary statistics and a histogram.

    The histogram has :data:`HISTOGRAM_BINS` equal bins spanning [0, 2].
    """

    scores: tuple[float, ...]
    mean: float
    std: float
    score_min: float
    score_max: float
    histogram: tuple[int, ...]


def detect(
    z_in: Embedding, z_out: Embedding, threshold: float = DEFAULT_DETECT_THRESHOLD
) -> DetectionScore:
    """Score one input/output pair; fake means distance strictly above threshold."""
    _check_threshold(threshold)
    distance = cosine_distance(z_in, z_out)
    return DetectionScore(distance, distance > threshold, threshold)


def score_rows(inputs, outputs) -> ScoreDistribution:
    """Distance distribution over the aligned rows of two (N, D) unit array-likes.

    Row-wise products, one block of pairs at a time, each widened to float64;
    each score has the bits of :func:`~fiva.sphere.cosine_distance` on its pair.
    """
    inputs = _unit_matrix(inputs, "input embedding")
    outputs = _unit_matrix(outputs, "output embedding", inputs.shape[1])
    if len(inputs) != len(outputs):
        raise ShapeMismatch(
            f"{len(inputs)} input embeddings vs {len(outputs)} output embeddings"
        )
    if len(inputs) == 0:
        raise EmptyList("need at least one embedding pair")
    scores = np.empty(len(inputs))
    for part in _row_blocks(inputs):
        scores[part] = _row_dots(*(np.asarray(x[part], dtype=np.float64) for x in (inputs, outputs)))
    scores = 1.0 - np.clip(scores, -1.0, 1.0)
    counts, _ = np.histogram(scores, bins=HISTOGRAM_BINS, range=(0.0, 2.0))
    return ScoreDistribution(
        scores=tuple(scores.tolist()),
        mean=float(np.mean(scores)),
        std=float(np.std(scores)),
        score_min=float(np.min(scores)),
        score_max=float(np.max(scores)),
        histogram=tuple(int(c) for c in counts),
    )


def score_distribution(
    pairs: Sequence[tuple[Embedding, Embedding]],
) -> ScoreDistribution:
    """Distance distribution over a corpus of (input, output) pairs."""
    pairs = list(pairs)
    inputs = _stack([a for a, _ in pairs], "input embedding")
    return score_rows(inputs, _stack([b for _, b in pairs], "output embedding"))
