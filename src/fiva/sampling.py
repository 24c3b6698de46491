"""Fake-identity sampling from an anchor set.

Given a real identity embedding z and a margin m, the sampler picks the
anchor minimizing |cos(z, anchor) + m|, i.e. the anchor whose similarity
to z is closest to the target value -m. A margin of 0 therefore finds the
anchor most orthogonal to z, which is simultaneously far from z and from
its negation -z, so neither the identity nor its trivial inverse leaks
into the fake.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyAnchorSet
from .sphere import AnchorSet, Embedding, _nearest, _unit_matrix

__all__ = ["SampleResult", "sample_batch", "sample_fake"]


def _check_margin(m: float) -> float:
    """``m``, once it is a margin in [-1, 1]."""
    if not -1.0 <= m <= 1.0:
        raise ValueError(f"margin must be in [-1, 1], got {m}")
    return m


@dataclass(frozen=True)
class SampleResult:
    """Outcome of one sampling call."""

    anchor_index: int
    fake_identity: Embedding
    achieved_cosine: float


def sample_batch(
    queries, anchors: AnchorSet, m: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sample_fake` for each unit row of a (Q, D) array-like.

    Returns the chosen anchor indices and achieved cosines as two length-Q
    arrays. Raises as :func:`sample_fake` does; :class:`NotUnitNorm` names
    the first query row off the sphere.
    """
    if len(anchors) == 0:
        raise EmptyAnchorSet("cannot sample from an empty anchor set")
    _check_margin(m)
    return _nearest(_unit_matrix(queries, "query embedding", anchors.dim), anchors.matrix, m)


def sample_fake(z_id: Embedding, anchors: AnchorSet, m: float = 0.0) -> SampleResult:
    """Select the anchor whose cosine to ``z_id`` is closest to ``-m``.

    Ties are broken toward the lowest anchor index, so the result is a
    pure function of its inputs.

    Args:
        z_id: the identity to anonymize, unit norm.
        anchors: non-empty anchor set of matching dimension.
        m: margin in [-1, 1]; the sampler targets cosine ``-m``.

    Raises:
        EmptyAnchorSet: if the anchor set has no anchors.
        DimensionMismatch: if dimensions disagree.
    """
    index, cosine = sample_batch(z_id.values[None, :], anchors, m)
    chosen = int(index[0])
    return SampleResult(chosen, Embedding(anchors.matrix[chosen]), float(cosine[0]))
