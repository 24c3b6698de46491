"""Labeled embeddings and retrieval galleries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import LabelCountMismatch
from .sphere import Embedding, _frozen, _stack, _unit_matrix

__all__ = ["LabeledEmbedding", "Gallery"]


@dataclass(frozen=True)
class LabeledEmbedding:
    """An embedding tagged with a non-empty identity label."""

    label: str
    embedding: Embedding

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("label must be non-empty")


@dataclass(frozen=True, eq=False)
class Gallery:
    """An ordered set of labeled unit embeddings with unique labels, held as a
    read-only (N, D) float64 array and one label per row. The rows a loader
    returns are kept without a copy, and rows checked as they were read are not
    checked again; any other rows given are copied (see
    :func:`fiva.sphere._frozen`)."""

    matrix: np.ndarray
    labels: list[str]

    def __post_init__(self) -> None:
        labels = list(self.labels)
        seen: set[str] = set()
        for label in labels:
            if not label or label in seen:
                raise ValueError(f"gallery labels must be non-empty and unique, got {label!r}")
            seen.add(label)
        matrix = _frozen(_unit_matrix(self.matrix, "gallery entry"))
        if len(labels) != len(matrix):
            raise LabelCountMismatch(f"{len(labels)} labels for {len(matrix)} gallery entries")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_entries(cls, entries: Iterable[LabeledEmbedding]) -> "Gallery":
        entries = tuple(entries)
        return cls(_stack([e.embedding for e in entries], "entry"), [e.label for e in entries])

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def entries(self) -> tuple[LabeledEmbedding, ...]:
        return tuple(LabeledEmbedding(*pair) for pair in zip(self.labels, self.embeddings))

    @property
    def embeddings(self) -> list[Embedding]:
        return [Embedding(row) for row in self.matrix]

    @property
    def dim(self) -> int | None:
        return self.matrix.shape[1] if len(self.matrix) else None
