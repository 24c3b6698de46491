"""Labeled embeddings and retrieval galleries."""

from __future__ import annotations

from dataclasses import dataclass

from .sphere import Embedding, _stack, _unit_matrix

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
    """An ordered set of labeled unit embeddings with unique labels."""

    entries: tuple[LabeledEmbedding, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        seen: set[str] = set()
        for entry in entries:
            if entry.label in seen:
                raise ValueError(f"duplicate gallery label {entry.label!r}")
            seen.add(entry.label)
        rows = _stack([entry.embedding for entry in entries], "entry")
        matrix = _unit_matrix(rows, "gallery entry")
        matrix.setflags(write=False)
        # The entries stacked row-wise as a read-only (N, D) float64 array.
        object.__setattr__(self, "matrix", matrix)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def labels(self) -> list[str]:
        return [entry.label for entry in self.entries]

    @property
    def embeddings(self) -> list[Embedding]:
        return [entry.embedding for entry in self.entries]

    @property
    def dim(self) -> int | None:
        return self.entries[0].embedding.dim if self.entries else None
