"""Vector algebra on the unit hypersphere.

Identity embeddings live on the unit sphere in R^D. This module provides
the primitive operations everything else is built from: normalization,
cosine similarity and distance, negation, spherical linear interpolation,
spherical means, and construction of anchor sets by interpolating a list
of mean embeddings against a shifted copy of itself.

Anchor sets, galleries and single embeddings are held as read-only float64
arrays however the caller supplied them. A batch entry keeps a float32
array at its width and widens it a block of rows at a time; any other rows
are used as float64. Either way results do not depend on input dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AntipodalPair,
    DimensionMismatch,
    EmptyList,
    NotUnitNorm,
    TooFewMeans,
    ZeroVector,
)

__all__ = [
    "UNIT_NORM_TOL",
    "Embedding",
    "AnchorProvenance",
    "SkippedPair",
    "AnchorSet",
    "normalize",
    "cosine",
    "cosine_distance",
    "negate",
    "slerp",
    "mean_embedding",
    "build_anchor_set",
]

# Norm tolerance for treating a vector as unit length. Matches the
# precision loss of a single-precision file round trip.
UNIT_NORM_TOL = 1e-6

# Cosine-distance operating point of the reference verifier at a false
# acceptance rate of one in a thousand: the tracker's default match threshold
# (``fiva.tracking``) and the default retrieval threshold.
DEFAULT_MATCH_THRESHOLD = 0.63

# Distance above which ``fiva.detector`` flags a pair by default; chosen so
# genuine re-encodings of the same face land clearly below and identity swaps
# clearly above.
DEFAULT_DETECT_THRESHOLD = 0.6

# Below this norm a vector has no usable direction.
_ZERO_NORM_TOL = 1e-12

# cos(a, b) <= -1 + this means the pair is antipodal for slerp purposes.
_ANTIPODAL_TOL = 1e-6

# cos(a, b) >= 1 - this means the arc is too short for the sine formula;
# fall back to linear interpolation, which is exact in the limit.
_PARALLEL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Embedding:
    """A D-dimensional identity vector.

    Construction does not force unit norm: rows read raw from files stay
    inspectable as-is. Every spherical operation checks the unit-norm
    invariant on entry and raises :class:`NotUnitNorm` when it is violated,
    so unnormalized data cannot silently flow through the algebra.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise DimensionMismatch(
                f"embedding must be a 1-D vector of length >= 2, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    @property
    def is_unit(self) -> bool:
        return abs(self.norm - 1.0) <= UNIT_NORM_TOL

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))

    __hash__ = None  # mutable-array semantics: not hashable

    def __repr__(self) -> str:
        head = np.array2string(self.values[:4], precision=4, separator=", ")
        tail = ", ..." if self.dim > 4 else ""
        return f"Embedding(dim={self.dim}, values={head[:-1]}{tail}])"


def _require_unit(e: Embedding, name: str = "embedding") -> None:
    if not e.is_unit:
        raise NotUnitNorm(
            f"{name} has norm {e.norm:.8f}, expected 1 within {UNIT_NORM_TOL:g}"
        )


def _stack(embeddings: Sequence[Embedding], name: str = "embedding") -> np.ndarray:
    """Stack same-dimension embeddings into a (N, D) array; (0, 0) when empty."""
    if not embeddings:
        return np.empty((0, 0), dtype=np.float64)
    dim = embeddings[0].dim
    for i, e in enumerate(embeddings):
        if e.dim != dim:
            raise DimensionMismatch(f"{name} {i} has dimension {e.dim}, expected {dim}")
    return np.stack([e.values for e in embeddings])


def _rows_of(items, name: str) -> np.ndarray:
    """:func:`_unit_matrix` of an (N, D) array widened to float64, or of a
    sequence of embeddings stacked: their callers compute on the whole array.
    Rows checked when read are taken whole (:func:`_frozen`), not checked again."""
    if isinstance(items, _CheckedRows):
        return _frozen(items)
    rows = items if isinstance(items, np.ndarray) else _stack(list(items), name)
    return _unit_matrix(np.asarray(rows, dtype=np.float64), name)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products. numpy runs a stack of (1, D) @ (D, 1) products as
    one BLAS dot per row, so each value has the bits of ``np.dot`` (einsum's
    do not)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _as_rows(rows, name: str, dim: int | None = None) -> np.ndarray | _CheckedRows | _Take:
    """``rows`` as an (N, D) array, D >= 2 (== ``dim`` if given); (0, ·) passes. A
    float32 array, gathered rows and rows checked when read pass as they are; any
    other rows become float64."""
    kept = isinstance(rows, (_CheckedRows, _Take)) or getattr(rows, "dtype", None) == np.float32
    arr = rows if kept else np.asarray(rows, dtype=np.float64)
    if len(arr.shape) != 2 or (len(arr) and (arr.shape[1] < 2 or dim not in (None, arr.shape[1]))):
        want = "D >= 2" if dim is None else f"D = {dim}"
        raise DimensionMismatch(
            f"{name} rows must form an (N, D) array with {want}, got shape {arr.shape}"
        )
    return arr


def _check_norms(
    arr: np.ndarray,
    name: str,
    renormalize: bool = False,
    tol: float = UNIT_NORM_TOL,
    first: int = 0,
) -> np.ndarray:
    """The row norms of a float64 (N, D) array. Raises :class:`NotUnitNorm`
    naming its first row off the sphere (NaN included), or with ``renormalize``
    :class:`ZeroVector` naming its first row of norm <= 1e-12 or not finite;
    rows are counted from ``first``."""
    norms = np.sqrt(_row_dots(arr, arr))
    if renormalize:
        bad = np.flatnonzero(~(np.isfinite(norms) & (norms > _ZERO_NORM_TOL)))
        if bad.size:
            raise ZeroVector(
                f"cannot normalize {name} {first + bad[0]} with norm {norms[bad[0]]:g}"
            )
    else:
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= tol))
        if bad.size:
            raise NotUnitNorm(
                f"{name} {first + bad[0]} has norm {norms[bad[0]]:.8f}, expected 1 within {tol:g}"
            )
    return norms


def _unit_matrix(
    rows, name: str, dim: int | None = None, tol: float = UNIT_NORM_TOL
) -> np.ndarray | _CheckedRows:
    """The entry check of every batch: :func:`_as_rows`, then :class:`NotUnitNorm`
    naming the first row off the sphere (NaN included). Norms are checked a block
    of rows at a time, each widened to float64, so a float32 array kept at its
    width raises what checking it widened whole raises; kernels that take one
    widen the rows they slice. Rows checked when read are not checked again."""
    arr = _as_rows(rows, name, dim)
    if not isinstance(arr, _CheckedRows):
        for part in _row_blocks(arr):
            _check_norms(arr[part].astype(np.float64, copy=False), name, tol=tol, first=part.start)
    return arr


def _frozen(matrix) -> np.ndarray:
    """``matrix`` as a read-only float64 array: a float64 array that owns its data
    and is read-only already, as the file loaders return, is kept; rows checked as
    they are read (:class:`_CheckedRows`) are their ``whole`` array where a loader
    holds them so, else read whole into a fresh one; any other rows, a caller's
    writable array included, are copied."""
    if isinstance(matrix, _CheckedRows):
        matrix = matrix.read(0, len(matrix), np.empty(matrix.shape)) if matrix.whole is None else matrix.whole
        matrix.flags.writeable = False
    kept = isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
    if not (kept and matrix.flags.owndata and not matrix.flags.writeable):
        matrix = np.array(matrix, dtype=np.float64)
        matrix.flags.writeable = False
    return matrix


def _normalize_rows(rows, name: str = "row") -> np.ndarray:
    """:func:`_as_rows` as float64 projected onto the sphere, each row with the bits
    of ``row / np.linalg.norm(row)`` (a matrix ``np.linalg.norm`` differs). Raises
    :class:`ZeroVector` naming the first row of norm <= 1e-12 or not finite."""
    arr = _as_rows(np.asarray(rows, dtype=np.float64), name)
    return arr / _check_norms(arr, name, renormalize=True)[:, None]


# Most query rows per block of the nearest-row kernel. Half of it is the
# GEMM-throughput floor: the kernel's cap on a block's rows shrinks with the
# reference count K but not below it, as fewer rows would not amortize packing
# the (K, D) reference operand.
_BLOCK_ROWS = 256

# Cells of one block's temporaries in the kernels whose blocks grow with a
# second size (stored identities, frames per video, reference rows down to the
# nearest-row kernel's floor): bounds a block's memory whatever that size.
_BLOCK_ELEMENTS = 1 << 18
# Cells of one row slice of the nearest-row kernel's pick: 512 KiB of float64, an L2 cache's worth.
_PICK_ELEMENTS = 1 << 16


def _tie(dim: int) -> float:
    """Rounding slack of a D-term dot product: values this close count as equal."""
    return dim * np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class _Take:
    """The rows ``table[index]``, gathered only a slice of ``index`` at a time:
    a corpus that repeats a few rows many times, held as the rows and an index.
    ``folded`` marks checked unit rows whose index entries are equal exactly when
    their rows are bit-equal: rows that are their own fold."""

    table: np.ndarray
    index: np.ndarray
    folded: bool = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.index.shape + self.table.shape[1:]

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, part: slice) -> np.ndarray:
        return self.table[self.index[part]]


@dataclass(frozen=True, eq=False)
class _CheckedRows:
    """Unit rows checked whole when they were read, then served as float64 a
    slice at a time by ``read(start, stop)``: the protocol of :class:`_Take`.
    Kernels that only slice their rows take these in place of an array. Rows a
    loader holds in memory are also ``whole``, one read-only float64 array that
    owns its data."""

    shape: tuple[int, int]
    read: Callable[..., np.ndarray]
    whole: np.ndarray | None = None

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def dim(self) -> int:
        return self.shape[1]

    def __getitem__(self, part: slice) -> np.ndarray:
        start, stop, _ = part.indices(self.shape[0])
        return self.read(start, max(start, stop))


def _row_blocks(rows) -> Iterator[slice]:
    """The slices of 2-D rows (an array, gathered or checked rows) into blocks
    of at most ``_BLOCK_ELEMENTS`` cells (or one row)."""
    count, dim = rows.shape
    step = max(1, _BLOCK_ELEMENTS // max(1, dim))
    return (slice(start, start + step) for start in range(0, count, step))


def _block_products(block: np.ndarray, matrix: np.ndarray, out=None) -> np.ndarray:
    """``clip(block @ matrix.T, -1, 1)``, into ``out`` if given; numpy runs a lone
    row as the GEMV ``matrix @ q``."""
    sims = np.matmul(block, matrix.T, out=out)
    return np.clip(sims, -1.0, 1.0, out=sims)


def _pick(objective: np.ndarray, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """Per row, the lowest column within ``_tie(dim)`` of the row's minimum.

    BLAS rounds a product by a few ulps differently depending on its place
    in a block or in the matrix, so near-equal values are ties and the
    lowest index wins. ``out`` takes the tie mask.
    """
    limit = objective.min(axis=1, keepdims=True) + _tie(dim)
    return np.argmax(np.less_equal(objective, limit, out=out), axis=1)


class _Scratch:
    """Buffers kept from one call to the next, each grown to the largest size
    asked of it. A caller that searches many small batches passes one, so the
    buffers' pages are mapped once instead of on every call. A buffer that
    grows takes at least twice its last size, up to ``cap`` cells (a block's,
    ``_BLOCK_ELEMENTS``, by default), so a need that creeps up call by call, as a
    tracker's lookups do while its store fills, regrows it a few times, not on
    every call."""

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def __call__(self, key: str, shape: tuple[int, ...], dtype=np.float64, cap=None) -> np.ndarray:
        size = math.prod(shape)
        if key not in self._flat or self._flat[key].size < size:
            # freed before its larger successor is made
            last = self._flat.pop(key).size if key in self._flat else 0
            self._flat[key] = np.empty(max(size, min(2 * last, cap or _BLOCK_ELEMENTS)), dtype)
        return self._flat[key][:size].reshape(shape)


def _nearest(queries: np.ndarray, matrix: np.ndarray, m: float, negate=False, scratch=None):
    """Per query row, the ``matrix`` row minimizing ``|cos + m|``, and that cosine.

    Cosines are ``clip(q . row, -1, 1)``, of ``-q`` with ``negate``. Queries
    run in the fewest balanced blocks of at most ``_BLOCK_ELEMENTS // K``
    rows, that cap clamped to ``[_BLOCK_ROWS // 2, _BLOCK_ROWS]`` (see
    :func:`_block_products`), each widened to float64 as it is sliced, and
    ties follow :func:`_pick`. With OpenBLAS a GEMM row's bits do not depend
    on its block's row count past one row, so the blocking leaves them alone.
    With ``m = -1``, ``|c - 1|`` is exactly the distance ``1 - c``.

    ``negate`` may also be a tuple of flags: the result is then one
    ``(index, cosine)`` pair per flag, all picked from the same products.
    Negation is exact, so each pair has the bits of a one-flag call.

    Products go to one buffer reused by every block, at most
    ``max(_BLOCK_ELEMENTS, _BLOCK_ROWS // 2 * K)`` cells. Picks run in row slices of
    ``_PICK_ELEMENTS`` cells (or one row), in two buffers of at most that size reused
    for all: the tie mask and ``|c + m|``, or ``|c - m|`` (the bits of ``|-c + m|``).
    The buffers come from ``scratch`` (a :class:`_Scratch`), or a fresh one.
    """
    flags = negate if isinstance(negate, tuple) else (negate,)
    count, dim = queries.shape
    picks = tuple(
        (np.empty(count, dtype=np.intp), np.empty(count, dtype=np.float64)) for _ in flags
    )
    rows = min(_BLOCK_ROWS, max(_BLOCK_ROWS // 2, _BLOCK_ELEMENTS // max(1, len(matrix))))
    step = max(1, _PICK_ELEMENTS // max(1, len(matrix)))
    blocks = -(-count // rows)
    bounds = [count * i // max(blocks, 1) for i in range(blocks + 1)]
    scratch = scratch or _Scratch()
    products = scratch("products", (min(count, rows), len(matrix)))
    objective = scratch("objective", (min(step, rows, count), len(matrix)), cap=_PICK_ELEMENTS)
    tied = scratch("tied", objective.shape, bool, cap=_PICK_ELEMENTS)
    for start, stop in zip(bounds, bounds[1:]):
        block = np.asarray(queries[start:stop], dtype=np.float64)
        sims = _block_products(block, matrix, products[: stop - start])
        del block  # released before the next block is gathered
        for lo in range(0, stop - start, step):
            part = sims[lo : lo + step]
            obj, mask = objective[: len(part)], tied[: len(part)]
            span = slice(start + lo, start + lo + len(part))
            for flag, (index, cosine) in zip(flags, picks):
                np.abs(np.add(part, -m if flag else m, out=obj), out=obj)
                index[span] = best = _pick(obj, dim, out=mask)
                cosine[span] = part[np.arange(len(part)), best] * (-1.0 if flag else 1.0)
    return picks if isinstance(negate, tuple) else picks[0]


def _require_same_dim(a: Embedding, b: Embedding) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def normalize(vector: Iterable[float] | np.ndarray) -> Embedding:
    """Project a raw vector onto the unit sphere.

    Args:
        vector: any 1-D sequence of reals with length >= 2.

    Returns:
        An :class:`Embedding` pointing the same way with norm 1.

    Raises:
        DimensionMismatch: if the input is not 1-D or shorter than 2.
        ZeroVector: if the norm is below 1e-12, leaving no direction.
    """
    arr = np.asarray(vector, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise DimensionMismatch(
            f"cannot normalize input of shape {arr.shape}; need a 1-D vector of length >= 2"
        )
    return Embedding(_normalize_rows(arr[None, :], "vector")[0])


def cosine(a: Embedding, b: Embedding) -> float:
    """Cosine similarity of two unit embeddings, clamped to [-1, 1]."""
    _require_same_dim(a, b)
    _require_unit(a, "first embedding")
    _require_unit(b, "second embedding")
    return float(np.clip(np.dot(a.values, b.values), -1.0, 1.0))


def cosine_distance(a: Embedding, b: Embedding) -> float:
    """Cosine distance 1 - cos(a, b), in [0, 2]."""
    return 1.0 - cosine(a, b)


def negate(z: Embedding) -> Embedding:
    """The antipodal embedding -z. Involutive bit-for-bit."""
    _require_unit(z)
    return Embedding(np.negative(z.values))


def _slerp_rows(a: np.ndarray, b: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Slerp at ``t`` of each row pair of two (N, D) unit arrays: the mask of the
    pairs that are not antipodal, and their results. Each result has the bits of
    the one-pair formula, so the coefficients come from ``math.acos`` and
    ``math.sin`` on the row's cosine (``np.arccos`` rounds differently)."""
    cos = np.clip(_row_dots(a, b), -1.0, 1.0)
    keep = cos > -1.0 + _ANTIPODAL_TOL
    cos = cos[keep]
    arc = cos < 1.0 - _PARALLEL_TOL  # else the chord: the sine formula degenerates
    weights = np.tile([1.0 - t, t, 1.0], (len(cos), 1))
    for row, c in zip(np.flatnonzero(arc).tolist(), cos[arc].tolist()):
        omega = math.acos(c)
        weights[row] = math.sin((1.0 - t) * omega), math.sin(t * omega), math.sin(omega)
    wa, wb, scale = weights.T[:, :, None]
    return keep, _normalize_rows((wa * a[keep] + wb * b[keep]) / scale)


def _antipodal(a: np.ndarray, b: np.ndarray) -> AntipodalPair:
    c = float(np.clip(np.dot(a, b), -1.0, 1.0))
    return AntipodalPair(f"cannot interpolate antipodal embeddings (cosine {c:.8f})")


def slerp(a: Embedding, b: Embedding, t: float) -> Embedding:
    """Spherical linear interpolation between two unit embeddings.

    Walks the great-circle arc from ``a`` (t = 0) to ``b`` (t = 1) at
    constant angular speed and re-normalizes the result so accumulated
    rounding cannot drift off the sphere.

    Args:
        a: start embedding, unit norm.
        b: end embedding, unit norm, same dimension.
        t: interpolation parameter in [0, 1].

    Raises:
        AntipodalPair: if cos(a, b) <= -1 + 1e-6; the arc midpoint is
            undefined for opposite vectors.
        ValueError: if ``t`` is outside [0, 1].
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation parameter must be in [0, 1], got {t}")
    if cosine(a, b) <= -1.0 + _ANTIPODAL_TOL:
        raise _antipodal(a.values, b.values)
    return Embedding(_slerp_rows(a.values[None, :], b.values[None, :], t)[1][0])


def mean_embedding(members: Sequence[Embedding]) -> Embedding:
    """Normalized arithmetic mean of a non-empty list of unit embeddings.

    Raises:
        EmptyList: if ``members`` is empty.
        DimensionMismatch: if dimensions disagree.
        ZeroVector: if the members cancel out (mean norm <= 1e-12).
    """
    rows = _rows_of(members, "member")
    if not len(rows):
        raise EmptyList("cannot average an empty list of embeddings")
    return normalize(rows.mean(axis=0))


@dataclass(frozen=True)
class AnchorProvenance:
    """Where one anchor came from: generation round, source pair, and t.

    Source indices refer to the input means for round 1 and to the previous
    round's output for later rounds.
    """

    round_index: int
    source_a: int
    source_b: int
    t: float


@dataclass(frozen=True)
class SkippedPair:
    """A source pair skipped during anchor construction for being antipodal."""

    round_index: int
    source_a: int
    source_b: int


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """An ordered collection of unit anchors available for sampling, held as a
    read-only (K, D) float64 array: the rows a loader returns, kept without a
    copy, rows checked as they were read, not checked again (kept without a copy
    where a loader holds them whole), or a copy of any other rows given (see
    :func:`_frozen`).

    ``provenance`` is populated by :func:`build_anchor_set`; anchor sets
    loaded back from plain embedding files carry ``None`` because the file
    format does not store construction history.
    """

    matrix: np.ndarray
    provenance: tuple[AnchorProvenance, ...] | None = None
    rounds: int = 0
    skipped: tuple[SkippedPair, ...] = ()

    def __post_init__(self) -> None:
        matrix = _frozen(_unit_matrix(self.matrix, "anchor"))
        object.__setattr__(self, "matrix", matrix)
        if self.provenance is not None:
            prov = tuple(self.provenance)
            object.__setattr__(self, "provenance", prov)
            if len(prov) != len(matrix):
                raise DimensionMismatch(
                    f"{len(prov)} provenance records for {len(matrix)} anchors"
                )
        object.__setattr__(self, "skipped", tuple(self.skipped))

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def anchors(self) -> tuple[Embedding, ...]:
        return tuple(Embedding(row) for row in self.matrix)

    @property
    def dim(self) -> int | None:
        return self.matrix.shape[1] if len(self.matrix) else None

    @classmethod
    def from_embeddings(cls, embeddings: Iterable[Embedding]) -> "AnchorSet":
        return cls(_stack(list(embeddings), "anchor"))


def build_anchor_set(means, rounds: int = 1, t: float = 0.5) -> AnchorSet:
    """Build anchors by interpolating a mean list against its shifted self.

    Round 1 pairs ``means[i]`` with ``means[(i + 1) % N]`` and takes the
    slerp at ``t``. Each later round applies the same shift-and-slerp to
    the previous round's output and appends, so with no skips the final
    count is ``rounds * N``. Antipodal pairs cannot be interpolated; they
    are skipped and recorded instead of aborting the build.

    Args:
        means: at least two unit embeddings of equal dimension, or their
            (N, D) array.
        rounds: how many generations to run (>= 1).
        t: interpolation parameter, strictly inside (0, 1).
    """
    current = _rows_of(means, "mean")
    if len(current) < 2:
        raise TooFewMeans(f"need at least 2 means to build anchors, got {len(current)}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if not 0.0 < t < 1.0:
        raise ValueError(f"interpolation parameter must be in (0, 1), got {t}")

    produced, provenance, skipped = [], [], []
    for round_index in range(1, rounds + 1):
        keep, current = _slerp_rows(current, np.roll(current, -1, axis=0), t)
        for i, kept in enumerate(keep.tolist()):
            j = (i + 1) % len(keep)
            if kept:
                provenance.append(AnchorProvenance(round_index, i, j, t))
            else:
                skipped.append(SkippedPair(round_index, i, j))
        produced.append(current)
    anchors = np.concatenate(produced)
    anchors.flags.writeable = False  # the anchor set keeps these rows without a copy
    return AnchorSet(anchors, provenance, rounds, skipped)
