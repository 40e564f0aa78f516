"""Embedding storage, UCEB file I/O, feature fusion, and synthetic datasets.

UCEB file layout (all little-endian, no padding between sections):

    magic   4 bytes  b"UCEB"
    version u32      1
    n       u64      row count
    d       u32      embedding dimension
    flags   u32      bit0 set when a label block is present
    vectors n*d      IEEE-754 binary32, row-major
    labels  n        i64, only when flags bit0 is set
    ids     n        entries of (u16 byte length, UTF-8 bytes)
"""

import copy
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    DegenerateVectorError,
    DimensionMismatchError,
    DuplicateIdError,
    InvalidDimensionError,
    TruncatedPayloadError,
    UcebFormatError,
    UnsupportedVersionError,
    ValidationError,
)
from .rng import stream_rng
from .util import BLOCK_ROWS, ratio_count, unit_rows

UCEB_MAGIC = b"UCEB"
UCEB_VERSION = 1
_HEADER = struct.Struct("<4sIQII")
_FLAG_LABELS = 1


def _checked_vectors(vectors) -> np.ndarray:
    """`vectors` as a C-ordered float32 (n, d) array, n and d positive and
    every value finite."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise ValidationError("vectors must be a 2-D array")
    n, d = vectors.shape
    if n == 0:
        raise ValidationError("empty embedding sets are not allowed")
    if d == 0:
        raise ValidationError("embedding dimension must be positive")
    if not np.isfinite(vectors).all():
        bad = int(np.flatnonzero(~np.isfinite(vectors).all(axis=1))[0])
        raise ValidationError(f"row {bad} holds a NaN or infinite value")
    return vectors


def _checked_labels(labels, n: int):
    """`labels` as int64 class indices, one non-negative entry per row of
    n, or None when there are none."""
    if labels is None:
        return None
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise DimensionMismatchError("labels must have one entry per row")
    if np.any(labels < 0):
        raise ValidationError("labels must be non-negative")
    return labels


class EmbeddingSet:
    """A fixed collection of row embeddings with unique string ids.

    Vectors are held as float32, matching their on-disk representation, so
    a save/load round trip is bitwise exact; every value must be finite.
    Labels are optional int64 class indices; gaps in the label range are
    allowed.
    """

    def __init__(self, vectors: np.ndarray, ids: list[str], labels=None):
        vectors = _checked_vectors(vectors)
        n = vectors.shape[0]
        ids = [str(i) for i in ids]
        if len(ids) != n:
            raise DimensionMismatchError(f"{len(ids)} ids for {n} rows")
        if len(set(ids)) != n:
            raise DuplicateIdError("ids are not pairwise distinct")
        self.vectors = vectors
        self.ids = ids
        self.labels = _checked_labels(labels, n)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def with_labels(self, labels) -> "EmbeddingSet":
        """This set with `labels` in place of its own. The vectors and ids,
        checked when this set was built, are shared and not checked again."""
        out = copy.copy(self)
        out.labels = _checked_labels(labels, self.count)
        return out

    def with_vectors(self, vectors) -> "EmbeddingSet":
        """This set with `vectors`, one row per id, in place of its own. The
        ids and labels, checked when this set was built, are shared and not
        checked again."""
        vectors = _checked_vectors(vectors)
        if vectors.shape[0] != self.count:
            raise DimensionMismatchError(f"{vectors.shape[0]} rows for {self.count} ids")
        out = copy.copy(self)
        out.vectors = vectors
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingSet):
            return NotImplemented
        same_labels = (
            (self.labels is None and other.labels is None)
            or (
                self.labels is not None
                and other.labels is not None
                and np.array_equal(self.labels, other.labels)
            )
        )
        return (
            self.vectors.tobytes() == other.vectors.tobytes()
            and self.ids == other.ids
            and same_labels
        )

    def __repr__(self) -> str:
        lab = "labeled" if self.labels is not None else "unlabeled"
        return f"EmbeddingSet(n={self.count}, d={self.dim}, {lab})"


@dataclass
class SyntheticSpec:
    """Parameters for a conflict-controlled synthetic dataset.

    `conflict_ratio` is the fraction of true classes whose samples are
    split between two distinct pseudo labels, the failure mode that
    automatic clustering introduces when one concept lands in two
    clusters.
    """

    true_classes: int
    per_class: int
    dim: int
    intra_noise: float = 0.1
    conflict_ratio: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.true_classes < 2:
            raise ValidationError("true_classes must be >= 2")
        if self.per_class < 2:
            raise ValidationError("per_class must be >= 2")
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if not (math.isfinite(self.intra_noise) and self.intra_noise >= 0):
            raise ValidationError("intra_noise must be finite and >= 0")
        if not 0.0 <= self.conflict_ratio <= 1.0:
            raise ValidationError("conflict_ratio must lie in [0, 1]")

    @property
    def pseudo_classes(self) -> int:
        return self.true_classes + ratio_count(self.true_classes, self.conflict_ratio)


def save_embeddings(embeddings: EmbeddingSet, path) -> None:
    """Write `embeddings` to `path` in the UCEB format.

    An existing file at `path` is removed first and a new one created, so
    the write does not wait for the old contents to be flushed; a symlink
    at `path` is replaced by the file, not written through.
    """
    flags = _FLAG_LABELS if embeddings.labels is not None else 0
    header = _HEADER.pack(
        UCEB_MAGIC, UCEB_VERSION, embeddings.count, embeddings.dim, flags
    )
    path = Path(path)
    path.unlink(missing_ok=True)
    with path.open("wb") as fh:
        fh.write(header)
        fh.write(embeddings.vectors.astype("<f4", copy=False).tobytes())
        if embeddings.labels is not None:
            fh.write(embeddings.labels.astype("<i8", copy=False).tobytes())
        table = bytearray()
        for item in embeddings.ids:
            raw = item.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValidationError(f"id too long to encode: {item[:32]}...")
            table += len(raw).to_bytes(2, "little") + raw
        fh.write(table)


def load_embeddings(path) -> EmbeddingSet:
    """Read a UCEB file, returning the stored vectors verbatim."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        if blob[:4] != UCEB_MAGIC:
            raise BadMagicError(f"not a UCEB file: {path}")
        raise TruncatedPayloadError(f"header truncated: {path}")
    magic, version, n, d, flags = _HEADER.unpack_from(blob, 0)
    if magic != UCEB_MAGIC:
        raise BadMagicError(f"bad magic {magic!r} in {path}")
    if version != UCEB_VERSION:
        raise UnsupportedVersionError(f"unsupported UCEB version {version}")
    if d == 0:
        raise InvalidDimensionError(f"zero embedding dimension in {path}")
    if n == 0:
        raise InvalidDimensionError(f"empty embedding set in {path}")

    offset = _HEADER.size
    vec_bytes = n * d * 4
    if len(blob) < offset + vec_bytes:
        raise TruncatedPayloadError(f"vector block truncated in {path}")
    vectors = np.frombuffer(blob, dtype="<f4", count=n * d, offset=offset)
    vectors = vectors.reshape(n, d).copy()
    offset += vec_bytes

    labels = None
    if flags & _FLAG_LABELS:
        if len(blob) < offset + n * 8:
            raise TruncatedPayloadError(f"label block truncated in {path}")
        labels = np.frombuffer(blob, dtype="<i8", count=n, offset=offset).copy()
        offset += n * 8

    ids: list[str] = []
    size = len(blob)
    try:
        for row in range(n):
            # One bounds check per id: a length field or an id that runs
            # past the end of the file is an IndexError.
            start = offset + 2
            end = start + (blob[offset] | blob[offset + 1] << 8)
            if end > size:
                raise IndexError
            ids.append(blob[start:end].decode("utf-8"))
            offset = end
    except IndexError:
        raise TruncatedPayloadError(f"id table truncated in {path}") from None
    except UnicodeDecodeError:
        raise UcebFormatError(f"id of row {row} is not valid UTF-8 in {path}") from None
    if offset != len(blob):
        raise UcebFormatError(f"{len(blob) - offset} trailing bytes in {path}")

    try:
        return EmbeddingSet(vectors, ids, labels)
    except DuplicateIdError:
        raise DuplicateIdError(f"duplicate ids in {path}") from None


def ensemble_features(image: EmbeddingSet, text: EmbeddingSet) -> EmbeddingSet:
    """Fuse two aligned embedding sets by averaging matched rows.

    Row i of the result is (image_i + text_i) / 2, renormalized to unit
    length so downstream cosine computations stay well defined. The two
    sets must agree on shape and carry identical ids in identical order.
    """
    if image.count != text.count or image.dim != text.dim:
        raise DimensionMismatchError(
            f"cannot fuse {image.count}x{image.dim} with {text.count}x{text.dim}"
        )
    if image.ids != text.ids:
        raise ValidationError("ids of the two sets are not matched by position")
    fused = (image.vectors.astype(np.float64) + text.vectors.astype(np.float64)) / 2.0
    norms = np.linalg.norm(fused, axis=1)
    if np.any(norms < 1e-9):
        bad = int(np.argmin(norms))
        raise DegenerateVectorError(
            f"fused row {bad} is degenerate (inputs nearly antipodal)"
        )
    fused /= norms[:, None]
    return EmbeddingSet(fused.astype(np.float32), list(image.ids))


def synth_conflict_dataset(spec: SyntheticSpec):
    """Generate a labeled synthetic dataset with controlled class conflict.

    Class centers are drawn uniformly on the unit sphere; each sample is
    its center plus isotropic Gaussian noise, renormalized. A random
    subset of round(C * conflict_ratio) true classes is "conflicted": its
    samples are split evenly (after a random shuffle) between the original
    pseudo label and a fresh one, mimicking one concept that clustering
    assigned to two clusters.

    Takes O(n) time for n = C * per_class samples; beyond the float32
    output and the (C, d) centers it needs one block of BLOCK_ROWS rows.

    Returns (embedding set carrying pseudo labels, true labels array).
    """
    c, m, d = spec.true_classes, spec.per_class, spec.dim
    n = c * m

    center_rng = stream_rng(spec.seed, "synth-centers")
    centers = unit_rows(center_rng.standard_normal((c, d)))

    # Blocks of rows draw their noise one after the other, which consumes
    # the stream exactly as one (n, d) draw would, and each block takes the
    # same two operations per entry as center + noise_sigma * noise.
    truth = np.repeat(np.arange(c, dtype=np.int64), m)
    noise_rng = stream_rng(spec.seed, "synth-noise")
    samples = np.empty((n, d), dtype=np.float32)
    for a in range(0, n, BLOCK_ROWS):
        rows = centers.take(truth[a : a + BLOCK_ROWS], axis=0)
        if spec.intra_noise > 0:
            noise = noise_rng.standard_normal(rows.shape)
            noise *= spec.intra_noise
            noise += rows
            rows = noise
        samples[a : a + BLOCK_ROWS] = unit_rows(rows)

    pseudo = truth.copy()
    n_conflict = ratio_count(c, spec.conflict_ratio)
    if n_conflict > 0:
        conflict_rng = stream_rng(spec.seed, "synth-conflict")
        chosen = np.sort(conflict_rng.choice(c, size=n_conflict, replace=False))
        for j, cls in enumerate(chosen):
            # The members of class cls are rows cls*m .. cls*m + m - 1.
            shuffled = cls * m + conflict_rng.permutation(m)
            pseudo[shuffled[m // 2 :]] = c + j

    ids = [f"sample-{i:08d}" for i in range(n)]
    return EmbeddingSet(samples, ids, pseudo), truth
