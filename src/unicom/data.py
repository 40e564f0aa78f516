"""Embedding storage, UCEB file I/O, and synthetic datasets.

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
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    DimensionMismatchError,
    DuplicateIdError,
    InvalidDimensionError,
    TruncatedPayloadError,
    UcebFormatError,
    UnsupportedVersionError,
    ValidationError,
)
from .rng import stream_rng
from .util import BLOCK_ROWS, check_finite, ratio_count, unit_rows, whole_number

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
    check_finite(vectors, "row")
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
        for name in ("true_classes", "per_class", "dim"):
            setattr(self, name, whole_number(getattr(self, name), name))
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

    The id table is encoded first, so a refused id leaves `path` as it
    was. An existing file is then removed and a new one created, so the
    write does not wait for the old contents to be flushed; a symlink at
    `path` is replaced by the file, not written through.
    """
    table = bytearray()
    for item in embeddings.ids:
        raw = item.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValidationError(f"id too long to encode: {item[:32]}...")
        table += len(raw).to_bytes(2, "little") + raw
    flags = _FLAG_LABELS if embeddings.labels is not None else 0
    header = _HEADER.pack(
        UCEB_MAGIC, UCEB_VERSION, embeddings.count, embeddings.dim, flags
    )
    path = Path(path)
    path.unlink(missing_ok=True)
    with path.open("wb") as fh:
        fh.write(header)
        # The arrays' own buffers; a copy is made only on a big-endian host.
        fh.write(np.ascontiguousarray(embeddings.vectors, dtype="<f4"))
        if embeddings.labels is not None:
            fh.write(np.ascontiguousarray(embeddings.labels, dtype="<i8"))
        fh.write(table)


def load_embeddings(path) -> EmbeddingSet:
    """Read a UCEB file, returning the stored vectors verbatim. The size
    is checked against the header before anything is allocated, and the
    vectors and labels are read straight into their own arrays."""
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: its size is known once it is read
            fh = io.BytesIO(fh.read())
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            if head[:4] != UCEB_MAGIC:
                raise BadMagicError(f"not a UCEB file: {path}")
            raise TruncatedPayloadError(f"header truncated: {path}")
        magic, version, n, d, flags = _HEADER.unpack(head)
        if magic != UCEB_MAGIC:
            raise BadMagicError(f"bad magic {magic!r} in {path}")
        if version != UCEB_VERSION:
            raise UnsupportedVersionError(f"unsupported UCEB version {version}")
        if d == 0:
            raise InvalidDimensionError(f"zero embedding dimension in {path}")
        if n == 0:
            raise InvalidDimensionError(f"empty embedding set in {path}")

        size = fh.seek(0, io.SEEK_END)
        fh.seek(_HEADER.size)
        end = _HEADER.size + n * d * 4
        if size < end:
            raise TruncatedPayloadError(f"vector block truncated in {path}")
        labeled = flags & _FLAG_LABELS
        if labeled and size < end + n * 8:
            raise TruncatedPayloadError(f"label block truncated in {path}")
        vectors = np.empty((n, d), dtype="<f4")
        labels = np.empty(n, dtype="<i8") if labeled else None
        for block in (vectors, labels):
            if block is not None and fh.readinto(block) != block.nbytes:
                raise TruncatedPayloadError(f"{path} shrank while it was read")
        table = fh.read()

    ids: list[str] = []
    offset, size = 0, len(table)
    try:
        for row in range(n):
            # One bounds check per id: a length field or an id that runs
            # past the end of the file is an IndexError.
            start = offset + 2
            end = start + (table[offset] | table[offset + 1] << 8)
            if end > size:
                raise IndexError
            ids.append(table[start:end].decode("utf-8"))
            offset = end
    except IndexError:
        raise TruncatedPayloadError(f"id table truncated in {path}") from None
    except UnicodeDecodeError:
        raise UcebFormatError(f"id of row {row} is not valid UTF-8 in {path}") from None
    if offset != size:
        raise UcebFormatError(f"{size - offset} trailing bytes in {path}")

    try:
        return EmbeddingSet(vectors, ids, labels)
    except DuplicateIdError:
        raise DuplicateIdError(f"duplicate ids in {path}") from None


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
        # Class chosen[j] hands the members at positions m // 2 .. m - 1 of a
        # shuffle of its rows chosen[j]*m .. chosen[j]*m + m - 1 to pseudo
        # class c + j. `permuted` shuffles the rows of a block one after the
        # other with the draws of one `permutation(m)` per class.
        step = max(1, BLOCK_ROWS // m)
        for a in range(0, n_conflict, step):
            block = chosen[a : a + step]
            order = conflict_rng.permuted(np.tile(np.arange(m), (block.size, 1)), axis=1)
            moved = block[:, None] * m + order[:, m // 2 :]
            pseudo[moved] = np.arange(c + a, c + a + block.size)[:, None]

    ids = [f"sample-{i:08d}" for i in range(n)]
    return EmbeddingSet(samples, ids, pseudo), truth
