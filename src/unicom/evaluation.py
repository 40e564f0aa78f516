"""Retrieval metrics (recall@K and mAP@100) and prefix truncation for
compact embeddings."""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import EmbeddingSet
from .errors import DimensionMismatchError, ValidationError
from .util import map_row_chunks, unit_rows


@dataclass
class RetrievalReport:
    recall_at: dict[int, float]
    dims_used: int
    map_at_100: float | None = None
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "map_at_100": self.map_at_100,
            "dims_used": self.dims_used,
            "config": self.config,
        }
        return json.dumps(payload, indent=2)

    def to_tsv(self) -> str:
        lines = ["metric\tvalue"]
        for k in sorted(self.recall_at):
            lines.append(f"recall@{k}\t{self.recall_at[k]:.6f}")
        if self.map_at_100 is not None:
            lines.append(f"map@100\t{self.map_at_100:.6f}")
        lines.append(f"dims_used\t{self.dims_used}")
        return "\n".join(lines) + "\n"


def _require_labels(embeddings: EmbeddingSet, who: str) -> np.ndarray:
    if embeddings.labels is None:
        raise ValidationError(f"{who} requires labeled embeddings")
    return embeddings.labels


def _top_k(sims: np.ndarray, depth: int) -> np.ndarray:
    """Column indices of each row's `depth` largest entries, ordered.

    Equals the first `depth` columns of a stable argsort of `-sims`: higher
    similarity first, ties toward the lower index. The columns are dealt
    into `groups` strided sets and each set's maximum is taken; those
    maxima are distinct entries of the row, so the depth-th largest of them
    lies at or below the row's depth-th largest value. Only the entries at
    or above that cut are sorted, every entry tied with the true cut
    included, so a tie at the cut still resolves by index.
    """
    m, n = sims.shape
    groups = min(n, max(64, 4 * depth))
    w = n // groups
    maxima = sims[:, : groups * w].reshape(m, w, groups).max(axis=1)
    cut = np.partition(maxima, groups - depth, axis=1)[:, groups - depth]
    rows, cols = np.divmod(np.flatnonzero(sims >= cut[:, None]), n)
    # Stable, and candidates arrive in column order, so ties keep it.
    order = np.lexsort((-sims[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(m))
    return cols[order][starts[:, None] + np.arange(depth)]


def _recall_at(embeddings: EmbeddingSet, ks, threads: int = 1) -> dict[int, float]:
    """Recall@K for each K in `ks` from one top-max(K) neighbor ranking.

    Every item queries all others by cosine, self excluded. Inputs are
    validated before any ranking: every K >= 1, and every class needs at
    least two members to be a query. Labels are only ever compared for
    equality, so their magnitude costs nothing.
    """
    labels = _require_labels(embeddings, "recall")
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValidationError("every K must be >= 1")
    classes, counts = np.unique(labels, return_counts=True)
    if (counts < 2).any():
        bad = int(classes[np.argmin(counts)])
        raise ValidationError(f"class {bad} has a single member and cannot be a query")
    v = unit_rows(embeddings.vectors.astype(np.float64))
    depth = min(ks[-1], v.shape[0] - 1)

    def chunk(a, b):
        sims = v[a:b] @ v.T
        sims[np.arange(b - a), np.arange(a, b)] = -np.inf
        same = labels[_top_k(sims, depth)] == labels[a:b, None]
        return [int(same[:, :k].any(axis=1).sum()) for k in ks]

    hits = np.sum(map_row_chunks(chunk, v.shape[0], threads), axis=0)
    return {k: float(int(h) / embeddings.count) for k, h in zip(ks, hits)}


def recall_at_k(embeddings: EmbeddingSet, k: int, threads: int = 1) -> float:
    """Fraction of items with a same-class neighbor among the k nearest.

    Every item acts as a query against all others, so every class must
    have at least two members.
    """
    return _recall_at(embeddings, [k], threads)[int(k)]


def retrieval_report(
    embeddings: EmbeddingSet,
    ks=(1,),
    threads: int = 1,
    config: dict | None = None,
) -> RetrievalReport:
    """Recall@K for several K from a single neighbor ranking."""
    return RetrievalReport(
        recall_at=_recall_at(embeddings, ks, threads),
        dims_used=embeddings.dim,
        config=dict(config or {}),
    )


def map_at_100(queries: EmbeddingSet, gallery: EmbeddingSet, threads: int = 1) -> float:
    """Mean average precision over the top-100 ranked gallery items.

    AP for one query is sum(precision(i) * rel(i), i <= 100) divided by
    min(R, 100) where R counts that query's relevant gallery items.
    Queries with no relevant item are excluded from the mean.
    """
    q_labels = _require_labels(queries, "map_at_100")
    g_labels = _require_labels(gallery, "map_at_100")
    if queries.dim != gallery.dim:
        raise DimensionMismatchError("query and gallery dimensions differ")
    qv = unit_rows(queries.vectors.astype(np.float64))
    gv = unit_rows(gallery.vectors.astype(np.float64))
    cut = min(100, gallery.count)
    tops = np.concatenate(
        map_row_chunks(lambda a, b: _top_k(qv[a:b] @ gv.T, cut), queries.count, threads)
    )
    # Labels compacted to 0..C-1, so the count below does not grow with
    # the largest label id.
    classes, ids = np.unique(np.concatenate([q_labels, g_labels]), return_inverse=True)
    q_ids, g_ids = ids[: queries.count], ids[queries.count :]
    relevant = np.bincount(g_ids, minlength=classes.size)[q_ids]

    rel = g_labels[tops] == q_labels[:, None]
    precision = np.cumsum(rel, axis=1) / np.arange(1, cut + 1)
    aps = [
        math.fsum(precision[q, rel[q]]) / min(int(relevant[q]), 100)
        for q in np.flatnonzero(relevant)
    ]
    if not aps:
        raise ValidationError("no query has a relevant gallery item")
    return math.fsum(aps) / len(aps)


def truncate_dims(embeddings: EmbeddingSet, d_prime: int) -> EmbeddingSet:
    """Keep the first d_prime coordinates and renormalize each row."""
    if not 1 <= d_prime <= embeddings.dim:
        raise ValidationError(
            f"d_prime must lie in [1, {embeddings.dim}], got {d_prime}"
        )
    kept = unit_rows(embeddings.vectors[:, :d_prime].astype(np.float64))
    return EmbeddingSet(kept.astype(np.float32), list(embeddings.ids), embeddings.labels)
