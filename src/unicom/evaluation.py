"""Retrieval metrics (recall@K and mAP@100) and prefix truncation for
compact embeddings."""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import EmbeddingSet
from .errors import DimensionMismatchError, ValidationError
from . import util
from .util import map_row_chunks, screen_error, unit_rows


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


def _top_k(screen: np.ndarray, depth: int, delta: float, exact) -> np.ndarray:
    """Column indices of each row's `depth` largest exact scores, ordered.

    `screen` holds every entry's exact score to within `delta`, and
    `exact(rows, cols)` returns the exact scores of the listed entries; an
    entry screened as -inf must score -inf. The result equals the first
    `depth` columns of a stable argsort of the negated exact scores:
    higher score first, ties toward the lower index.

    The columns are dealt into `groups` strided sets and each set's
    maximum screen is taken; those maxima are distinct entries of the row,
    so the depth-th largest of them lies at or below the row's depth-th
    largest screen. An entry screened more than 2 delta below that cut
    scores below depth others, so only the entries above it are sorted, by
    screen. Where consecutive screens differ by more than 2 delta, their
    exact scores are in the same order; so only runs of entries whose
    screens lie within 2 delta of the next, and that start in the top
    `depth`, are rescored and reordered by exact score.
    """
    m, n = screen.shape
    groups = min(n, max(64, 4 * depth))
    w = n // groups
    maxima = screen[:, : groups * w].reshape(m, w, groups).max(axis=1)
    cut = np.partition(maxima, groups - depth, axis=1)[:, groups - depth]
    # Taken in float64 and rounded down, so that no entry within 2 delta
    # of the cut is missed.
    floor = np.nextafter((cut.astype(np.float64) - 2 * delta).astype(screen.dtype), -np.inf)
    rows, cols = np.divmod(np.flatnonzero(screen >= floor[:, None]), n)
    # Each row's candidates by screen, highest first, through a table
    # padded with NaN, which sorts last. Equal screens may come in any
    # order, since they fall in one run below.
    counts = np.bincount(rows, minlength=m)
    starts = np.cumsum(counts) - counts
    pos = np.arange(rows.size) - starts[rows]
    table = np.full((m, counts.max()), np.nan)
    table[rows, pos] = -screen[rows, cols]
    order = np.argsort(table, axis=1)
    filled = np.arange(table.shape[1]) < counts[:, None]
    cols = cols[(starts[:, None] + order)[filled]]
    values = -np.take_along_axis(table, order, axis=1)[filled]
    # A run starts at each row's first entry and after each gap above
    # 2 delta; the gap between two -inf screens is NaN and joins them.
    head = pos == 0
    with np.errstate(invalid="ignore"):
        head[1:] |= values[:-1] - values[1:] > 2 * delta
    run = np.cumsum(head) - 1
    heads = np.flatnonzero(head)
    redo = np.flatnonzero(((pos[heads] < depth) & (np.diff(heads, append=rows.size) > 1))[run])
    # Runs keep their places; inside each, higher exact score first, ties
    # toward the lower column.
    score = exact(rows[redo], cols[redo])
    cols[redo] = cols[redo][np.lexsort((cols[redo], -score, run[redo]))]
    return cols[starts[:, None] + np.arange(depth)]


def _ranking(queries: np.ndarray, gallery: np.ndarray | None, depth: int, threads: int) -> np.ndarray:
    """(q, depth) gallery columns of each query's `depth` nearest rows by
    cosine, nearest first, ties toward the lower column.

    `queries` and `gallery` are float64 unit rows; a `gallery` of None
    ranks the queries against each other, each one's own row excluded.
    Blocks of queries are screened with a float32 matrix product and
    decided on exact float64 cosines einsum("ij,ij->i"), so the ranking
    does not depend on the block layout, the BLAS kernel or `threads`.
    The screen's bound takes unit norms; the norms of float64 unit rows
    differ from 1 by far less than the bound's margin.
    """
    q32 = queries.astype(np.float32)
    g32 = q32 if gallery is None else gallery.astype(np.float32)
    target = queries if gallery is None else gallery
    delta = float(screen_error(1.0, 1.0, queries.shape[1]))

    def chunk(a, b):
        screen = q32[a:b] @ g32.T

        def exact(r, c):
            # BLOCK_ROWS pairs at a time, so the gathered rows stay small.
            cos = np.empty(r.size)
            for i in range(0, r.size, util.BLOCK_ROWS):
                part = slice(i, i + util.BLOCK_ROWS)
                cos[part] = np.einsum("ij,ij->i", queries[a + r[part]], target[c[part]])
            if gallery is None:
                cos[a + r == c] = -np.inf
            return cos

        if gallery is None:
            screen[np.arange(b - a), np.arange(a, b)] = -np.inf
        return _top_k(screen, depth, delta, exact)

    return np.concatenate(map_row_chunks(chunk, queries.shape[0], threads))


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
    same = labels[_ranking(v, None, depth, threads)] == labels[:, None]
    return {k: float(int(same[:, :k].any(axis=1).sum()) / embeddings.count) for k in ks}


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
    tops = _ranking(qv, gv, cut, threads)
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
    return embeddings.with_vectors(kept)
