"""Retrieval metrics (recall@K and mAP@100) and prefix truncation for
compact embeddings."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import EmbeddingSet
from .errors import DimensionMismatchError, ValidationError
from .util import map_row_chunks, screen_error, unit_rows

# Query rows per ranking block: each block holds a (RANK_ROWS, n) float32
# screen. The ranking is exact whatever the block, so unlike
# util.BLOCK_ROWS this fixes no output bits; 512 rows took more memory and
# 64 more time.
RANK_ROWS = 256
# Screen rows per slab of a block's candidate mask, which so takes
# SLAB_ROWS·n bytes, not RANK_ROWS·n; like RANK_ROWS, it fixes no bits.
SLAB_ROWS = 32


@dataclass
class RetrievalReport:
    recall_at: dict[int, float]
    dims_used: int
    map_at_100: float | None = None

    def to_json(self) -> str:
        payload = {
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "map_at_100": self.map_at_100,
            "dims_used": self.dims_used,
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


def _floor(screen: np.ndarray, depth: int, delta: float) -> np.ndarray:
    """Each row's candidate floor in `_top_k`: the depth-th largest of its
    group maxima less 2 delta, taken in float64 and rounded down, so that
    no entry within 2 delta of that cut is missed."""
    m, n = screen.shape
    groups = min(n, max(64, 4 * depth))
    w = n // groups
    maxima = screen[:, : groups * w].reshape(m, w, groups).max(axis=1)
    maxima.partition(groups - depth, axis=1)
    floor = (maxima[:, groups - depth].astype(np.float64) - 2 * delta).astype(screen.dtype)
    return np.nextafter(floor, -np.inf)


def _runs(screen: np.ndarray, depth: int, delta: float):
    """The candidates of `_top_k` and their runs: each row's candidate
    count and first position, the candidates' columns as int32, row by row
    and by screen, highest first, and whether each starts a run.

    The candidates are found SLAB_ROWS rows at a time and sorted through
    a table of their negated screens, in the screen's dtype and padded
    with NaN, which sorts last. Equal screens may come in any order, since
    they fall in one run. Beyond `screen` this holds one slab's mask and a
    few words a candidate.
    """
    m, n = screen.shape
    floor = _floor(screen, depth, delta)
    counts, cols, negs = [], [], []
    for a in range(0, m, SLAB_ROWS):
        slab = screen[a : a + SLAB_ROWS]
        hit = np.flatnonzero(slab >= floor[a : a + SLAB_ROWS, None])
        counts.append(np.diff(np.searchsorted(hit, n * np.arange(slab.shape[0] + 1))))
        negs.append(np.negative(slab.take(hit)))
        cols.append(np.remainder(hit, n, out=hit).astype(np.int32))
    counts, cols, negs = (np.concatenate(v) for v in (counts, cols, negs))
    starts = np.cumsum(counts) - counts
    filled = np.arange(counts.max()) < counts[:, None]
    table = np.full(filled.shape, np.nan, screen.dtype)
    table[filled] = negs
    order = np.argsort(table, axis=1)
    order += starts[:, None]
    order = order[filled]
    cols, negs = cols[order], negs[order]
    # A run starts at each row's first entry and after each gap above
    # 2 delta, taken in float64 so that each gap keeps its bits; the gap
    # between two -inf screens is NaN and joins them.
    head = np.empty(cols.size, bool)
    with np.errstate(invalid="ignore"):
        np.greater(np.subtract(negs[1:], negs[:-1], dtype=np.float64), 2 * delta, out=head[1:])
    head[starts] = True
    return counts, starts, cols, head


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
    scores below depth others, so only the entries above it (`_floor`) are
    sorted, by screen (`_runs`). Where consecutive screens differ by more
    than 2 delta, their exact scores are in the same order; so only runs
    of entries whose screens lie within 2 delta of the next, and that
    start in the top `depth`, are rescored and reordered by exact score.
    """
    counts, starts, cols, head = _runs(screen, depth, delta)
    run = np.cumsum(head, dtype=np.int32) - 1
    heads = np.flatnonzero(head)
    rows = np.repeat(np.arange(counts.size, dtype=np.int32), counts)
    rescored = (heads - starts[rows[heads]] < depth) & (np.diff(heads, append=cols.size) > 1)
    redo = np.flatnonzero(rescored[run])
    # Runs keep their places; inside each, higher exact score first, ties
    # toward the lower column.
    score = exact(rows[redo], cols[redo])
    cols[redo] = cols[redo][np.lexsort((cols[redo], -score, run[redo]))]
    return cols[starts[:, None] + np.arange(depth)]


def _unit32(x: np.ndarray) -> np.ndarray:
    """unit_rows(x.astype(np.float64)).astype(np.float32), converted
    RANK_ROWS rows at a time; each row's norm is its own, so the bits are
    the same. A zero row raises, named by its index in `x`."""
    out = np.empty(x.shape, np.float32)
    for a in range(0, x.shape[0], RANK_ROWS):
        out[a : a + RANK_ROWS] = unit_rows(x[a : a + RANK_ROWS].astype(np.float64), first=a)
    return out


def _ranking(queries: np.ndarray, gallery: np.ndarray | None, depth: int, threads: int) -> np.ndarray:
    """(q, depth) gallery columns of each query's `depth` nearest rows by
    cosine, nearest first, ties toward the lower column.

    `queries` and `gallery` are float32 rows of nonzero norm, as a set
    holds them; a `gallery` of None ranks the queries against each other,
    each one's own row excluded. Blocks of RANK_ROWS queries are screened
    with a float32 matrix product of unit rows and decided on exact
    float64 cosines einsum("ij,ij->i") of the rows unit_rows makes from
    them, so the ranking does not depend on the block layout, the BLAS
    kernel or `threads`. The screen's bound takes unit norms; the norms of
    the float32 copies of float64 unit rows differ from 1 by far less than
    the bound's margin.
    """
    q32 = _unit32(queries)
    g32 = q32 if gallery is None else _unit32(gallery)
    target = queries if gallery is None else gallery
    delta = float(screen_error(1.0, 1.0, queries.shape[1]))
    # Each block writes its rows here, so no per-block result outlives it.
    tops = np.empty((queries.shape[0], depth), np.int32)

    def chunk(a, b):
        screen = q32[a:b] @ g32.T

        def exact(r, c):
            # RANK_ROWS pairs at a time, so the gathered rows stay small.
            cos = np.empty(r.size)
            for i in range(0, r.size, RANK_ROWS):
                part = slice(i, i + RANK_ROWS)
                u = unit_rows(queries[a + r[part]].astype(np.float64))
                cos[part] = np.einsum("ij,ij->i", u, unit_rows(target[c[part]].astype(np.float64)))
            if gallery is None:
                cos[a + r == c] = -np.inf
            return cos

        if gallery is None:
            screen[np.arange(b - a), np.arange(a, b)] = -np.inf
        tops[a:b] = _top_k(screen, depth, delta, exact)

    map_row_chunks(chunk, queries.shape[0], threads, RANK_ROWS)
    return tops


def _recall_at(embeddings: EmbeddingSet, ks, threads: int = 1) -> dict[int, float]:
    """Recall@K for each K in `ks` from one top-max(K) neighbor ranking.

    Every item queries all others by cosine, self excluded. Inputs are
    validated before any ranking: every K a whole number >= 1, and every
    class needs at least two members to be a query. The ranking reads the
    set's float32 rows. Labels are only ever compared for equality, so
    their magnitude costs nothing.
    """
    labels = _require_labels(embeddings, "recall")
    for k in ks:
        if not (k >= 1 and float(k).is_integer()):
            raise ValidationError(f"every K must be a whole number >= 1, got {k}")
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise ValidationError("no K given")
    classes, counts = np.unique(labels, return_counts=True)
    if (counts < 2).any():
        bad = int(classes[np.argmin(counts)])
        raise ValidationError(f"class {bad} has a single member and cannot be a query")
    depth = min(ks[-1], embeddings.count - 1)
    same = labels[_ranking(embeddings.vectors, None, depth, threads)] == labels[:, None]
    return {k: float(int(same[:, :k].any(axis=1).sum()) / embeddings.count) for k in ks}


def recall_at_k(embeddings: EmbeddingSet, k: int, threads: int = 1) -> float:
    """Fraction of items with a same-class neighbor among the k nearest.

    Every item acts as a query against all others, so every class must
    have at least two members.
    """
    return _recall_at(embeddings, [k], threads)[int(k)]


def retrieval_report(embeddings: EmbeddingSet, ks=(1,), threads: int = 1) -> RetrievalReport:
    """Recall@K for several K from a single neighbor ranking."""
    return RetrievalReport(recall_at=_recall_at(embeddings, ks, threads), dims_used=embeddings.dim)


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
    cut = min(100, gallery.count)
    tops = _ranking(queries.vectors, gallery.vectors, cut, threads)
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
