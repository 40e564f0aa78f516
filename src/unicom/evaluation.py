"""Retrieval metrics, linear probe, and compact-embedding baselines."""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import EmbeddingSet
from .errors import DegenerateVectorError, DimensionMismatchError, ValidationError
from .losses import PrototypeMatrix, full_softmax_loss
from .training import prototypes_from_labels
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
    similarity first, ties toward the lower index. Only the entries at or
    above each row's depth-th largest value are sorted, every entry tied
    with it included, so a tie at the cut still resolves by index.
    """
    m, n = sims.shape
    cut = np.partition(sims, n - depth, axis=1)[:, n - depth]
    rows, cols = np.divmod(np.flatnonzero(sims >= cut[:, None]), n)
    order = np.lexsort((cols, -sims[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(m))
    return cols[order][starts[:, None] + np.arange(depth)]


def _recall_at(embeddings: EmbeddingSet, ks, threads: int = 1) -> dict[int, float]:
    """Recall@K for each K in `ks` from one top-max(K) neighbor ranking.

    Every item queries all others by cosine, self excluded. Inputs are
    validated before any ranking: every K >= 1, and every class needs at
    least two members to be a query.
    """
    labels = _require_labels(embeddings, "recall")
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValidationError("every K must be >= 1")
    counts = np.bincount(labels)
    present = np.flatnonzero(counts > 0)
    if np.any(counts[present] < 2):
        bad = int(present[np.argmin(counts[present])])
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
    relevant = np.bincount(g_labels, minlength=int(q_labels.max()) + 1)[q_labels]

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
    kept = embeddings.vectors[:, :d_prime].astype(np.float64)
    norms = np.linalg.norm(kept, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateVectorError("a row vanishes under truncation")
    kept /= norms[:, None]
    return EmbeddingSet(kept.astype(np.float32), list(embeddings.ids), embeddings.labels)


@dataclass
class PcaModel:
    mean: np.ndarray  # (d,)
    components: np.ndarray  # (d, d'), orthonormal columns, leading variance first


def pca_fit(fit_set: EmbeddingSet, d_prime: int) -> PcaModel:
    """Principal directions of the fit set's covariance.

    Requires at least d_prime rows and a covariance of rank >= d_prime.
    Component signs are fixed so the largest-magnitude entry of each
    direction is positive.
    """
    d = fit_set.dim
    if not 1 <= d_prime <= d:
        raise ValidationError(f"d_prime must lie in [1, {d}], got {d_prime}")
    if fit_set.count < d_prime:
        raise ValidationError("fit set must have at least d_prime rows")
    x = fit_set.vectors.astype(np.float64)
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / max(fit_set.count - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:d_prime]
    top = eigvals[order]
    if top[-1] <= max(eigvals.max(), 0.0) * 1e-10:
        raise ValidationError(
            f"covariance rank is below d_prime={d_prime} (smallest kept "
            f"eigenvalue {top[-1]:.3e})"
        )
    components = eigvecs[:, order]
    flip = np.sign(components[np.abs(components).argmax(axis=0), np.arange(d_prime)])
    return PcaModel(mean=mean, components=components * flip[None, :])


def pca_project(model: PcaModel, vectors: np.ndarray) -> np.ndarray:
    """Center with the fit mean and project onto the principal directions."""
    x = np.asarray(vectors, dtype=np.float64)
    return (x - model.mean) @ model.components


def pca_reduce(fit_set: EmbeddingSet, apply_set: EmbeddingSet, d_prime: int) -> EmbeddingSet:
    """Project apply_set onto fit_set's top-d_prime principal directions.

    The projected rows are renormalized, matching how every other
    compact-embedding variant here is evaluated.
    """
    if fit_set.dim != apply_set.dim:
        raise DimensionMismatchError("fit and apply sets disagree on dimension")
    model = pca_fit(fit_set, d_prime)
    projected = pca_project(model, apply_set.vectors)
    norms = np.linalg.norm(projected, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateVectorError("a projected row has zero norm")
    projected /= norms[:, None]
    return EmbeddingSet(projected.astype(np.float32), list(apply_set.ids), apply_set.labels)


def linear_probe(
    train_set: EmbeddingSet,
    test_set: EmbeddingSet,
    epochs: int = 50,
    lr: float = 0.01,
    scale: float = 16.0,
) -> float:
    """Top-1 accuracy of a cosine linear classifier on frozen embeddings.

    The classifier is a prototype matrix initialized at the class means
    and refined with full-batch AdamW on the plain softmax loss; columns
    are renormalized after every step.
    """
    y_train = _require_labels(train_set, "linear_probe")
    y_test = _require_labels(test_set, "linear_probe")
    if train_set.dim != test_set.dim:
        raise DimensionMismatchError("train and test dimensions differ")
    classes = np.unique(y_train)
    if classes.size < 2:
        raise ValidationError("linear_probe needs at least 2 classes")
    if not np.isin(y_test, classes).all():
        raise ValidationError("test labels are not covered by the training split")
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")
    if lr <= 0:
        raise ValidationError("lr must be > 0")

    remap = {int(c): i for i, c in enumerate(classes)}
    yt = np.array([remap[int(c)] for c in y_train], dtype=np.int64)
    x = unit_rows(train_set.vectors.astype(np.float64))
    prototypes = prototypes_from_labels(x, yt, num_classes=classes.size)

    m = np.zeros_like(prototypes.columns)
    v = np.zeros_like(prototypes.columns)
    for t in range(1, epochs + 1):
        out = full_softmax_loss(x, yt, prototypes, scale=scale, with_grad=True)
        g = out.grad_prototypes.T  # (d, k)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        cols = prototypes.columns - lr * mh / (np.sqrt(vh) + 1e-8)
        prototypes = PrototypeMatrix(cols)

    xt = unit_rows(test_set.vectors.astype(np.float64))
    pred = np.argmax(xt @ prototypes.columns, axis=1)
    truth = np.array([remap[int(c)] for c in y_test], dtype=np.int64)
    return float(int((pred == truth).sum()) / test_set.count)
