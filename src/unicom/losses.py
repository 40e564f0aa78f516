"""Margin softmax over randomly selected classes and feature coordinates.

The training loss scores each embedding against a per-step subset of the
class prototypes (all batch positives plus uniformly sampled negatives)
using only a per-step random subset of the feature coordinates. Both the
embedding and the prototype sub-vectors are renormalized after masking,
so the additive angular margin keeps its geometric meaning on the
selected subspace. The plain softmax is the same loss at margin 0 on
`full_plan`, and per-sample feature dropout is that loss with the plan's
(b, d) keep mask applied to the embeddings.

All math runs in float64. Gradients are mean-reduced over the batch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .rng import stream_rng
from .util import NORM_EPS, ratio_count, unit_rows, unit_rows_backward, unit_rows_inplace


@dataclass
class LossConfig:
    """Hyperparameters of the selection loss.

    margin: additive angular margin applied to the positive-class angle.
    scale: multiplier on all cosine logits.
    r1: fraction of classes selected per step (positives always included).
    r2: fraction of feature coordinates kept by the per-step mask.
    r3: per-sample feature dropout ratio; when set, a step scores every
        class and coordinate of the dropped embeddings, ignoring r1 and r2.
    """

    margin: float = 0.3
    scale: float = 64.0
    r1: float = 0.1
    r2: float = 1.0
    r3: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValidationError("margin must be finite and >= 0")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValidationError("scale must be finite and > 0")
        if not 0.0 < self.r1 <= 1.0:
            raise ValidationError("r1 must lie in (0, 1]")
        if not 0.0 < self.r2 <= 1.0:
            raise ValidationError("r2 must lie in (0, 1]")
        if self.r3 is not None and not 0.0 <= self.r3 < 1.0:
            raise ValidationError("r3 must lie in [0, 1)")


class PrototypeMatrix:
    """One unit-norm prototype per class; always at least two classes.

    Built from a (k, d) matrix with one row per class, and stored as
    contiguous (k, d) `rows`, so a step that touches a few classes reads
    and writes whole rows. The rows are one float64 copy of the input,
    normalized in place in that C order, so their bits do not depend on
    the memory order of the input; a row that is near zero or not finite
    raises DegenerateVectorError.
    """

    def __init__(self, rows: np.ndarray):
        rows = np.array(rows, dtype=np.float64, order="C")
        if rows.ndim != 2:
            raise ValidationError("prototype rows must form a 2-D matrix")
        if rows.shape[0] < 2:
            raise ValidationError("a prototype matrix needs k >= 2 classes")
        self.rows = unit_rows(rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def classes(self) -> int:
        return self.rows.shape[0]


@dataclass
class SelectionPlan:
    """Frozen per-step randomness: class subset, feature mask, dropout mask."""

    class_subset: np.ndarray  # sorted distinct int64 indices
    feature_mask: np.ndarray  # (d,) bool
    keep: np.ndarray | None = None  # (b, d) bool, set exactly when cfg.r3 is


@dataclass
class LossOutput:
    loss: float
    probs: np.ndarray  # (b, |S|), rows sum to 1
    grad_embeddings: np.ndarray  # (b, d)
    grad_prototypes: np.ndarray  # (|S|, d), rows follow class_subset


def sample_classes(batch_labels, num_classes: int, r1: float, seed: int, step: int):
    """Class subset for one step: batch positives plus random negatives.

    The subset size is round(num_classes * r1), floored at the number of
    distinct positives so every label in the batch is always scored.
    Negatives are drawn uniformly without replacement; the draw is fully
    determined by (seed, step). Returns sorted distinct indices.

    The draw picks positions among the k - |P| non-positive classes and
    maps position j to the j-th of them; the mapping costs
    O(|S| + |P| log |P|). The draw itself, NumPy's
    `Generator.choice(k - |P|, need, replace=False)`, costs O(need) only
    while k - |P| > 10,000 and need <= (k - |P|) // 50. Otherwise it
    shuffles the tail of a whole arange(k - |P|) and costs O(k): at r1 =
    0.1 every step's draw does, whatever k. Drawing 30,000 of 10^6
    positions allocates 8.2 MB under tracemalloc, against 0.2 MB for
    10,000 of them. When every class is selected nothing is drawn.
    """
    labels = np.asarray(batch_labels, dtype=np.int64)
    if labels.size == 0:
        raise ValidationError("batch_labels must be non-empty")
    positives = np.unique(labels)
    if positives[0] < 0 or positives[-1] >= num_classes:
        raise ValidationError(f"labels must lie in [0, {num_classes})")
    if not 0.0 < r1 <= 1.0:
        raise ValidationError("r1 must lie in (0, 1]")

    target = max(ratio_count(num_classes, r1), positives.size)
    need = target - positives.size
    if need == 0:
        return positives
    if target == num_classes:
        return np.arange(num_classes, dtype=np.int64)
    rng = stream_rng(seed, "class-sample", step)
    picked = rng.choice(num_classes - positives.size, size=need, replace=False)
    # positives[i] - i non-positive classes lie below positives[i].
    sampled = picked + np.searchsorted(positives - np.arange(positives.size), picked, "right")
    return np.sort(np.concatenate([positives, sampled]))


def sample_feature_mask(dim: int, r2: float, seed: int, step: int) -> np.ndarray:
    """Boolean mask with exactly round(dim * r2) coordinates enabled.

    Coordinates are chosen uniformly without replacement and the mask is
    shared by every sample of the step's batch. A mask that keeps every
    coordinate is returned without a draw.
    """
    if not 0.0 < r2 <= 1.0:
        raise ValidationError("r2 must lie in (0, 1]")
    keep = ratio_count(dim, r2)
    if keep < 1:
        raise ValidationError(f"round({dim} * {r2}) selects no coordinates")
    if keep == dim:
        return np.ones(dim, dtype=bool)
    mask = np.zeros(dim, dtype=bool)
    rng = stream_rng(seed, "feature-mask", step)
    mask[rng.choice(dim, size=keep, replace=False)] = True
    return mask


def make_selection_plan(batch_labels, num_classes: int, dim: int, cfg: LossConfig, step: int) -> SelectionPlan:
    """Every per-step draw of the loss, determined by (cfg.seed, step)."""
    if cfg.r3 is not None:
        plan = full_plan(num_classes, dim)
        plan.keep = feature_dropout_mask((len(batch_labels), dim), cfg.r3, cfg.seed, step)
        return plan
    return SelectionPlan(
        class_subset=sample_classes(batch_labels, num_classes, cfg.r1, cfg.seed, step),
        feature_mask=sample_feature_mask(dim, cfg.r2, cfg.seed, step),
    )


def selection_backward(embeddings, labels, prototypes: PrototypeMatrix, plan: SelectionPlan, cfg: LossConfig) -> LossOutput:
    """Loss, per-sample probabilities and analytic gradients of the selection softmax.

    grad_embeddings is (b, d), taken with respect to the embeddings as
    passed (before any dropout), with exact zeros outside the feature mask;
    grad_prototypes is (|S|, d) with one row per selected class, in
    class_subset order, also exactly zero off-mask. Classes outside the
    subset receive no gradient at all.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if e.ndim != 2 or labels.ndim != 1 or e.shape[0] != labels.shape[0]:
        raise DimensionMismatchError("embeddings and labels disagree on batch size")
    b, d = e.shape
    if d != prototypes.dim:
        raise DimensionMismatchError(
            f"embedding dim {d} does not match prototype dim {prototypes.dim}"
        )
    mask = np.asarray(plan.feature_mask, dtype=bool)
    if mask.shape != (d,):
        raise DimensionMismatchError("feature mask length does not match dim")
    if not mask.any():
        raise ValidationError("feature mask selects no coordinates")
    subset = np.asarray(plan.class_subset, dtype=np.int64)
    k = prototypes.classes
    if (subset.ndim != 1 or subset.size == 0 or subset[0] < 0 or subset[-1] >= k
            or (subset[1:] <= subset[:-1]).any()):
        raise ValidationError(
            f"the class subset must be non-empty, strictly increasing indices in [0, {k})"
        )

    # Positive-class positions inside the (sorted) subset. A label above
    # every class of the subset gets position |S|, clipped onto the last
    # class, which then differs from it.
    pos_idx = subset.searchsorted(labels)
    if (subset.take(pos_idx, mode="clip") != labels).any():
        raise ValidationError("a batch label is outside the selected class subset")
    if (plan.keep is None) != (cfg.r3 is None):
        raise ValidationError("a plan carries a dropout keep mask exactly when cfg.r3 is set")
    if plan.keep is not None:
        if np.shape(plan.keep) != (b, d):
            raise DimensionMismatchError(f"the keep mask's shape {np.shape(plan.keep)} is not ({b}, {d})")
        e = e * plan.keep / (1.0 - cfg.r3)  # inverted dropout

    u = e * mask  # masked embeddings, exact zeros off-mask
    u_norm, u_hat = unit_rows_inplace(u, "a masked embedding sub-vector")
    v = prototypes.rows.take(subset, axis=0)  # (|S|, d)
    v *= mask
    v_norm, v_hat = unit_rows_inplace(v, "a masked prototype sub-vector")

    cos = u_hat @ v_hat.T  # (b, |S|)
    np.minimum(np.maximum(cos, -1.0, out=cos), 1.0, out=cos)
    # Flat positions of the positive-class entries in a (b, |S|) array.
    pos = np.arange(b) * subset.size + pos_idx
    c_pos = cos.take(pos)
    logits = cos  # scaled in place: the cosines are not read again
    logits *= cfg.scale

    # At margin 0, cos m = 1 and sin m = 0: phi is the cosine, the factor 1.
    cos_m, sin_m = math.cos(cfg.margin), math.sin(cfg.margin)
    boundary = math.cos(math.pi - cfg.margin)
    sin_pos = np.sqrt(np.maximum(1.0 - c_pos * c_pos, 0.0))
    in_range = c_pos > boundary
    phi = np.where(
        in_range,
        c_pos * cos_m - sin_pos * sin_m,
        c_pos - cfg.margin * sin_m,
    )
    logits.put(pos, cfg.scale * phi)
    # d(phi)/d(cos theta) on each branch, used by the gradient below.
    safe_sin = np.maximum(sin_pos, NORM_EPS)
    margin_factor = np.where(in_range, cos_m + sin_m * c_pos / safe_sin, 1.0)

    # Shift, exponentiate and normalize in the logits' own memory.
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    shifted_pos = logits.take(pos)
    probs = np.exp(logits, out=logits)
    denom = np.add.reduce(probs, axis=1)
    probs /= denom[:, None]
    loss = float(np.add.reduce(np.log(denom) - shifted_pos) / b)

    dcos = probs / b
    dcos.put(pos, (probs.take(pos) - 1.0) / b)
    dcos *= cfg.scale
    dcos.put(pos, dcos.take(pos) * margin_factor)

    # Chain through the sub-vector renormalizations, in place in the fresh
    # products. Both u_hat and v_hat carry exact zeros off-mask, so the
    # gradients do too.
    grad_e = unit_rows_backward(dcos @ v_hat, u_hat, u_norm)
    grad_w = unit_rows_backward(dcos.T @ u_hat, v_hat, v_norm)
    if plan.keep is not None:
        grad_e = grad_e * plan.keep / (1.0 - cfg.r3)

    return LossOutput(loss=loss, probs=probs, grad_embeddings=grad_e, grad_prototypes=grad_w)


def full_plan(num_classes: int, dim: int) -> SelectionPlan:
    """The plan that selects every class and every feature coordinate.

    With it and margin 0 the selection loss is the plain softmax
    cross-entropy over all classes.
    """
    return SelectionPlan(
        class_subset=np.arange(num_classes, dtype=np.int64),
        feature_mask=np.ones(dim, dtype=bool),
    )


def feature_dropout_mask(shape, r3: float, seed: int, step: int) -> np.ndarray:
    """Boolean keep mask of per-sample Bernoulli feature dropout.

    Each coordinate of each sample is independently dropped with
    probability r3; the loss scales the survivors by 1/(1 - r3), so the
    dropped embedding equals the original in expectation. A row that
    loses every coordinate (only plausible at very small dims) is
    redrawn, since a fully-zeroed sample has no usable direction; one
    still dead after 100 redraws is a ValidationError.
    """
    if not 0.0 <= r3 < 1.0:
        raise ValidationError("r3 must lie in [0, 1)")
    rng = stream_rng(seed, "dropout", step)
    keep = rng.random(shape) >= r3
    for _ in range(100):
        dead = ~keep.any(axis=1)
        if not dead.any():
            break
        keep[dead] = rng.random((int(dead.sum()), shape[1])) >= r3
    if not keep.any(axis=1).all():
        raise ValidationError(
            f"feature dropout r3={r3} drops every coordinate of a {shape[1]}-wide row "
            "even after 100 redraws; lower r3"
        )
    return keep
