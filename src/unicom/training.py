"""Joint optimization of a linear encoder and the prototype matrix.

The encoder is a single linear projection followed by row normalization,
which keeps the one nontrivial piece of encoder-side calculus (the
normalization Jacobian) while staying desk-scale. Prototypes are
optimized sparsely: only the classes selected by the step's plan, and
within them only the coordinates enabled by the step's feature mask, are
touched. Prototypes and their optimizer state are stored as (k, d) class
rows, so a step gathers the selected rows once and writes them back once.
The one optimizer is AdamW; per-class step counts keep the sparse
prototype moments consistent, and untouched classes (and untouched
coordinates of touched classes) stay bit-identical across a step.
"""

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .clustering import ClusterResult
from .data import EmbeddingSet, load_embeddings, save_embeddings
from .errors import DimensionMismatchError, NonFiniteLossError, ValidationError
from .losses import (
    LossConfig,
    PrototypeMatrix,
    SelectionPlan,
    make_selection_plan,
    selection_backward,
)
from .rng import stream_rng
from .util import BLOCK_ROWS, label_sums, unit_rows_backward, unit_rows_inplace, whole_number

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

# Entries per block of the sparse prototype step: 64 KB a float64 block,
# so its AdamW passes stay in a core's cache. At |S| = 2,000 and d = 128,
# blocks of 4,096 to 16,384 entries stepped equally fast; 2,048 entries,
# or one block for the whole selection, were slower.
_BLOCK_ENTRIES = 1 << 13


class LinearEncoder:
    """Linear projection whose outputs are L2-normalized rows."""

    def __init__(self, weights: np.ndarray):
        weights = np.array(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValidationError("encoder weights must be 2-D")
        if 0 in weights.shape:
            raise ValidationError(f"encoder weights of shape {weights.shape} have an empty dimension")
        self.weights = weights

    @property
    def output_dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def identity(cls, dim: int) -> "LinearEncoder":
        return cls(np.eye(dim))

    @classmethod
    def orthonormal(cls, input_dim: int, output_dim: int, seed: int = 0) -> "LinearEncoder":
        """Random projection with orthonormal columns (distance friendly)."""
        if output_dim > input_dim:
            raise ValidationError("orthonormal init needs output_dim <= input_dim")
        rng = stream_rng(seed, "encoder-init")
        q, _ = np.linalg.qr(rng.standard_normal((input_dim, output_dim)))
        return cls(q)

    def encode(self, inputs: np.ndarray) -> np.ndarray:
        """Float64 unit rows of the projected inputs. A set of more than
        BLOCK_ROWS rows goes in windows of BLOCK_ROWS rows, the last one
        overlapping its predecessor, so no float64 copy of the set is made
        and a row's bits are the same in every set of BLOCK_ROWS or more."""
        x = np.asarray(inputs)
        if x.ndim != 2 or len(x) <= BLOCK_ROWS:
            return _encode_cache(self.weights, x)[2]
        out = np.empty((len(x), self.output_dim))
        for a, z in self._windows(x):
            out[a : a + len(z)] = z
        return out

    def _windows(self, x):
        """Yield (a, z) for the 2-D `x` in row order, z the unit rows of
        x[a : a + len(z)], as `encode` gives them: each window spans
        BLOCK_ROWS rows, or all of them if there are fewer, and the last
        one, which overlaps its predecessor, yields only its new rows."""
        n = len(x)
        for a in range(0, n, BLOCK_ROWS):
            s = max(0, min(a, n - BLOCK_ROWS))
            yield a, _encode_cache(self.weights, x[s : s + BLOCK_ROWS])[2][a - s :]


def _encode_cache(weights, inputs):
    """Float64 inputs, the norms of their projections and the unit rows."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise DimensionMismatchError(
            f"inputs of shape {x.shape} do not match encoder input dim {weights.shape[0]}"
        )
    norms, z = unit_rows_inplace(x @ weights, "an encoder projection row")
    return x, norms, z


def init_prototypes(clusters: ClusterResult) -> PrototypeMatrix:
    """Prototype matrix from cluster centroids (rows renormalized)."""
    return PrototypeMatrix(clusters.centroids)


def prototypes_from_labels(vectors, labels, num_classes: int | None = None, seed: int = 0) -> PrototypeMatrix:
    """Prototype matrix from per-class mean vectors.

    Classes with no members (label gaps) get random unit rows so the
    matrix stays well formed.
    """
    x = np.asarray(vectors)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValidationError("label means need at least one labeled row, got 0")
    if labels.shape != x.shape[:1]:
        raise DimensionMismatchError(
            f"one label per row is required, got {labels.size} labels for {x.shape[0]} rows"
        )
    k = int(labels.max()) + 1 if num_classes is None else int(num_classes)
    if k < 2:
        raise ValidationError("at least two classes are required")
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"labels must lie in [0, {k})")
    return _mean_prototypes(label_sums(x, labels, k), np.bincount(labels, minlength=k), seed)


def _mean_prototypes(sums, counts, seed: int) -> PrototypeMatrix:
    """Prototype matrix from (k, d) per-class sums and their row counts,
    dividing `sums` in place; a class with no rows gets a row drawn from
    the seed's "proto-init" stream."""
    empty = counts == 0
    if empty.any():
        rng = stream_rng(seed, "proto-init")
        sums[empty] = rng.standard_normal((int(empty.sum()), sums.shape[1]))
        counts = np.where(empty, 1, counts)
    sums /= counts[:, None]
    return PrototypeMatrix(sums)


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.05
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        self.epochs = whole_number(self.epochs, "epochs")
        self.batch_size = whole_number(self.batch_size, "batch_size")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValidationError("lr must be finite and >= 0")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValidationError("weight_decay must be finite and >= 0")


@dataclass
class TrainResult:
    encoder: LinearEncoder
    prototypes: PrototypeMatrix
    losses: list[float]
    steps: int


class Trainer:
    """Single-writer training loop with sparse prototype updates.

    Each parameter block keeps its AdamW moments in a list, [m, v], shaped
    like the block. Step counts are kept apart: one for the encoder and
    one per prototype class.
    """

    def __init__(self, encoder: LinearEncoder, prototypes: PrototypeMatrix, cfg: TrainConfig):
        if encoder.output_dim != prototypes.dim:
            raise DimensionMismatchError(
                f"prototype dim {prototypes.dim} does not match "
                f"the encoder's output dim {encoder.output_dim}"
            )
        self.encoder = encoder
        self.prototypes = prototypes
        self.cfg = cfg
        self.step_count = 0
        self._enc_moments = [np.zeros_like(encoder.weights) for _ in range(2)]
        self._proto_moments = [np.zeros_like(prototypes.rows) for _ in range(2)]
        self._proto_flat = [a.reshape(-1) for a in self._proto_moments]
        self._enc_steps = 0
        self._proto_steps = np.zeros(prototypes.classes, dtype=np.int64)

    def _backward(self, inputs, labels, plan):
        """Loss backward plus the chain into the encoder weights."""
        x, norms, e = _encode_cache(self.encoder.weights, inputs)
        out = selection_backward(e, labels, self.prototypes, plan, self.cfg.loss)
        grad_w = x.T @ unit_rows_backward(out.grad_embeddings.copy(), e, norms)
        return out, grad_w

    def _delta(self, moments, g, t, w, wd):
        """The AdamW step for parameters `w` with gradient `g`, to be
        subtracted from them; the moments [m, v] are updated in place, and
        `t` is a step count, scalar or broadcast against the block.

        AdamW (Loshchilov and Hutter, 2019): lr * (mh / (sqrt(vh) + eps) +
        wd * w), with mh = m / (1 - b1**t), vh = v / (1 - b2**t),
        m = b1 * m + (1 - b1) * g and v = b2 * v + ((1 - b2) * g) * g.

        Each product and sum keeps the operands and grouping of this
        formula, so every bit is as in it; regrouping one, say
        (1 - b2) * (g * g), changes the results.
        """
        # One scratch block holds (1 - b1) * g, then ((1 - b2) * g) * g,
        # then mh, then wd * w; the step itself is the only other block.
        m, v = moments
        scratch = np.multiply(g, 1 - _ADAM_BETA1)
        m *= _ADAM_BETA1
        m += scratch
        np.multiply(g, 1 - _ADAM_BETA2, out=scratch)
        scratch *= g
        v *= _ADAM_BETA2
        v += scratch
        np.divide(m, 1 - _ADAM_BETA1**t, out=scratch)
        delta = v / (1 - _ADAM_BETA2**t)
        np.sqrt(delta, out=delta)
        delta += _ADAM_EPS
        np.divide(scratch, delta, out=delta)
        if wd:
            delta += np.multiply(w, wd, out=scratch)
        delta *= self.cfg.lr
        return delta

    def _update_encoder(self, grad):
        """Dense optimizer step on the whole weight matrix, with decay."""
        self._enc_steps += 1
        w = self.encoder.weights
        w -= self._delta(self._enc_moments, grad, self._enc_steps, w, self.cfg.weight_decay)

    def _update_prototypes(self, grad_sub, subset, mask):
        """Sparse update touching only (subset x mask) entries.

        The selected classes go in blocks of about _BLOCK_ENTRIES entries.
        Each (k, d) array gives up a block once and gets it back once: as
        whole rows when the mask keeps every coordinate, else at the flat
        positions of the block's masked entries. The blocks take the
        encoder's optimizer step, without decay and with per-class step
        counts. Each updated row's masked sub-vector is then rescaled to
        its old norm, so the row stays unit; the untouched coordinates
        keep their exact bits. Every block is C-ordered (rows, |mask|), so
        the bits do not depend on the block size. A DegenerateVectorError
        from the rescale leaves the step counts, the moments and the rows
        of the earlier blocks stepped.
        """
        rows = self.prototypes.rows
        d = rows.shape[1]
        subset = np.asarray(subset, dtype=np.int64)
        cols = np.asarray(mask, dtype=bool).nonzero()[0]
        whole = cols.size == d
        arrays = [rows, *self._proto_moments] if whole else [rows.reshape(-1), *self._proto_flat]
        t = self._proto_steps.take(subset)
        t += 1
        self._proto_steps[subset] = t
        span = max(1, _BLOCK_ENTRIES // cols.size)
        for a in range(0, subset.size, span):
            if whole:
                index = subset[a : a + span]
                g = grad_sub[a : a + span]
            else:
                index = subset[a : a + span, None] * d + cols
                g = grad_sub[a : a + span].take(cols, axis=1)  # C-ordered, like the blocks
            old, *moments = [x.take(index, axis=0) for x in arrays]
            delta = self._delta(moments, g, t[a : a + span, None], old, 0.0)
            for x, block in zip(arrays[1:], moments):
                x[index] = block

            target = np.sqrt(np.add.reduce(old * old, axis=1))
            sub = np.subtract(old, delta, out=delta)
            unit_rows_inplace(sub, "an updated masked prototype sub-vector")
            sub *= target[:, None]
            arrays[0][index] = sub

    def step(self, inputs, labels, plan: SelectionPlan | None = None) -> float:
        """One forward/backward plus one optimizer update. Returns the loss."""
        labels = np.asarray(labels, dtype=np.int64)
        if plan is None:
            plan = make_selection_plan(
                labels, self.prototypes.classes, self.prototypes.dim,
                self.cfg.loss, self.step_count,
            )
        out, grad_enc = self._backward(inputs, labels, plan)
        if not math.isfinite(out.loss):
            raise NonFiniteLossError(f"step {self.step_count} produced a non-finite loss {out.loss}")
        if self.cfg.lr > 0:
            self._update_encoder(grad_enc)
            self._update_prototypes(out.grad_prototypes, plan.class_subset, plan.feature_mask)
        self.step_count += 1
        return out.loss


def train(
    data: EmbeddingSet,
    cfg: TrainConfig,
    prototypes: PrototypeMatrix | None = None,
    encoder: LinearEncoder | None = None,
) -> TrainResult:
    """Train on a labeled embedding set for cfg.epochs of shuffled batches.

    The stored vectors are the encoder inputs; by default the encoder
    starts as the identity map. Without `prototypes`, each class starts
    at the mean of its rows' embeddings under the starting encoder, with
    the bits of prototypes_from_labels(encoder.encode(x), labels,
    seed=cfg.seed): the rows are added in row order from 0.0, as
    label_sums adds them, but window by window of `encode`, so no float64
    copy of the set is made. A fresh selection plan is drawn for every
    step.
    """
    if data.labels is None:
        raise ValidationError("training data must carry labels")
    if np.unique(data.labels).size < 2:
        raise ValidationError("training labels must cover at least 2 classes")
    x = data.vectors  # float32; each batch is converted on its own
    if encoder is None:
        encoder = LinearEncoder.identity(data.dim)
    if prototypes is None:
        counts = np.bincount(data.labels)
        sums = np.zeros((counts.size, encoder.output_dim))
        for a, z in encoder._windows(x):
            np.add.at(sums, data.labels[a : a + len(z)], z)
        prototypes = _mean_prototypes(sums, counts, cfg.seed)

    trainer = Trainer(encoder, prototypes, cfg)
    losses: list[float] = []
    n = data.count
    for epoch in range(cfg.epochs):
        order = stream_rng(cfg.seed, "shuffle", epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            losses.append(trainer.step(x.take(batch, axis=0), data.labels.take(batch)))
    return TrainResult(encoder, prototypes, losses, trainer.step_count)


def save_checkpoint(out_dir, result: TrainResult, cfg: TrainConfig) -> None:
    """Write encoder weights, prototypes, and a JSON config sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    enc = result.encoder.weights.astype(np.float32)
    save_embeddings(
        EmbeddingSet(enc, [f"enc-row-{i:06d}" for i in range(enc.shape[0])]),
        out / "encoder.uceb",
    )
    protos = result.prototypes.rows.astype(np.float32)
    save_embeddings(
        EmbeddingSet(protos, [f"class-{i:06d}" for i in range(protos.shape[0])]),
        out / "prototypes.uceb",
    )
    sidecar = {"config": asdict(cfg), "steps": result.steps}
    (out / "train_config.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_prototypes(path) -> PrototypeMatrix:
    return PrototypeMatrix(load_embeddings(path).vectors)
