"""Joint optimization of a linear encoder and the prototype matrix.

The encoder is a single linear projection followed by row normalization,
which keeps the one nontrivial piece of encoder-side calculus (the
normalization Jacobian) while staying desk-scale. Prototype columns are
optimized sparsely: only the classes selected by the step's plan, and
within them only the coordinates enabled by the step's feature mask, are
touched. Per-column optimizer state keeps sparse Adam moments consistent,
and untouched columns (and untouched coordinates of touched columns) stay
bit-identical across a step.
"""

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .clustering import ClusterResult
from .data import EmbeddingSet, load_embeddings, save_embeddings
from .errors import DegenerateVectorError, DimensionMismatchError, ValidationError
from .losses import (
    LossConfig,
    LossOutput,
    PrototypeMatrix,
    SelectionPlan,
    dropout_backward,
    make_selection_plan,
    selection_backward,
)
from .rng import stream_rng

OPTIMIZERS = ("adamw", "sgd-momentum")

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_SGD_MOMENTUM = 0.9


class LinearEncoder:
    """Linear projection whose outputs are L2-normalized rows."""

    def __init__(self, weights: np.ndarray):
        weights = np.array(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValidationError("encoder weights must be 2-D")
        self.weights = weights

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def identity(cls, dim: int) -> "LinearEncoder":
        return cls(np.eye(dim))

    @classmethod
    def random(cls, input_dim: int, output_dim: int, seed: int = 0) -> "LinearEncoder":
        rng = stream_rng(seed, "encoder-init")
        w = rng.standard_normal((input_dim, output_dim)) / np.sqrt(input_dim)
        return cls(w)

    @classmethod
    def orthonormal(cls, input_dim: int, output_dim: int, seed: int = 0) -> "LinearEncoder":
        """Random projection with orthonormal columns (distance friendly)."""
        if output_dim > input_dim:
            raise ValidationError("orthonormal init needs output_dim <= input_dim")
        rng = stream_rng(seed, "encoder-init")
        q, _ = np.linalg.qr(rng.standard_normal((input_dim, output_dim)))
        return cls(q)

    def encode(self, inputs: np.ndarray) -> np.ndarray:
        return _encode_cache(self.weights, inputs)[2]


def _encode_cache(weights, inputs):
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise DimensionMismatchError(
            f"inputs of shape {x.shape} do not match encoder input dim {weights.shape[0]}"
        )
    z = x @ weights
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateVectorError("encoder produced a zero-norm projection row")
    return z, norms, z / norms[:, None]


def encode(encoder: LinearEncoder, inputs: np.ndarray) -> np.ndarray:
    """Project inputs through the encoder and normalize each output row."""
    return encoder.encode(inputs)


def init_prototypes(clusters: ClusterResult) -> PrototypeMatrix:
    """Prototype matrix from cluster centroids (columns renormalized)."""
    return PrototypeMatrix(clusters.centroids)


def prototypes_from_labels(vectors, labels, num_classes: int | None = None, seed: int = 0) -> PrototypeMatrix:
    """Prototype matrix from per-class mean vectors.

    Classes with no members (label gaps) get random unit columns so the
    matrix stays well formed.
    """
    x = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    k = int(labels.max()) + 1 if num_classes is None else int(num_classes)
    if k < 2:
        raise ValidationError("at least two classes are required")
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"labels must lie in [0, {k})")
    sums = np.zeros((k, x.shape[1]))
    np.add.at(sums, labels, x)
    counts = np.bincount(labels, minlength=k)
    empty = counts == 0
    if empty.any():
        rng = stream_rng(seed, "proto-init")
        sums[empty] = rng.standard_normal((int(empty.sum()), x.shape[1]))
        counts = np.where(empty, 1, counts)
    return PrototypeMatrix((sums / counts[:, None]).T)


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    optimizer: str = "adamw"
    lr: float = 1e-3
    weight_decay: float = 0.05
    loss: LossConfig = field(default_factory=LossConfig)
    dropout_r3: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"optimizer must be one of {OPTIMIZERS}")
        if self.lr < 0:
            raise ValidationError("lr must be >= 0")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be >= 0")
        if self.dropout_r3 is not None and not 0.0 <= self.dropout_r3 < 1.0:
            raise ValidationError("dropout_r3 must lie in [0, 1)")


@dataclass
class TrainResult:
    encoder: LinearEncoder
    prototypes: PrototypeMatrix
    losses: list[float]
    steps: int


class Trainer:
    """Single-writer training loop with sparse prototype updates."""

    def __init__(self, encoder: LinearEncoder, prototypes: PrototypeMatrix, cfg: TrainConfig):
        if encoder.output_dim != prototypes.dim:
            raise DimensionMismatchError(
                "encoder output dim does not match prototype dim"
            )
        self.encoder = encoder
        self.prototypes = prototypes
        self.cfg = cfg
        self.step_count = 0
        w = encoder.weights
        cols = prototypes.columns
        if cfg.optimizer == "adamw":
            self._enc_state = {"m": np.zeros_like(w), "v": np.zeros_like(w), "t": 0}
            self._proto_state = {
                "m": np.zeros_like(cols),
                "v": np.zeros_like(cols),
                "t": np.zeros(prototypes.classes, dtype=np.int64),
            }
        else:
            self._enc_state = {"vel": np.zeros_like(w)}
            self._proto_state = {"vel": np.zeros_like(cols)}

    def _backward(self, inputs, labels, plan):
        """Loss backward plus the chain into the encoder weights."""
        z, norms, e = _encode_cache(self.encoder.weights, inputs)
        if self.cfg.dropout_r3 is not None:
            out = dropout_backward(
                e, labels, self.prototypes, self.cfg.loss, self.cfg.dropout_r3, self.step_count
            )
            plan = SelectionPlan(
                step=self.step_count,
                class_subset=np.arange(self.prototypes.classes, dtype=np.int64),
                feature_mask=np.ones(self.prototypes.dim, dtype=bool),
            )
        else:
            out = selection_backward(e, labels, self.prototypes, plan, self.cfg.loss)
        g = out.grad_embeddings
        grad_z = (g - np.sum(g * e, axis=1, keepdims=True) * e) / norms[:, None]
        grad_w = np.asarray(inputs, dtype=np.float64).T @ grad_z
        return out, grad_w, plan

    def _update_encoder(self, grad):
        cfg, st = self.cfg, self._enc_state
        w = self.encoder.weights
        if cfg.optimizer == "adamw":
            st["t"] += 1
            st["m"] = _ADAM_BETA1 * st["m"] + (1 - _ADAM_BETA1) * grad
            st["v"] = _ADAM_BETA2 * st["v"] + (1 - _ADAM_BETA2) * grad * grad
            mh = st["m"] / (1 - _ADAM_BETA1 ** st["t"])
            vh = st["v"] / (1 - _ADAM_BETA2 ** st["t"])
            w -= cfg.lr * (mh / (np.sqrt(vh) + _ADAM_EPS) + cfg.weight_decay * w)
        else:
            st["vel"] = _SGD_MOMENTUM * st["vel"] + grad + cfg.weight_decay * w
            w -= cfg.lr * st["vel"]

    def _update_prototypes(self, grad_sub, subset, mask):
        """Sparse update touching only (mask x subset) entries.

        After the optimizer step the masked sub-vector of each updated
        column is rescaled so the full column returns to unit norm; the
        untouched coordinates keep their exact bits.
        """
        cfg, st = self.cfg, self._proto_state
        cols = self.prototypes.columns
        mask_idx = np.flatnonzero(mask)
        ix = np.ix_(mask_idx, subset)
        sub = cols[ix]
        g = grad_sub[:, mask_idx].T  # (|mask|, |S|)
        if cfg.optimizer == "adamw":
            st["t"][subset] += 1
            t = st["t"][subset]
            st["m"][ix] = _ADAM_BETA1 * st["m"][ix] + (1 - _ADAM_BETA1) * g
            st["v"][ix] = _ADAM_BETA2 * st["v"][ix] + (1 - _ADAM_BETA2) * g * g
            mh = st["m"][ix] / (1 - _ADAM_BETA1**t)[None, :]
            vh = st["v"][ix] / (1 - _ADAM_BETA2**t)[None, :]
            sub = sub - cfg.lr * mh / (np.sqrt(vh) + _ADAM_EPS)
        else:
            st["vel"][ix] = _SGD_MOMENTUM * st["vel"][ix] + g
            sub = sub - cfg.lr * st["vel"][ix]

        off_sq = 1.0 - np.sum(cols[ix] ** 2, axis=0)
        off_sq = np.clip(off_sq, 0.0, None)
        target = np.sqrt(1.0 - off_sq)
        cur = np.linalg.norm(sub, axis=0)
        if np.any(cur < 1e-12) or np.any(target < 1e-12):
            raise DegenerateVectorError("prototype update collapsed a masked sub-vector")
        cols[ix] = sub * (target / cur)[None, :]

    def step(self, inputs, labels, plan: SelectionPlan | None = None) -> float:
        """One forward/backward plus one optimizer update. Returns the loss."""
        labels = np.asarray(labels, dtype=np.int64)
        if plan is None and self.cfg.dropout_r3 is None:
            plan = make_selection_plan(
                labels, self.prototypes.classes, self.prototypes.dim,
                self.cfg.loss, self.step_count,
            )
        out, grad_enc, plan = self._backward(inputs, labels, plan)
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
    starts as the identity map, so prototype initialization from label
    means (or cluster centroids) lines up with the initial embeddings.
    A fresh selection plan is drawn for every step.
    """
    if data.labels is None:
        raise ValidationError("training data must carry labels")
    if np.unique(data.labels).size < 2:
        raise ValidationError("training labels must cover at least 2 classes")
    x = data.vectors.astype(np.float64)
    if prototypes is None:
        prototypes = prototypes_from_labels(x, data.labels, seed=cfg.seed)
    if encoder is None:
        encoder = LinearEncoder.identity(data.dim)

    trainer = Trainer(encoder, prototypes, cfg)
    losses: list[float] = []
    n = data.count
    for epoch in range(cfg.epochs):
        order = stream_rng(cfg.seed, "shuffle", epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            losses.append(trainer.step(x[batch], data.labels[batch]))
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
    protos = result.prototypes.columns.T.astype(np.float32)
    save_embeddings(
        EmbeddingSet(protos, [f"class-{i:06d}" for i in range(protos.shape[0])]),
        out / "prototypes.uceb",
    )
    sidecar = {"config": asdict(cfg), "steps": result.steps}
    (out / "train_config.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_encoder(path) -> LinearEncoder:
    return LinearEncoder(load_embeddings(path).vectors.astype(np.float64))


def load_prototypes(path) -> PrototypeMatrix:
    return PrototypeMatrix(load_embeddings(path).vectors.T.astype(np.float64))
