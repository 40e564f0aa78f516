"""Grid experiments over the method's knobs on synthetic data.

Each grid point runs the full pipeline per seed: synthesize a dataset,
derive pseudo labels (from the controlled conflict split, or from k-means
when the cluster count is the variable), train the encoder and
prototypes, then score retrieval against ground-truth labels. Rows report
the per-seed values plus mean and standard deviation, at full dimension
and optionally at a truncated dimension.

Evaluation modes: by default retrieval is scored on the training samples
themselves; with `transfer_eval` a fresh conflict-free dataset with new
class centers is synthesized and scored instead, probing how well the
trained encoder generalizes beyond its pseudo classes (training artifacts
such as memorized noise directions only show up there).
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import KMeansConfig, kmeans_fit
from .data import SyntheticSpec, synth_conflict_dataset
from .errors import ValidationError
from .evaluation import recall_at_k, truncate_dims
from .training import (
    LinearEncoder,
    TrainConfig,
    init_prototypes,
    prototypes_from_labels,
    train,
)

ABLATION_PARAMS = ("r1", "r2", "r3", "k")

# Seed offset separating the transfer-evaluation dataset from the training one.
TRANSFER_SEED_OFFSET = 10_000


@dataclass
class AblationConfig:
    synth: SyntheticSpec
    train: TrainConfig
    recall_k: int = 1
    report_dims: int | None = None
    cluster_k: int | None = None  # cluster for pseudo labels instead of the synth split
    embed_dim: int | None = None  # bottleneck encoder output dim (orthonormal init)
    transfer_eval: bool = False  # score retrieval on fresh classes


@dataclass
class AblationRow:
    param: str
    value: float
    dims_used: int
    per_seed: list[float]
    mean: float
    std: float


def _apply_param(cfg: AblationConfig, param: str, value: float) -> AblationConfig:
    """The configuration of one grid point, checked as far as it can be
    before any data exists."""
    if param in ("r1", "r2"):
        loss = replace(cfg.train.loss, **{param: float(value)})
        cfg = replace(cfg, train=replace(cfg.train, loss=loss))
    elif param == "r3":
        cfg = replace(cfg, train=replace(cfg.train, dropout_r3=float(value)))
    elif param == "k":
        if not float(value).is_integer():
            raise ValidationError(f"a cluster count must be an integer, got {value}")
        cfg = replace(cfg, cluster_k=int(value))
    else:
        raise ValidationError(f"param must be one of {ABLATION_PARAMS}")
    points = cfg.synth.true_classes * cfg.synth.per_class
    if cfg.cluster_k is not None and not 1 <= cfg.cluster_k <= points:
        raise ValidationError(
            f"a cluster count must lie in [1, {points}], the number of points, got {cfg.cluster_k}"
        )
    return cfg


def run_single(cfg: AblationConfig, seed: int) -> dict[int, float]:
    """One pipeline run; returns recall keyed by evaluation dimension."""
    spec = replace(cfg.synth, seed=seed)
    data, truth = synth_conflict_dataset(spec)

    encoder = None
    prototypes = None
    if cfg.cluster_k is not None:
        clusters = kmeans_fit(data, KMeansConfig(k=cfg.cluster_k, seed=seed))
        data = data.with_labels(clusters.assignments)
        prototypes = init_prototypes(clusters)
    if cfg.embed_dim is not None:
        encoder = LinearEncoder.orthonormal(data.dim, cfg.embed_dim, seed=seed)
        embedded = encoder.encode(data.vectors.astype(np.float64))
        prototypes = prototypes_from_labels(embedded, data.labels, seed=seed)

    loss = replace(cfg.train.loss, seed=seed)
    train_cfg = replace(cfg.train, seed=seed, loss=loss)
    result = train(data, train_cfg, prototypes=prototypes, encoder=encoder)

    if cfg.transfer_eval:
        eval_spec = replace(
            cfg.synth, conflict_ratio=0.0, seed=seed + TRANSFER_SEED_OFFSET
        )
        eval_set, eval_truth = synth_conflict_dataset(eval_spec)
        evaluated = eval_set.with_labels(eval_truth)
    else:
        evaluated = data.with_labels(truth)

    embedded = result.encoder.encode(evaluated.vectors.astype(np.float64))
    evaluated = evaluated.with_vectors(embedded)

    out = {evaluated.dim: recall_at_k(evaluated, cfg.recall_k)}
    if cfg.report_dims is not None and cfg.report_dims < evaluated.dim:
        truncated = truncate_dims(evaluated, cfg.report_dims)
        out[cfg.report_dims] = recall_at_k(truncated, cfg.recall_k)
    return out


def run_ablation(param: str, values, base: AblationConfig, seeds) -> list[AblationRow]:
    """Sweep one knob over `values`, repeating each point for every seed."""
    values = list(values)
    if len(values) < 2:
        raise ValidationError("an ablation grid needs at least 2 values")
    seed_list = list(range(int(seeds))) if isinstance(seeds, int) else list(seeds)
    if len(seed_list) < 3:
        raise ValidationError("an ablation needs at least 3 seeds")

    # Every grid point is checked before the first one runs.
    configs = [_apply_param(base, param, value) for value in values]
    rows: list[AblationRow] = []
    for value, cfg in zip(values, configs):
        per_dim: dict[int, list[float]] = {}
        for seed in seed_list:
            for dims, metric in run_single(cfg, seed).items():
                per_dim.setdefault(dims, []).append(metric)
        for dims in sorted(per_dim, reverse=True):
            vals = per_dim[dims]
            mean = math.fsum(vals) / len(vals)
            var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
            rows.append(
                AblationRow(
                    param=param,
                    value=float(value),
                    dims_used=dims,
                    per_seed=vals,
                    mean=mean,
                    std=math.sqrt(var),
                )
            )
    return rows


def ablation_to_tsv(rows: list[AblationRow]) -> str:
    lines = ["param\tvalue\tdims\tmean\tstd\tper_seed"]
    for r in rows:
        raw = ",".join(f"{v:.6f}" for v in r.per_seed)
        lines.append(
            f"{r.param}\t{r.value:g}\t{r.dims_used}\t{r.mean:.6f}\t{r.std:.6f}\t{raw}"
        )
    return "\n".join(lines) + "\n"


def ablation_to_json(rows: list[AblationRow]) -> str:
    payload = [
        {
            "param": r.param,
            "value": r.value,
            "dims_used": r.dims_used,
            "mean": r.mean,
            "std": r.std,
            "per_seed": r.per_seed,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2)
