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
from dataclasses import asdict, dataclass, replace

from .clustering import KMeansConfig, kmeans_fit
from .data import SyntheticSpec, synth_conflict_dataset
from .errors import ValidationError
from .evaluation import recall_at_k, truncate_dims
from .training import LinearEncoder, TrainConfig, train
from .util import ratio_count, whole_number

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
    mean: float
    std: float
    per_seed: list[float]


def _apply_param(cfg: AblationConfig, param: str, value: float) -> AblationConfig:
    """The configuration of one grid point, checked as far as it can be
    before any data exists."""
    if (param == "k" and cfg.cluster_k is not None) or (param == "r3" and cfg.train.loss.r3 is not None):
        raise ValidationError(f"the {param} grid replaces the base configuration's {param}")
    if param in ("r1", "r2", "r3"):
        if param != "r3" and cfg.train.loss.r3 is not None:
            raise ValidationError(f"an {param} grid does nothing under feature dropout (r3)")
        loss = replace(cfg.train.loss, **{param: float(value)})
        cfg = replace(cfg, train=replace(cfg.train, loss=loss))
    elif param == "k":
        cfg = replace(cfg, cluster_k=whole_number(value, "a cluster count"))
    else:
        raise ValidationError(f"param must be one of {ABLATION_PARAMS}")
    points = cfg.synth.true_classes * cfg.synth.per_class
    if cfg.cluster_k is not None and not 2 <= cfg.cluster_k <= points:
        raise ValidationError(
            f"a cluster count must lie in [2, {points}], the number of points, got {cfg.cluster_k}"
        )
    if cfg.cluster_k is not None and cfg.synth.conflict_ratio > 0:
        raise ValidationError("a conflict ratio does nothing when k-means sets the labels")
    out_dim = cfg.synth.dim if cfg.embed_dim is None else cfg.embed_dim
    if not 1 <= out_dim <= cfg.synth.dim:
        raise ValidationError(f"an embedding dimension must lie in [1, {cfg.synth.dim}], got {out_dim}")
    r2 = cfg.train.loss.r2
    if cfg.train.loss.r3 is None and ratio_count(out_dim, r2) < 1:
        raise ValidationError(f"round({out_dim} * {r2}) selects no coordinates")
    if not (cfg.recall_k >= 1 and float(cfg.recall_k).is_integer()):
        raise ValidationError(f"a recall k must be a whole number >= 1, got {cfg.recall_k}")
    if cfg.report_dims is not None and not 1 <= cfg.report_dims < out_dim:
        raise ValidationError(f"a report dimension must lie in [1, {out_dim - 1}], got {cfg.report_dims}")
    return cfg


def run_single(cfg: AblationConfig, seed: int) -> dict[int, float]:
    """One pipeline run; returns recall keyed by evaluation dimension."""
    spec = replace(cfg.synth, seed=seed)
    data, truth = synth_conflict_dataset(spec)

    encoder = None  # `train` starts each class at the label mean of the encoded rows
    if cfg.embed_dim is not None:
        encoder = LinearEncoder.orthonormal(data.dim, cfg.embed_dim, seed=seed)
    if cfg.cluster_k is not None:
        clusters = kmeans_fit(data, KMeansConfig(k=cfg.cluster_k, seed=seed))
        data = data.with_labels(clusters.assignments)

    loss = replace(cfg.train.loss, seed=seed)
    train_cfg = replace(cfg.train, seed=seed, loss=loss)
    result = train(data, train_cfg, encoder=encoder)

    if cfg.transfer_eval:
        eval_spec = replace(
            cfg.synth, conflict_ratio=0.0, seed=seed + TRANSFER_SEED_OFFSET
        )
        eval_set, eval_truth = synth_conflict_dataset(eval_spec)
        evaluated = eval_set.with_labels(eval_truth)
    else:
        evaluated = data.with_labels(truth)

    embedded = result.encoder.encode(evaluated.vectors)
    evaluated = evaluated.with_vectors(embedded)

    out = {evaluated.dim: recall_at_k(evaluated, cfg.recall_k)}
    if cfg.report_dims is not None:
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
    return json.dumps([asdict(r) for r in rows], indent=2)
