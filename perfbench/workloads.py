"""The benchmark's workloads: one batch job each over the unicom pipeline.

A workload generates its inputs from the seed and writes them as UCEB files
(`make_inputs`); one timed pass (`run_pass`) reads those files and runs the
pipeline through the package's public functions; `outputs` turns a pass
into the quality figures and the arrays that the output checks and the
same-seed digest cover. Library functions are always looked up on their
module at call time (`clustering.kmeans_fit`, never a name imported here),
so the traced run's wrappers see every call.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from unicom import ablation, clustering, data, evaluation, training
from unicom.ablation import AblationConfig
from unicom.clustering import KMeansConfig
from unicom.data import EmbeddingSet, SyntheticSpec
from unicom.losses import LossConfig
from unicom.training import LinearEncoder, TrainConfig, TrainResult

import spans

# Relative rise of the k-means objective between iterations that still
# counts as rounding (the objective is a float64 mean over n rows).
OBJECTIVE_ROUNDING = 1e-9


@dataclass
class PassOutput:
    """What one pass produced, as far as the checks and the digest need it."""

    quality: dict[str, float]  # every recall / mAP value, each in [0, 1]
    losses: list[np.ndarray]  # one loss curve per train call
    objective_traces: list[np.ndarray] = field(default_factory=list)  # per kmeans_fit
    assignments: list[np.ndarray] = field(default_factory=list)  # per kmeans_fit

    def problems(self) -> list[str]:
        """Output checks: finite losses, a k-means objective that never
        rises beyond rounding, and every quality figure inside [0, 1]."""
        found = []
        for i, curve in enumerate(self.losses):
            if not np.all(np.isfinite(curve)):
                found.append(f"non-finite loss in train call {i}")
        for trace in self.objective_traces:
            rises = np.flatnonzero(np.diff(trace) > OBJECTIVE_ROUNDING * np.abs(trace[:-1]))
            if rises.size:
                found.append(f"k-means objective rises after iteration {rises[0] + 1}")
        for name, value in self.quality.items():
            if not 0.0 <= value <= 1.0:
                found.append(f"{name} = {value} lies outside [0, 1]")
        return found

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in self.assignments + self.losses + self.objective_traces:
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(json.dumps(self.quality, sort_keys=True).encode())
        return h.hexdigest()


def _rows(embeddings: EmbeddingSet, index, labels=None) -> EmbeddingSet:
    labels = embeddings.labels if labels is None else labels
    return EmbeddingSet(
        embeddings.vectors[index], [embeddings.ids[i] for i in index], labels[index]
    )


def _query_split(embeddings: EmbeddingSet, every: int):
    """Every `every`-th row is a query; the other rows are the gallery."""
    is_query = np.arange(embeddings.count) % every == 0
    return (
        _rows(embeddings, np.flatnonzero(is_query)),
        _rows(embeddings, np.flatnonzero(~is_query)),
    )


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def _embed(result: TrainResult, inputs: EmbeddingSet, labels) -> EmbeddingSet:
    vectors = result.encoder.encode(inputs.vectors.astype(np.float64))
    return EmbeddingSet(vectors.astype(np.float32), list(inputs.ids), labels)


class Workload:
    """Parameters, inputs and one pass; subclasses fill in the pipeline."""

    name = ""
    DEFAULTS: dict = {}
    WARM_UP: dict = {}  # overrides for the warm-up copy of the workload

    def __init__(self, seed: int, workdir: Path, **overrides):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.params = {**self.DEFAULTS, **overrides}

    def setup(self) -> None:
        """Generate the inputs, then run one pass of a tiny copy as warm-up.

        The warm-up takes every code path of the pass once, so first-call
        costs (BLAS and allocator start-up, lazy imports) land in set-up
        instead of the first timed pass.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.make_inputs()
        warm = type(self)(self.seed, self.workdir / "warm-up", **self.WARM_UP)
        warm.workdir.mkdir(parents=True, exist_ok=True)
        warm.make_inputs()
        warm.outputs(warm.run_pass())

    def train_config(self) -> TrainConfig:
        p = self.params
        return TrainConfig(
            epochs=p["epochs"],
            batch_size=p["batch_size"],
            loss=LossConfig(r1=p["r1"], seed=self.seed),
            seed=self.seed,
        )

    def make_inputs(self) -> None:
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def outputs(self, raw) -> PassOutput:
        return raw


class PseudolabelRetrieval(Workload):
    """k-means pseudo labels, one training epoch, retrieval at n=5000."""

    name = "pseudolabel-retrieval"
    DEFAULTS = dict(
        # Noise 0.16 keeps full-dimension recall@1 near 0.88, clearly below 1.
        true_classes=200, per_class=25, dim=128, intra_noise=0.16,
        conflict_ratio=0.3, k=260, kmeans_iters=10, epochs=1, batch_size=128,
        r1=0.1, trunc_dims=32, query_every=5,
    )
    # A fifth of the workload: big enough that set-up, not the import, makes
    # up most of setup_s, so the median set-up is steady from run to run.
    WARM_UP = dict(true_classes=40, k=52, kmeans_iters=2)

    def make_inputs(self) -> None:
        p = self.params
        spec = SyntheticSpec(
            true_classes=p["true_classes"], per_class=p["per_class"], dim=p["dim"],
            intra_noise=p["intra_noise"], conflict_ratio=p["conflict_ratio"],
            seed=self.seed,
        )
        samples, truth = data.synth_conflict_dataset(spec)
        # The program sees only vectors and the true labels it is scored on;
        # its pseudo labels come from k-means.
        data.save_embeddings(samples.with_labels(truth), self.workdir / "inputs.uceb")

    def run_pass(self) -> PassOutput:
        p = self.params
        inputs = data.load_embeddings(self.workdir / "inputs.uceb")
        clusters = clustering.kmeans_fit(
            inputs,
            KMeansConfig(k=p["k"], max_iters=p["kmeans_iters"], tol=0.0, seed=self.seed),
        )
        result = training.train(
            inputs.with_labels(clusters.assignments),
            self.train_config(),
            prototypes=training.init_prototypes(clusters),
        )
        embedded = _embed(result, inputs, inputs.labels)
        data.save_embeddings(embedded, self.workdir / "embeddings.uceb")
        full = evaluation.retrieval_report(embedded, ks=(1, 10))
        trunc = evaluation.retrieval_report(
            evaluation.truncate_dims(embedded, p["trunc_dims"]), ks=(1, 10)
        )
        queries, gallery = _query_split(embedded, p["query_every"])
        return PassOutput(
            quality={
                "recall_at_1": full.recall_at[1],
                "recall_at_10": full.recall_at[10],
                "recall_at_1_trunc": trunc.recall_at[1],
                "recall_at_10_trunc": trunc.recall_at[10],
                "map_at_100": evaluation.map_at_100(queries, gallery),
            },
            losses=[np.asarray(result.losses)],
            objective_traces=[np.asarray(clusters.objective_trace)],
            assignments=[clusters.assignments],
        )


class WideClasses(Workload):
    """20,000 pseudo classes from label means; 50 training steps; small eval."""

    name = "wide-classes"
    DEFAULTS = dict(
        # Noise 0.12 puts recall@1 on the d'=32 prefix near 0.28; at 0.14 it
        # is near 0.15 and, over 1,000 queries, twice as noisy across seeds.
        true_classes=10000, per_class=4, dim=128, intra_noise=0.12,
        conflict_ratio=1.0, train_classes=1600, eval_rows=1000, epochs=1,
        batch_size=128, r1=0.1, trunc_dims=32, query_every=5,
    )
    WARM_UP = dict(true_classes=40, train_classes=8, eval_rows=16, batch_size=16)

    def make_inputs(self) -> None:
        p = self.params
        spec = SyntheticSpec(
            true_classes=p["true_classes"], per_class=p["per_class"], dim=p["dim"],
            intra_noise=p["intra_noise"], conflict_ratio=p["conflict_ratio"],
            seed=self.seed,
        )
        samples, truth = data.synth_conflict_dataset(spec)
        prototypes = training.prototypes_from_labels(
            samples.vectors, samples.labels, num_classes=spec.pseudo_classes,
            seed=self.seed,
        )
        training.save_checkpoint(
            self.workdir,
            TrainResult(LinearEncoder.identity(spec.dim), prototypes, [], 0),
            self.train_config(),
        )
        # Rows are grouped by true class, so the first eval_rows rows of the
        # training classes hold whole classes of per_class members each.
        rows = np.flatnonzero(truth < p["train_classes"])
        data.save_embeddings(_rows(samples, rows), self.workdir / "train.uceb")
        data.save_embeddings(
            _rows(samples, rows[: p["eval_rows"]], labels=truth),
            self.workdir / "eval.uceb",
        )

    def run_pass(self) -> PassOutput:
        p = self.params
        train_set = data.load_embeddings(self.workdir / "train.uceb")
        eval_inputs = data.load_embeddings(self.workdir / "eval.uceb")
        prototypes = training.load_prototypes(self.workdir / "prototypes.uceb")
        result = training.train(train_set, self.train_config(), prototypes=prototypes)
        embedded = _embed(result, eval_inputs, eval_inputs.labels)
        data.save_embeddings(embedded, self.workdir / "embeddings.uceb")
        truncated = evaluation.truncate_dims(embedded, p["trunc_dims"])
        queries, gallery = _query_split(embedded, p["query_every"])
        return PassOutput(
            quality={
                "recall_at_1": evaluation.recall_at_k(embedded, 1),
                "recall_at_1_trunc": evaluation.recall_at_k(truncated, 1),
                "map_at_100": evaluation.map_at_100(queries, gallery),
            },
            losses=[np.asarray(result.losses)],
        )


def _capture(sink: list, what):
    """Wrapper factory that records `what(args, result)` for every call."""

    def make(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(what(args, result))
            return result

        return wrapper

    return make


class AblationSmall(Workload):
    """`run_ablation` over r1 with the conflict-robustness protocol."""

    name = "ablation-small"
    DEFAULTS = dict(
        true_classes=20, per_class=50, dim=64, intra_noise=0.1,
        conflict_ratio=0.3, epochs=10, batch_size=8, lr=0.003,
        # Five seeds, not three: the grid means then spread about half as
        # much from one benchmark seed to the next.
        weight_decay=0.05, r1_values=(0.1, 1.0), seeds=5, embed_dim=16,
        report_dims=8, query_every=5,
    )
    WARM_UP = dict(true_classes=4, per_class=10, epochs=1)

    def make_inputs(self) -> None:
        """`run_ablation` synthesizes its data from the seeds it is given."""

    def run_pass(self):
        p = self.params
        base = AblationConfig(
            synth=SyntheticSpec(
                true_classes=p["true_classes"], per_class=p["per_class"],
                dim=p["dim"], intra_noise=p["intra_noise"],
                conflict_ratio=p["conflict_ratio"],
            ),
            train=TrainConfig(
                epochs=p["epochs"], batch_size=p["batch_size"], lr=p["lr"],
                weight_decay=p["weight_decay"],
                loss=LossConfig(margin=0.3, scale=64.0, r1=0.1, r2=1.0),
            ),
            recall_k=1,
            report_dims=p["report_dims"],
            embed_dim=p["embed_dim"],
            transfer_eval=True,
        )
        seeds = [p["seeds"] * self.seed + i for i in range(p["seeds"])]
        # run_ablation returns only recall; keep the evaluated sets and the
        # loss curves it produces on the way, for mAP and the output checks.
        evaluated, losses = [], []
        with spans.patched(
            "unicom.ablation", "recall_at_k", _capture(evaluated, lambda a, r: a[0])
        ), spans.patched(
            "unicom.ablation", "train", _capture(losses, lambda a, r: np.asarray(r.losses))
        ):
            rows = ablation.run_ablation("r1", list(p["r1_values"]), base, seeds)
        return rows, evaluated, losses

    def outputs(self, raw) -> PassOutput:
        rows, evaluated, losses = raw
        p = self.params
        full = [r for r in rows if r.dims_used == p["embed_dim"]]
        trunc = [r for r in rows if r.dims_used == p["report_dims"]]
        # mAP is not part of the ablation grid; it is scored here, outside
        # the timed pass, on the same full-dimension transfer sets.
        maps = [
            evaluation.map_at_100(*_query_split(s, p["query_every"]))
            for s in evaluated
            if s.dim == p["embed_dim"]
        ]
        quality = {
            "recall_at_1": _mean([v for r in full for v in r.per_seed]),
            "recall_at_1_trunc": _mean([v for r in trunc for v in r.per_seed]),
            "map_at_100": _mean(maps),
        }
        for r in rows:
            for i, v in enumerate(r.per_seed):
                quality[f"recall_at_1[r1={r.value:g},d={r.dims_used},seed#{i}]"] = v
        return PassOutput(quality=quality, losses=losses)


WORKLOADS = {cls.name: cls for cls in (PseudolabelRetrieval, WideClasses, AblationSmall)}
