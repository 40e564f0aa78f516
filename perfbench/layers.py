"""What the traced run wraps, and the per-layer metrics it derives.

Layers are named after the package's modules. A metric ending in `.s` is
the total time spent in that callable during one pipeline pass; `.self_s`
subtracts the time covered by traced callees. `training.step.s` and
`training.step.self_s` are medians per call, and `clustering.assign.call_s`
is the median time of one `assign` call. Flop rates are computed from the
operation counts of the naive kernels (3·n·k·d per `assign` call, 2·n²·d
per ranking call) divided by measured time, not read from counters.
"""

import os
import statistics

from spans import Target


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(index, name):
    return lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, index, name))}


def _assign_flops(a, k, r):
    points = _arg(a, k, 0, "data")
    n, d = getattr(points, "vectors", points).shape
    clusters = _arg(a, k, 1, "centroids").size // d
    return {"flops": 3 * n * clusters * d}


def _ranking_flops(a, k, r):
    embeddings = _arg(a, k, 0, "embeddings")
    return {"flops": 2 * embeddings.count**2 * embeddings.dim}


def _plan_sizes(a, k, plan):
    return {"classes": int(plan.class_subset.size), "dims": int(plan.feature_mask.sum())}


def _train_samples(a, k, r):
    cfg = _arg(a, k, 1, "cfg")
    return {"samples": _arg(a, k, 0, "data").count * cfg.epochs}


TARGETS = [
    Target("unicom.data", "save_embeddings", "data.save_embeddings", _file_bytes(1, "path")),
    Target("unicom.data", "load_embeddings", "data.load_embeddings", _file_bytes(0, "path")),
    Target("unicom.clustering", "kmeans_fit", "clustering.kmeans_fit",
           lambda a, k, r: {"iterations": r.iterations_run}),
    Target("unicom.clustering", "assign", "clustering.assign", _assign_flops),
    Target("unicom.clustering", "objective", "clustering.objective"),
    Target("unicom.losses", "make_selection_plan", "losses.make_selection_plan", _plan_sizes),
    Target("unicom.losses", "selection_backward", "losses.selection_backward"),
    Target("unicom.training", "train", "training.train", _train_samples),
    Target("unicom.training:Trainer", "step", "training.step"),
    Target("unicom.evaluation", "retrieval_report", "evaluation.retrieval_report",
           _ranking_flops, peak_memory=True),
    Target("unicom.evaluation", "recall_at_k", "evaluation.recall_at_k",
           _ranking_flops, peak_memory=True),
    Target("unicom.evaluation", "map_at_100", "evaluation.map_at_100", peak_memory=True),
    Target("unicom.evaluation", "truncate_dims", "evaluation.truncate_dims", peak_memory=True),
    Target("unicom.rng", "stream_rng", "rng.stream_rng"),
    Target("unicom.ablation", "run_single", "ablation.run_single"),
]

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("data.save_embeddings.s", "s", "lower"),
    ("data.load_embeddings.s", "s", "lower"),
    ("data.bytes_written", "bytes", "lower"),
    ("data.bytes_read", "bytes", "lower"),
    ("clustering.kmeans_fit.s", "s", "lower"),
    ("clustering.kmeans_fit.self_s", "s", "lower"),
    ("clustering.assign.s", "s", "lower"),
    ("clustering.assign.calls", "count", "lower"),
    ("clustering.assign.call_s", "s", "lower"),
    ("clustering.assign.gflops", "GFLOP/s", "higher"),
    ("clustering.objective.s", "s", "lower"),
    ("clustering.iterations", "count", "lower"),
    ("losses.make_selection_plan.s", "s", "lower"),
    ("losses.selection_backward.s", "s", "lower"),
    ("losses.selected_classes", "count", "lower"),
    ("losses.feature_dims", "count", "lower"),
    ("training.train.s", "s", "lower"),
    ("training.step.s", "s", "lower"),
    ("training.step.self_s", "s", "lower"),
    ("training.steps", "count", "lower"),
    ("training.samples_per_s", "1/s", "higher"),
    ("evaluation.retrieval_report.s", "s", "lower"),
    ("evaluation.recall_at_k.s", "s", "lower"),
    ("evaluation.ranking.gflops", "GFLOP/s", "higher"),
    ("evaluation.map_at_100.s", "s", "lower"),
    ("evaluation.truncate_dims.s", "s", "lower"),
    ("evaluation.peak_mb", "MB", "lower"),
    ("rng.stream_rng.calls", "count", "lower"),
    ("rng.stream_rng.s", "s", "lower"),
    ("ablation.run_single.s", "s", "lower"),
    ("ablation.run_single.self_s", "s", "lower"),
    ("trace.pipeline_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def summarize(spans, self_ns) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all spans of that pass).

    A layer the workload never calls reads 0.
    """
    calls: dict[str, list] = {}
    for span, own in zip(spans, self_ns):
        calls.setdefault(span.name, []).append((span, own / 1e9))

    def seconds(name):
        return sum(s.seconds for s, _ in calls.get(name, ()))

    def self_seconds(name):
        return sum(own for _, own in calls.get(name, ()))

    def count(name):
        return len(calls.get(name, ()))

    def noted(name, key):
        return sum(s.notes.get(key, 0) for s, _ in calls.get(name, ()))

    def median(values):
        return statistics.median(values) if values else 0.0

    ranking = ("evaluation.recall_at_k", "evaluation.retrieval_report")
    peaks = [s.notes["peak_bytes"] for s in spans if "peak_bytes" in s.notes]
    m = {
        "data.save_embeddings.s": seconds("data.save_embeddings"),
        "data.load_embeddings.s": seconds("data.load_embeddings"),
        "data.bytes_written": noted("data.save_embeddings", "bytes"),
        "data.bytes_read": noted("data.load_embeddings", "bytes"),
        "clustering.kmeans_fit.s": seconds("clustering.kmeans_fit"),
        "clustering.kmeans_fit.self_s": self_seconds("clustering.kmeans_fit"),
        "clustering.assign.s": seconds("clustering.assign"),
        "clustering.assign.calls": count("clustering.assign"),
        "clustering.assign.call_s": median([s.seconds for s, _ in calls.get("clustering.assign", ())]),
        "clustering.assign.gflops": _ratio(
            noted("clustering.assign", "flops") / 1e9, seconds("clustering.assign")
        ),
        "clustering.objective.s": seconds("clustering.objective"),
        "clustering.iterations": noted("clustering.kmeans_fit", "iterations"),
        "losses.make_selection_plan.s": seconds("losses.make_selection_plan"),
        "losses.selection_backward.s": seconds("losses.selection_backward"),
        "losses.selected_classes": _ratio(
            noted("losses.make_selection_plan", "classes"), count("losses.make_selection_plan")
        ),
        "losses.feature_dims": _ratio(
            noted("losses.make_selection_plan", "dims"), count("losses.make_selection_plan")
        ),
        "training.train.s": seconds("training.train"),
        "training.step.s": median([s.seconds for s, _ in calls.get("training.step", ())]),
        "training.step.self_s": median([own for _, own in calls.get("training.step", ())]),
        "training.steps": count("training.step"),
        "training.samples_per_s": _ratio(
            noted("training.train", "samples"), seconds("training.train")
        ),
        "evaluation.retrieval_report.s": seconds("evaluation.retrieval_report"),
        "evaluation.recall_at_k.s": seconds("evaluation.recall_at_k"),
        "evaluation.ranking.gflops": _ratio(
            sum(noted(n, "flops") for n in ranking) / 1e9, sum(seconds(n) for n in ranking)
        ),
        "evaluation.map_at_100.s": seconds("evaluation.map_at_100"),
        "evaluation.truncate_dims.s": seconds("evaluation.truncate_dims"),
        "evaluation.peak_mb": max(peaks, default=0) / 2**20,
        "rng.stream_rng.calls": count("rng.stream_rng"),
        "rng.stream_rng.s": seconds("rng.stream_rng"),
        "ablation.run_single.s": seconds("ablation.run_single"),
        "ablation.run_single.self_s": self_seconds("ablation.run_single"),
    }
    return {name: float(value) for name, value in m.items()}
