"""Command-line pipeline: synth, cluster, train, eval, ablate, gradcheck.

Exit codes: 0 success, 1 assertion or computation failure, 2 usage error,
3 I/O or file-format error. Every file-producing command writes a
manifest.json with the fully resolved configuration before any
computation starts, so a run can be reproduced from its output directory
alone (`--config manifest.json` re-applies it; explicit flags win). A
manifest stores relative input paths relative to its own directory, and
a config file's relative paths are read that way, so a replay works from
any working directory. A manifest replays only its own command.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ablation import ABLATION_PARAMS, AblationConfig, ablation_to_json, ablation_to_tsv, run_ablation
from .clustering import KMeansConfig, kmeans_fit, INIT_METHODS
from .data import EmbeddingSet, SyntheticSpec, load_embeddings, save_embeddings, synth_conflict_dataset
from .errors import UcebFormatError, UnicomError, ValidationError
from .evaluation import RetrievalReport, map_at_100, retrieval_report, truncate_dims
from .gradcheck import check_selection_gradients
from .losses import LossConfig
from .training import (
    OPTIMIZERS,
    TrainConfig,
    load_prototypes,
    save_checkpoint,
    train,
)

_SKIP_MANIFEST_KEYS = {"func", "config", "out"}
# Flags that name input files.
_PATH_KEYS = ("input", "centroids", "labels", "queries", "gallery")


def _write_manifest(args, out_dir: Path, inputs: list[str], outputs: list[str]) -> None:
    def stored(path):
        return path if os.path.isabs(path) else os.path.relpath(path, out_dir)

    config = {
        k: stored(v) if k in _PATH_KEYS and v is not None else v
        for k, v in sorted(vars(args).items())
        if k not in _SKIP_MANIFEST_KEYS and not callable(v)
    }
    manifest = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "inputs": [stored(p) for p in inputs],
        "outputs": outputs,
        "version": __version__,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _loss_config(args) -> LossConfig:
    return LossConfig(
        margin=args.margin, scale=args.scale, r1=args.r1, r2=args.r2, seed=args.seed
    )


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        optimizer=args.optimizer,
        lr=args.lr,
        weight_decay=args.wd,
        loss=_loss_config(args),
        dropout_r3=args.dropout_r3,
        seed=args.seed,
    )


def _synth_spec(args) -> SyntheticSpec:
    return SyntheticSpec(
        true_classes=args.classes,
        per_class=args.per_class,
        dim=args.dim,
        intra_noise=args.noise,
        conflict_ratio=args.conflict,
        seed=args.seed,
    )


def _number_list(text: str, convert, flag: str) -> list:
    """Comma-separated numbers of one flag; a bad or empty entry is a usage error."""
    try:
        return [convert(item) for item in str(text).split(",")]
    except ValueError:
        raise ValidationError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def cmd_synth(args) -> int:
    spec = _synth_spec(args)
    out = Path(args.out)
    _write_manifest(args, out, [], ["data.uceb", "truth.uceb"])
    data, truth = synth_conflict_dataset(spec)
    save_embeddings(data, out / "data.uceb")
    save_embeddings(data.with_labels(truth), out / "truth.uceb")
    print(f"wrote {data.count} samples, {spec.pseudo_classes} pseudo classes -> {out}")
    return 0


def cmd_cluster(args) -> int:
    cfg = KMeansConfig(
        k=args.k, max_iters=args.max_iters, tol=args.tol, init=args.init, seed=args.seed
    )
    out = Path(args.out)
    _write_manifest(args, out, [args.input], ["centroids.uceb", "assigned.uceb", "objective_trace.txt"])
    data = load_embeddings(args.input)
    result = kmeans_fit(data, cfg, threads=args.threads)
    save_embeddings(
        EmbeddingSet(result.centroids, [f"cluster-{i:06d}" for i in range(cfg.k)]),
        out / "centroids.uceb",
    )
    save_embeddings(data.with_labels(result.assignments), out / "assigned.uceb")
    trace_text = "\n".join(f"{v:.12e}" for v in result.objective_trace) + "\n"
    (out / "objective_trace.txt").write_text(trace_text)
    for i, v in enumerate(result.objective_trace):
        print(f"iter {i}: objective {v:.6e}")
    return 0


def cmd_train(args) -> int:
    cfg = _train_config(args)
    out = Path(args.out)
    outputs = ["encoder.uceb", "prototypes.uceb", "train_config.json", "loss_curve.txt", "embeddings.uceb"]
    _write_manifest(args, out, [args.input], outputs)
    data = load_embeddings(args.input)
    prototypes = load_prototypes(args.centroids) if args.centroids else None
    result = train(data, cfg, prototypes=prototypes)
    save_checkpoint(out, result, cfg)
    (out / "loss_curve.txt").write_text(
        "".join(f"{v:.12e}\n" for v in result.losses)
    )
    embedded = result.encoder.encode(data.vectors.astype(np.float64))
    save_embeddings(data.with_vectors(embedded), out / "embeddings.uceb")
    print(
        f"trained {result.steps} steps; loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}"
    )
    return 0


def cmd_eval(args) -> int:
    out = Path(args.out)
    if args.metric == "recall":
        if not args.input:
            raise ValidationError("--input is required for the recall metric")
        ks = _number_list(args.k, int, "--k")
        _write_manifest(args, out, [args.input], ["report.json", "report.tsv"])
        data = load_embeddings(args.input)
        if args.labels:
            labels = load_embeddings(args.labels).labels
            if labels is None:
                raise ValidationError(f"{args.labels} carries no labels")
            data = data.with_labels(labels)
        if args.dims is not None:
            data = truncate_dims(data, args.dims)
        report = retrieval_report(
            data, ks, threads=args.threads, config={"dims": args.dims, "k": args.k}
        )
    else:
        if not (args.queries and args.gallery):
            raise ValidationError("--queries and --gallery are required for map100")
        _write_manifest(args, out, [args.queries, args.gallery], ["report.json", "report.tsv"])
        queries = load_embeddings(args.queries)
        gallery = load_embeddings(args.gallery)
        if args.dims is not None:
            queries = truncate_dims(queries, args.dims)
            gallery = truncate_dims(gallery, args.dims)
        value = map_at_100(queries, gallery, threads=args.threads)
        report = RetrievalReport(
            recall_at={}, dims_used=gallery.dim, map_at_100=value,
            config={"dims": args.dims},
        )
    (out / "report.json").write_text(report.to_json() + "\n")
    (out / "report.tsv").write_text(report.to_tsv())
    print(report.to_tsv(), end="")
    return 0


def cmd_ablate(args) -> int:
    values = _number_list(args.values, float, "--values")
    base = AblationConfig(
        synth=_synth_spec(args),
        train=_train_config(args),
        recall_k=args.recall_k,
        report_dims=args.report_dims,
        cluster_k=args.cluster_k,
        embed_dim=args.embed_dim,
        transfer_eval=args.transfer_eval,
    )
    out = Path(args.out)
    _write_manifest(args, out, [], ["ablation.tsv", "ablation.json"])
    rows = run_ablation(args.param, values, base, args.seeds)
    (out / "ablation.tsv").write_text(ablation_to_tsv(rows))
    (out / "ablation.json").write_text(ablation_to_json(rows) + "\n")
    print(ablation_to_tsv(rows), end="")
    return 0


def cmd_gradcheck(args) -> int:
    report = check_selection_gradients(
        trials=args.trials, tolerance=args.tol, seed=args.seed, fd_step=args.fd_step
    )
    if args.out:
        out = Path(args.out)
        _write_manifest(args, out, [], ["gradcheck.json"])
        payload = {
            "trials": report.trials,
            "tolerance": report.tolerance,
            "max_error": report.max_error,
            "failures": report.failures,
            "passed": report.passed,
        }
        (out / "gradcheck.json").write_text(json.dumps(payload, indent=2) + "\n")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: {report.trials} trials, max relative error "
        f"{report.max_error:.3e} (tolerance {report.tolerance:.1e}), "
        f"{report.failures} failures"
    )
    return 0 if report.passed else 1


def _add_common(parser, out_required=True):
    parser.add_argument("--seed", type=int, default=0, help="master seed for all named random streams")
    parser.add_argument("--config", default=None, help="JSON file (or manifest.json) supplying flag defaults")
    parser.add_argument("--out", required=out_required, help="output directory")


def _add_threads(parser):
    parser.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")


def _add_train_flags(parser):
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--optimizer", choices=OPTIMIZERS, default="adamw")
    parser.add_argument("--lr", type=float, default=0.001)
    parser.add_argument("--wd", type=float, default=0.05, help="weight decay")
    parser.add_argument("--margin", type=float, default=0.3)
    parser.add_argument("--scale", type=float, default=64.0)
    parser.add_argument("--r1", type=float, default=0.1, help="class sampling ratio")
    parser.add_argument("--r2", type=float, default=1.0, help="feature mask keep ratio")
    parser.add_argument("--dropout-r3", type=float, default=None, help="train with per-sample feature dropout instead of a shared mask")


def _add_synth_flags(parser):
    parser.add_argument("--classes", type=int, default=20, help="number of true classes")
    parser.add_argument("--per-class", type=int, default=50)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--noise", type=float, default=0.1, help="intra-class noise sigma")
    parser.add_argument("--conflict", type=float, default=0.0, help="fraction of true classes split into two pseudo labels")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="unicom",
        description="Cluster-discrimination pipeline: pseudo-label, train a margin softmax with random class/feature selection, evaluate retrieval.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    p = subs.add_parser("synth", help="generate a conflict-controlled synthetic dataset")
    _add_synth_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_synth)
    registry["synth"] = p

    p = subs.add_parser("cluster", help="k-means pseudo labels and centroids")
    p.add_argument("--input", required=True, help="UCEB embedding file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--init", choices=INIT_METHODS, default="kmeanspp")
    _add_threads(p)
    _add_common(p)
    p.set_defaults(func=cmd_cluster)
    registry["cluster"] = p

    p = subs.add_parser("train", help="train the encoder and prototypes on labeled embeddings")
    p.add_argument("--input", required=True, help="labeled UCEB file")
    p.add_argument("--centroids", default=None, help="UCEB file with initial prototypes (default: label means)")
    _add_train_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)
    registry["train"] = p

    p = subs.add_parser("eval", help="retrieval metrics on an embedding file")
    p.add_argument("--input", default=None, help="labeled UCEB file (recall metric)")
    p.add_argument("--metric", choices=("recall", "map100"), default="recall")
    p.add_argument("--k", default="1", help="comma-separated K values for recall")
    p.add_argument("--dims", type=int, default=None, help="truncate to the first N dimensions before scoring")
    p.add_argument("--labels", default=None, help="UCEB file whose labels override the input's")
    p.add_argument("--queries", default=None, help="query UCEB file (map100)")
    p.add_argument("--gallery", default=None, help="gallery UCEB file (map100)")
    _add_threads(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)
    registry["eval"] = p

    p = subs.add_parser("ablate", help="grid experiment over r1, r2, r3, or the cluster count")
    p.add_argument("--param", choices=ABLATION_PARAMS, required=True)
    p.add_argument("--values", required=True, help="comma-separated grid values")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds per grid point")
    p.add_argument("--recall-k", type=int, default=1)
    p.add_argument("--report-dims", type=int, default=None, help="also score recall after truncating to this many dims")
    p.add_argument("--cluster-k", type=int, default=None, help="derive pseudo labels with k-means at this k")
    p.add_argument("--embed-dim", type=int, default=None, help="bottleneck encoder output dim (orthonormal init)")
    p.add_argument("--transfer-eval", action="store_true", help="score retrieval on a fresh conflict-free dataset")
    _add_synth_flags(p)
    _add_train_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_ablate)
    registry["ablate"] = p

    p = subs.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--fd-step", type=float, default=1e-5)
    _add_common(p, out_required=False)
    p.set_defaults(func=cmd_gradcheck)
    registry["gradcheck"] = p

    return parser, registry


def _config_path(argv) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()

    path = _config_path(argv)
    if path:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
            return 3
        command = next((a for a in argv if not a.startswith("-")), None)
        if isinstance(payload, dict) and isinstance(payload.get("config"), dict):
            if payload.get("command", command) != command:
                print(
                    f"usage error: {path} is a manifest of `{payload['command']}`, not `{command}`",
                    file=sys.stderr,
                )
                return 2
            payload = payload["config"]
        if command in registry and isinstance(payload, dict):
            # A stored value stands in for a flag, required or not; a
            # stored null leaves the flag at its default.
            for action in registry[command]._actions:
                value = payload.get(action.dest)
                if value is None:
                    continue
                if action.dest in _PATH_KEYS and isinstance(value, str) and not os.path.isabs(value):
                    value = os.path.join(os.path.dirname(path), value)
                action.default = value
                action.required = False

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (UcebFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except UnicomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
