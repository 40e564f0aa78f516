"""Command-line pipeline: synth, cluster, train, eval, ablate, gradcheck.

Exit codes: 0 success, 1 assertion or computation failure, 2 usage error,
3 I/O or file-format error. Each command computes its whole result
first, then writes a manifest.json holding its command, its fully
resolved configuration and the package version, then its outputs. A run
that stops on an error writes nothing; a failed gradcheck (exit 1) is a
result and is written. A manifest reproduces its run from the output
directory alone (`--config manifest.json` re-applies it; explicit flags
win). A manifest stores relative input paths relative to its own
directory, and a config file's relative paths are read that way, so a
replay works from any working directory. A manifest replays only its own
command.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .ablation import ABLATION_PARAMS, AblationConfig, ablation_to_json, ablation_to_tsv, run_ablation
from .clustering import KMeansConfig, kmeans_fit
from .data import EmbeddingSet, SyntheticSpec, load_embeddings, save_embeddings, synth_conflict_dataset
from .errors import DimensionMismatchError, UcebFormatError, UnicomError, ValidationError
from .evaluation import RetrievalReport, map_at_100, retrieval_report, truncate_dims
from .gradcheck import DEFAULT_STEP, DEFAULT_TOL, check_selection_gradients
from .losses import LossConfig
from .training import TrainConfig, load_prototypes, save_checkpoint, train

_SKIP_MANIFEST_KEYS = {"func", "config", "out"}
# Flags that name input files.
_PATH_KEYS = ("input", "centroids", "labels", "queries", "gallery")

# Flags a run ignores, refused before it starts: (commands, condition, flags, message).
_IDLE_FLAGS = (
    (("eval",), lambda a: a.metric == "recall", ("queries", "gallery"), "the recall metric does not read --{}"),
    (("eval",), lambda a: a.metric == "map100", ("input", "labels", "k"), "the map100 metric does not read --{}"),
    (("train", "ablate"), lambda a: a.dropout_r3 is not None or getattr(a, "param", None) == "r3",
     ("r1", "r2"), "--{} does nothing under feature dropout (r3)"),
    (("ablate",), lambda a: a.param == "r1", ("r1",), "--{} does nothing under an r1 grid"),
    (("ablate",), lambda a: a.param == "r2", ("r2",), "--{} does nothing under an r2 grid"),
    (("train", "ablate"), lambda a: a.lr == 0, ("wd",), "--{} does nothing at --lr 0"),
    (("cluster",), lambda a: a.max_iters == 1, ("tol",), "--{} does nothing at --max-iters 1"),
)

# Keys older manifests store for settings that are gone: (commands, key,
# the one stored value that replays as today's run, or None for any value).
# Another value would quietly run another way, so it is refused.
_RETIRED_KEYS = (
    (("train", "ablate"), "optimizer", "adamw"),
    (("cluster",), "init", "random-points"),
    (("eval",), "seed", None),
)


def _write_manifest(args) -> Path:
    """Write manifest.json into --out, creating it, and return --out."""
    out_dir = Path(args.out)

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
        "version": __version__,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return out_dir


def _loss_config(args) -> LossConfig:
    return LossConfig(
        margin=args.margin, scale=args.scale, r1=args.r1, r2=args.r2, r3=args.dropout_r3, seed=args.seed
    )


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        weight_decay=args.wd,
        loss=_loss_config(args),
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
    data, truth = synth_conflict_dataset(spec)
    out = _write_manifest(args)
    save_embeddings(data, out / "data.uceb")
    save_embeddings(data.with_labels(truth), out / "truth.uceb")
    print(f"wrote {data.count} samples, {spec.pseudo_classes} pseudo classes -> {out}")
    return 0


def cmd_cluster(args) -> int:
    cfg = KMeansConfig(k=args.k, max_iters=args.max_iters, tol=args.tol, seed=args.seed)
    data = load_embeddings(args.input)
    result = kmeans_fit(data, cfg, threads=args.threads)
    out = _write_manifest(args)
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
    data = load_embeddings(args.input)
    prototypes = load_prototypes(args.centroids) if args.centroids else None
    result = train(data, cfg, prototypes=prototypes)
    embedded = data.with_vectors(result.encoder.encode(data.vectors))
    out = _write_manifest(args)
    save_checkpoint(out, result, cfg)
    (out / "loss_curve.txt").write_text(
        "".join(f"{v:.12e}\n" for v in result.losses)
    )
    save_embeddings(embedded, out / "embeddings.uceb")
    print(
        f"trained {result.steps} steps; loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}"
    )
    return 0


def cmd_eval(args) -> int:
    if args.metric == "recall":
        if not args.input:
            raise ValidationError("--input is required for the recall metric")
        ks = _number_list(args.k, int, "--k")
        data = load_embeddings(args.input)
        if args.labels:
            labeled = load_embeddings(args.labels)
            if labeled.labels is None:
                raise ValidationError(f"{args.labels} carries no labels")
            if labeled.ids != data.ids:
                raise ValidationError(f"{args.labels} does not list the ids of {args.input} in their order")
            data = data.with_labels(labeled.labels)
        if args.dims is not None:
            data = truncate_dims(data, args.dims)
        report = retrieval_report(data, ks, threads=args.threads)
    else:
        if not (args.queries and args.gallery):
            raise ValidationError("--queries and --gallery are required for map100")
        queries = load_embeddings(args.queries)
        gallery = load_embeddings(args.gallery)
        # Checked before truncation, which would give both sides --dims.
        if queries.dim != gallery.dim:
            raise DimensionMismatchError("query and gallery dimensions differ")
        if args.dims is not None:
            queries = truncate_dims(queries, args.dims)
            gallery = truncate_dims(gallery, args.dims)
        value = map_at_100(queries, gallery, threads=args.threads)
        report = RetrievalReport(recall_at={}, dims_used=gallery.dim, map_at_100=value)
    out = _write_manifest(args)
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
    rows = run_ablation(args.param, values, base, range(args.seed, args.seed + args.seeds))
    out = _write_manifest(args)
    (out / "ablation.tsv").write_text(ablation_to_tsv(rows))
    (out / "ablation.json").write_text(ablation_to_json(rows) + "\n")
    print(ablation_to_tsv(rows), end="")
    return 0


def cmd_gradcheck(args) -> int:
    report = check_selection_gradients(
        trials=args.trials, tolerance=args.tol, seed=args.seed, fd_step=args.fd_step
    )
    if args.out:
        out = _write_manifest(args)
        payload = {**asdict(report), "passed": report.passed}
        (out / "gradcheck.json").write_text(json.dumps(payload, indent=2) + "\n")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: {report.trials} trials, max relative error "
        f"{report.max_error:.3e} (tolerance {report.tolerance:.1e}), "
        f"{report.failures} failures"
    )
    return 0 if report.passed else 1


def _add_common(parser, out_required=True, seed=True):
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="master seed for all named random streams")
    parser.add_argument("--config", default=None, help="JSON file (or manifest.json) supplying flag defaults")
    parser.add_argument("--out", required=out_required, help="output directory")


def _add_threads(parser):
    parser.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")


def _add_train_flags(parser):
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    parser.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    parser.add_argument("--lr", type=float, default=TrainConfig.lr)
    parser.add_argument("--wd", type=float, default=TrainConfig.weight_decay, help="weight decay")
    parser.add_argument("--margin", type=float, default=LossConfig.margin)
    parser.add_argument("--scale", type=float, default=LossConfig.scale)
    parser.add_argument("--r1", type=float, default=LossConfig.r1, help="class sampling ratio")
    parser.add_argument("--r2", type=float, default=LossConfig.r2, help="feature mask keep ratio")
    parser.add_argument("--dropout-r3", type=float, default=LossConfig.r3, help="train with per-sample feature dropout instead of a shared mask")


def _add_synth_flags(parser):
    parser.add_argument("--classes", type=int, default=20, help="number of true classes")
    parser.add_argument("--per-class", type=int, default=50)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--noise", type=float, default=SyntheticSpec.intra_noise, help="intra-class noise sigma")
    parser.add_argument("--conflict", type=float, default=SyntheticSpec.conflict_ratio, help="fraction of true classes split into two pseudo labels")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="unicom",
        description="Cluster-discrimination pipeline: pseudo-label, train a margin softmax with random class/feature selection, evaluate retrieval.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a conflict-controlled synthetic dataset")
    _add_synth_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("cluster", help="k-means pseudo labels and centroids")
    p.add_argument("--input", required=True, help="UCEB embedding file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=KMeansConfig.max_iters)
    p.add_argument("--tol", type=float, default=KMeansConfig.tol)
    _add_threads(p)
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = subs.add_parser("train", help="train the encoder and prototypes on labeled embeddings")
    p.add_argument("--input", required=True, help="labeled UCEB file")
    p.add_argument("--centroids", default=None, help="UCEB file with initial prototypes (default: label means of the encoder's outputs)")
    _add_train_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="retrieval metrics on an embedding file")
    p.add_argument("--input", default=None, help="labeled UCEB file (recall metric)")
    p.add_argument("--metric", choices=("recall", "map100"), default="recall")
    p.add_argument("--k", default="1", help="comma-separated K values for recall")
    p.add_argument("--dims", type=int, default=None, help="truncate to the first N dimensions before scoring")
    p.add_argument("--labels", default=None, help="UCEB file whose labels override the input's; its ids must equal the input's ids in order (recall only)")
    p.add_argument("--queries", default=None, help="query UCEB file (map100)")
    p.add_argument("--gallery", default=None, help="gallery UCEB file (map100)")
    _add_threads(p)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("ablate", help="grid experiment over r1, r2, r3, or the cluster count")
    p.add_argument("--param", choices=ABLATION_PARAMS, required=True)
    p.add_argument("--values", required=True, help="comma-separated grid values")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds per grid point, from --seed on")
    p.add_argument("--recall-k", type=int, default=AblationConfig.recall_k)
    p.add_argument("--report-dims", type=int, default=None, help="also score recall after truncating to this many dims")
    p.add_argument("--cluster-k", type=int, default=None, help="derive pseudo labels with k-means at this k")
    p.add_argument("--embed-dim", type=int, default=None, help="bottleneck encoder output dim (orthonormal init)")
    p.add_argument("--transfer-eval", action="store_true", help="score retrieval on a fresh conflict-free dataset")
    _add_synth_flags(p)
    _add_train_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = subs.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--fd-step", type=float, default=DEFAULT_STEP)
    _add_common(p, out_required=False)
    p.set_defaults(func=cmd_gradcheck)

    return parser, subs.choices


def _stored_tokens(payload, path: str, command: str, actions: dict) -> dict[str, str]:
    """The command-line token of each flag a --config payload stores, by
    flag name: a manifest's `config` section, or a bare object of flag values."""
    owner = command
    # A manifest names its command; anything else must be an object of
    # flag values. A train_config.json nests its settings under names no
    # flag has, so reading it as flags would quietly train with defaults.
    if isinstance(payload, dict) and "command" in payload and "config" in payload:
        owner, payload = payload["command"], payload["config"]
    if not isinstance(payload, dict) or any(isinstance(v, (dict, list)) for v in payload.values()):
        raise ValidationError(f"{path} is neither a manifest nor a JSON object of flag values")
    owner = payload.pop("command", owner)
    if owner != command:
        raise ValidationError(f"{path} is a manifest of `{owner}`, not `{command}`")
    for names, key, kept in _RETIRED_KEYS:
        value = payload.pop(key, None) if command in names else None
        if kept is not None and value not in (None, kept):
            raise ValidationError(f"{path} stores the removed {key} {value!r}; only {kept} remains")
    tokens = {}
    for key, value in payload.items():
        if key == "config":
            raise ValidationError(f"{path} stores `config`; a config file cannot name another")
        if key not in actions:
            raise ValidationError(f"{path} stores `{key}`, which names no flag of `{command}`")
        if isinstance(value, bool) and actions[key].nargs != 0:
            raise ValidationError(f"{path} stores {json.dumps(value)} for `{key}`, which takes a value")
        if value is None or value is False:
            continue
        if key in _PATH_KEYS and isinstance(value, str) and not os.path.isabs(value):
            value = os.path.join(os.path.dirname(path), value)
        # The = form keeps a value that starts with - a value.
        flag = actions[key].option_strings[0]
        tokens[key] = flag if value is True else f"{flag}={value}"
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    # The probe parse learns the command, the config path and the typed
    # flags; the real parse reads the stored flags ahead of the typed ones,
    # so a typed flag wins and a stored one passes every argparse check.
    probe, probe_commands = build_parser()
    for probe_sub in probe_commands.values():
        for action in probe_sub._actions:
            action.required, action.default = False, argparse.SUPPRESS
    given = vars(probe.parse_args(argv))  # exits: 0 after help, 2 on a usage error
    command, path = given["command"], given.get("config")
    actions = {action.dest: action for action in commands[command]._actions if action.dest != "help"}
    try:
        tokens = {}
        if path:
            try:
                payload = json.loads(Path(path).read_text())
            except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
                print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
                return 3
            tokens = _stored_tokens(payload, path, command, actions)
        args = parser.parse_args([command, *tokens.values(), *argv[1:]])
        # A flag is set when typed, or when stored with a value other than
        # its default: a replayed manifest's stored defaults are not set.
        set_flags = set(given) | {dest for dest in tokens if getattr(args, dest) != actions[dest].default}
        idle = [message.format(flag) for names, applies, flags, message in _IDLE_FLAGS
                if command in names and applies(args) for flag in flags if flag in set_flags]
        if idle:
            raise ValidationError(idle[0])
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
