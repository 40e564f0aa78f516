"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to see
them). Tolerances are pinned here, not configurable. The trend criteria
(6 to 9) run the full synthesize/label/train/evaluate pipeline over 5
seeds each; everything together stays well inside a laptop budget.
"""

import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from unicom import (
    AblationConfig,
    KMeansConfig,
    LinearEncoder,
    LossConfig,
    PrototypeMatrix,
    SyntheticSpec,
    TrainConfig,
    Trainer,
    check_selection_gradients,
    kmeans_fit,
    load_embeddings,
    make_selection_plan,
    map_at_100,
    recall_at_k,
    run_ablation,
    selection_backward,
    EmbeddingSet,
)
from unicom.ablation import run_single
from unicom.cli import main as cli_main
from unicom.util import unit_rows


def report(number, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} - {title}: {detail}")
    assert ok, f"criterion {number} ({title}): {detail}"


# --------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness():
    start = time.time()
    rep = check_selection_gradients(trials=100, tolerance=1e-5, seed=2024)
    elapsed = time.time() - start
    ok = rep.passed and elapsed < 10.0
    report(
        1, "gradient correctness",
        ok,
        f"max relative error {rep.max_error:.3e} over {rep.trials} instances "
        f"(tolerance 1e-5), {rep.failures} failures, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 2. reduction equivalence


def _plain_softmax_oracle(embeddings, labels, columns, scale):
    e = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    w = columns / np.linalg.norm(columns, axis=0, keepdims=True)
    losses = []
    for i, y in enumerate(labels):
        logits = np.array([scale * float(np.dot(e[i], w[:, j])) for j in range(w.shape[1])])
        losses.append(float(np.logaddexp.reduce(logits)) - logits[y])
    return math.fsum(losses) / len(losses)


def test_criterion_2_reduction_equivalence():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        b, d, k = int(rng.integers(1, 5)), int(rng.integers(3, 17)), int(rng.integers(2, 33))
        e = unit_rows(rng.standard_normal((b, d)))
        labels = rng.integers(0, k, size=b)
        prototypes = PrototypeMatrix(rng.standard_normal((k, d)))
        scale = float(rng.uniform(0.5, 32.0))
        cfg = LossConfig(margin=0.0, scale=scale, r1=1.0, r2=1.0)
        plan = make_selection_plan(labels, k, d, cfg, 0)
        got = selection_backward(e, labels, prototypes, plan, cfg).loss
        expected = _plain_softmax_oracle(e, labels, prototypes.rows.T, scale)
        worst = max(worst, abs(got - expected))
    report(
        2, "reduction equivalence",
        worst <= 1e-10,
        f"max |selection(r1=1, r2=1, m=0) - direct softmax| = {worst:.3e} (tolerance 1e-10)",
    )


# --------------------------------------------------------------------------
# 3. sparse-update contract


def test_criterion_3_sparse_update_bit_identity():
    rng = np.random.default_rng(3)
    violations = 0
    checked = 0
    for trial in range(5):
        d, k, b = 12, 16, 5
        prototypes = PrototypeMatrix(rng.standard_normal((k, d)))
        cfg = TrainConfig(
            lr=0.01, seed=trial,
            loss=LossConfig(margin=0.3, scale=16.0, r1=0.4, r2=0.5, seed=trial),
        )
        trainer = Trainer(LinearEncoder.identity(d), prototypes, cfg)
        for step in range(3):
            x = unit_rows(rng.standard_normal((b, d)))
            labels = rng.integers(0, k, size=b)
            plan = make_selection_plan(labels, k, d, cfg.loss, trainer.step_count)
            before = trainer.prototypes.rows.copy()
            trainer.step(x, labels, plan)
            after = trainer.prototypes.rows
            outside = np.setdiff1d(np.arange(k), plan.class_subset)
            off = ~plan.feature_mask
            checked += 1
            if after[outside].tobytes() != before[outside].tobytes():
                violations += 1
            if (
                after[np.ix_(plan.class_subset, off)].tobytes()
                != before[np.ix_(plan.class_subset, off)].tobytes()
            ):
                violations += 1
    report(
        3, "sparse-update contract",
        violations == 0,
        f"{checked} steps, {violations} bit-level violations "
        "(unselected rows and off-mask coordinates, zero tolerance)",
    )


# --------------------------------------------------------------------------
# 4. k-means soundness


def _exhaustive_two_partition(x):
    best, best_labels = math.inf, None
    for labels in itertools.product((0, 1), repeat=x.shape[0]):
        labels = np.array(labels)
        total = 0.0
        for j in (0, 1):
            members = x[labels == j]
            if len(members):
                mu = members.mean(axis=0)
                total += float(np.sum((members - mu) ** 2))
        if total / x.shape[0] < best:
            best, best_labels = total / x.shape[0], labels
    return best, best_labels


def test_criterion_4_kmeans_soundness():
    rng = np.random.default_rng(4)
    monotone_failures = 0
    for trial in range(50):
        n = int(rng.integers(6, 50))
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, min(n, 9) + 1))
        res = kmeans_fit(rng.standard_normal((n, d)), KMeansConfig(k=k, seed=trial))
        trace = res.objective_trace
        if not all(b <= a + 1e-12 for a, b in zip(trace, trace[1:])):
            monotone_failures += 1

    x = rng.standard_normal((9, 4))
    degenerate = kmeans_fit(x, KMeansConfig(k=9, seed=0)).objective_trace[-1]

    blobs = np.array(
        [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [5.0, 5.0], [5.1, 5.0], [5.0, 5.1]]
    )
    res = kmeans_fit(blobs, KMeansConfig(k=2, seed=1))
    best, best_labels = _exhaustive_two_partition(blobs)
    partition_match = np.array_equal(res.assignments, best_labels) or np.array_equal(
        res.assignments, 1 - best_labels
    )
    blob_gap = abs(res.objective_trace[-1] - best)

    ok = monotone_failures == 0 and degenerate == 0.0 and partition_match and blob_gap < 1e-12
    report(
        4, "k-means soundness",
        ok,
        f"monotone failures {monotone_failures}/50, k=n objective {degenerate}, "
        f"blob optimum gap {blob_gap:.2e} with matching partition={partition_match}",
    )


# --------------------------------------------------------------------------
# 5. metric oracles


def _oracle_recall(embeddings, k):
    v = unit_rows(embeddings.vectors.astype(np.float64))
    labels, hits = embeddings.labels, 0
    for q in range(len(v)):
        sims = sorted(
            ((-float(np.dot(v[q], v[j])), j) for j in range(len(v)) if j != q)
        )
        if any(labels[j] == labels[q] for _, j in sims[:k]):
            hits += 1
    return hits / len(v)


def _oracle_map100(queries, gallery):
    qv = unit_rows(queries.vectors.astype(np.float64))
    gv = unit_rows(gallery.vectors.astype(np.float64))
    aps = []
    for q in range(len(qv)):
        relevant = int(np.sum(gallery.labels == queries.labels[q]))
        if relevant == 0:
            continue
        order = sorted(range(len(gv)), key=lambda j: (-float(np.dot(qv[q], gv[j])), j))
        hits, terms = 0, []
        for rank, j in enumerate(order[:100], start=1):
            if gallery.labels[j] == queries.labels[q]:
                hits += 1
                terms.append(hits / rank)
        aps.append(math.fsum(terms) / min(relevant, 100))
    return math.fsum(aps) / len(aps)


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(5)
    recall_mismatches = 0
    map_mismatches = 0
    for trial in range(20):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(3, 10))
        classes = int(rng.integers(2, 7))
        vectors = unit_rows(rng.standard_normal((n, d))).astype(np.float32)
        labels = np.arange(n) % classes
        s = EmbeddingSet(vectors, [f"i{j}" for j in range(n)], labels)
        k = int(rng.integers(1, 6))
        if recall_at_k(s, k) != _oracle_recall(s, k):
            recall_mismatches += 1
        if trial % 2 == 0:
            half = n // 2
            queries = EmbeddingSet(vectors[:half], [f"q{j}" for j in range(half)], labels[:half])
            gallery = EmbeddingSet(vectors[half:], [f"g{j}" for j in range(n - half)], labels[half:])
            if map_at_100(queries, gallery) != _oracle_map100(queries, gallery):
                map_mismatches += 1

    # the (rel, non-rel, rel) ranking must give exactly (1/1 + 2/3) / 2
    gallery = EmbeddingSet(
        np.array([[1, 0], [0.9, np.sqrt(1 - 0.81)], [0, 1]], dtype=np.float32),
        ["a", "b", "c"], [0, 1, 0],
    )
    queries = EmbeddingSet(np.array([[1, 0]], dtype=np.float32), ["q"], [0])
    ap = map_at_100(queries, gallery)
    ap_exact = ap == (1.0 / 1.0 + 2.0 / 3.0) / 2.0 and abs(ap - 5.0 / 6.0) < 1e-15

    ok = recall_mismatches == 0 and map_mismatches == 0 and ap_exact
    report(
        5, "metric oracles",
        ok,
        f"recall mismatches {recall_mismatches}/20, mAP mismatches {map_mismatches}/10, "
        f"(1,0,1) AP = {ap:.12f} (exactly 5/6: {ap_exact})",
    )


# --------------------------------------------------------------------------
# trend criteria: shared protocol pieces


def _trend_train(epochs, r1=0.1, r2=1.0):
    return TrainConfig(
        epochs=epochs, batch_size=8, lr=0.003, weight_decay=0.05,
        loss=LossConfig(margin=0.3, scale=64.0, r1=r1, r2=r2, seed=0), seed=0,
    )


def test_criterion_6_conflict_robustness_trend():
    start = time.time()
    base = AblationConfig(
        synth=SyntheticSpec(true_classes=20, per_class=50, dim=64,
                            intra_noise=0.1, conflict_ratio=0.3, seed=0),
        train=_trend_train(epochs=10),
        recall_k=1, embed_dim=16, transfer_eval=True,
    )
    rows = run_ablation("r1", [0.1, 1.0], base, seeds=5)
    by_value = {row.value: row for row in rows}
    gap = by_value[0.1].mean - by_value[1.0].mean
    elapsed = time.time() - start
    ok = gap >= 0.02 and elapsed < 300
    report(
        6, "conflict-robustness trend",
        ok,
        f"recall@1 r1=0.1: {by_value[0.1].mean:.4f}, r1=1.0: {by_value[1.0].mean:.4f}, "
        f"gap {100 * gap:.2f} points (needs >= 2), {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def compactness_runs():
    """r2 grid plus the dropout arm, shared by criteria 7 and 8."""
    base = AblationConfig(
        synth=SyntheticSpec(true_classes=20, per_class=50, dim=64,
                            intra_noise=0.15, conflict_ratio=0.0, seed=0),
        train=_trend_train(epochs=20, r1=1.0),
        recall_k=1, report_dims=8, embed_dim=16, transfer_eval=False,
    )
    rows = run_ablation("r2", [0.5, 1.0], base, seeds=5)
    stats = {(row.value, row.dims_used): row.mean for row in rows}
    dropout_cfg = replace(base, train=replace(base.train, loss=replace(base.train.loss, r3=0.5)))
    dropout_trunc = [run_single(dropout_cfg, seed)[8] for seed in range(5)]
    stats[("dropout", 8)] = float(np.mean(dropout_trunc))
    return stats


def test_criterion_7_compactness_trend(compactness_runs):
    s = compactness_runs
    trunc_gap = s[(0.5, 8)] - s[(1.0, 8)]
    full_diff = abs(s[(0.5, 16)] - s[(1.0, 16)])
    ok = trunc_gap >= 0.0 and full_diff < 0.02
    report(
        7, "compactness trend",
        ok,
        f"truncated recall@1 r2=0.5: {s[(0.5, 8)]:.4f} vs r2=1.0: {s[(1.0, 8)]:.4f} "
        f"(gap {100 * trunc_gap:.2f} pts, needs >= 0); full-dim difference "
        f"{100 * full_diff:.2f} pts (needs < 2)",
    )


def test_criterion_8_dropout_contrast(compactness_runs):
    s = compactness_runs
    gap = s[(0.5, 8)] - s[("dropout", 8)]
    ok = gap > 0.0
    report(
        8, "dropout contrast",
        ok,
        f"truncated recall@1 r2=0.5: {s[(0.5, 8)]:.4f} vs r3=0.5 dropout: "
        f"{s[('dropout', 8)]:.4f} (gap {100 * gap:.2f} pts, needs > 0)",
    )


def test_criterion_9_cluster_number_trend():
    base = AblationConfig(
        synth=SyntheticSpec(true_classes=20, per_class=50, dim=64,
                            intra_noise=0.25, conflict_ratio=0.0, seed=0),
        train=_trend_train(epochs=10),
        recall_k=1, embed_dim=16, transfer_eval=False,
    )
    rows = run_ablation("k", [5, 20, 80], base, seeds=5)
    means = {int(row.value): row.mean for row in rows}
    ok = means[20] > means[5] and means[20] > means[80]
    report(
        9, "cluster-number trend",
        ok,
        f"recall@1 at k=5: {means[5]:.4f}, k=20: {means[20]:.4f}, k=80: {means[80]:.4f} "
        "(peak required at k=20)",
    )


# --------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_cli_determinism(tmp_path):
    def synth(out, seed="11"):
        return cli_main([
            "synth", "--classes", "6", "--per-class", "10", "--dim", "16",
            "--conflict", "0.3", "--seed", seed, "--out", str(out),
        ])

    byte_identical = True
    for name in ("x", "y"):
        root = tmp_path / name
        assert synth(root / "d") == 0
        assert cli_main([
            "cluster", "--input", str(root / "d" / "data.uceb"), "--k", "6",
            "--seed", "11", "--out", str(root / "c"),
        ]) == 0
        assert cli_main([
            "train", "--input", str(root / "c" / "assigned.uceb"),
            "--epochs", "2", "--seed", "11", "--out", str(root / "t"),
        ]) == 0
    for sub, fname in (
        ("d", "data.uceb"), ("d", "truth.uceb"),
        ("c", "centroids.uceb"), ("c", "assigned.uceb"), ("c", "objective_trace.txt"),
        ("t", "encoder.uceb"), ("t", "prototypes.uceb"),
        ("t", "embeddings.uceb"), ("t", "loss_curve.txt"),
    ):
        a = (tmp_path / "x" / sub / fname).read_bytes()
        b = (tmp_path / "y" / sub / fname).read_bytes()
        if a != b:
            byte_identical = False

    worst = 0.0
    for threads in ("1", "4"):
        out = tmp_path / f"e{threads}"
        assert cli_main([
            "eval", "--input", str(tmp_path / "x" / "d" / "data.uceb"),
            "--metric", "recall", "--k", "1,3", "--threads", threads,
            "--out", str(out),
        ]) == 0
    r1 = json.loads((tmp_path / "e1" / "report.json").read_text())["recall_at"]
    r4 = json.loads((tmp_path / "e4" / "report.json").read_text())["recall_at"]
    for k in r1:
        worst = max(worst, abs(r1[k] - r4[k]))

    ok = byte_identical and worst <= 1e-9
    report(
        10, "determinism",
        ok,
        f"pipeline re-run byte-identical: {byte_identical}; max threaded metric "
        f"difference {worst:.2e} (tolerance 1e-9)",
    )
