"""Smoke tests for the ablation harness (tiny settings; trends live in the
acceptance suite)."""

import json

import numpy as np
import pytest

from unicom import (
    AblationConfig,
    KMeansConfig,
    LinearEncoder,
    LossConfig,
    SyntheticSpec,
    TrainConfig,
    ablation,
    kmeans_fit,
    run_ablation,
    train,
)
from unicom.ablation import ablation_to_json, ablation_to_tsv, run_single
from unicom.errors import ValidationError


def tiny_config(**overrides):
    base = AblationConfig(
        synth=SyntheticSpec(true_classes=4, per_class=8, dim=12, intra_noise=0.1, seed=0),
        train=TrainConfig(epochs=2, batch_size=8, lr=0.001, seed=0,
                          loss=LossConfig(margin=0.3, scale=16.0, r1=0.5, r2=1.0, seed=0)),
        recall_k=1,
    )
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


class TestRunSingle:
    def test_reports_full_and_truncated_dims(self):
        cfg = tiny_config(report_dims=6)
        out = run_single(cfg, seed=1)
        assert set(out) == {12, 6}
        assert all(0.0 <= v <= 1.0 for v in out.values())

    def test_bottleneck_encoder_controls_dims(self):
        cfg = tiny_config(embed_dim=8)
        out = run_single(cfg, seed=1)
        assert set(out) == {8}

    def test_transfer_eval_uses_fresh_classes(self):
        a = run_single(tiny_config(), seed=2)
        b = run_single(tiny_config(transfer_eval=True), seed=2)
        assert set(a) == set(b) == {12}

    def test_cluster_labels_flow_through(self):
        cfg = tiny_config(cluster_k=4)
        out = run_single(cfg, seed=3)
        assert set(out) == {12}

    def test_cluster_labels_start_at_the_label_means_of_the_encoded_rows(self, monkeypatch):
        calls = []

        def recording(data, cfg, **kwargs):
            result = train(data, cfg, **kwargs)
            calls.append((data, cfg, result))
            return result

        monkeypatch.setattr(ablation, "train", recording)
        synth = SyntheticSpec(true_classes=4, per_class=8, dim=12, intra_noise=0.5, seed=0)
        run_single(tiny_config(synth=synth, cluster_k=5), seed=1)
        [(data, cfg, got)] = calls
        assignments = kmeans_fit(data, KMeansConfig(k=5, seed=1)).assignments
        want = train(data.with_labels(assignments), cfg, encoder=LinearEncoder.identity(12))
        assert np.asarray(got.losses).tobytes() == np.asarray(want.losses).tobytes()
        assert got.prototypes.rows.tobytes() == want.prototypes.rows.tobytes()

    def test_deterministic(self):
        cfg = tiny_config(embed_dim=8, transfer_eval=True)
        assert run_single(cfg, seed=5) == run_single(cfg, seed=5)


class TestRunAblation:
    def test_rows_carry_per_seed_values(self):
        rows = run_ablation("r1", [0.5, 1.0], tiny_config(), seeds=3)
        assert len(rows) == 2
        for row in rows:
            assert len(row.per_seed) == 3
            assert abs(row.mean - np.mean(row.per_seed)) < 1e-12

    def test_r3_grid_trains_with_dropout(self):
        rows = run_ablation("r3", [0.0, 0.25], tiny_config(), seeds=3)
        assert [r.value for r in rows] == [0.0, 0.25]

    @pytest.mark.parametrize("param", ["r1", "r2"])
    def test_class_or_feature_grid_under_dropout_rejected(self, param, monkeypatch):
        # Dropout scores every class and coordinate, so such a grid would
        # print rows that differ only in their labels.
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        base = tiny_config()
        base.train.loss.r3 = 0.3
        with pytest.raises(ValidationError, match="dropout"):
            run_ablation(param, [0.5, 1.0], base, seeds=3)

    def test_single_value_rejected(self):
        with pytest.raises(ValidationError):
            run_ablation("r1", [0.5], tiny_config(), seeds=3)

    def test_too_few_seeds_rejected(self):
        with pytest.raises(ValidationError):
            run_ablation("r1", [0.5, 1.0], tiny_config(), seeds=2)

    @pytest.mark.parametrize("param, values", [
        ("k", [5, 0]),
        ("k", [5, 33]),  # more clusters than the 4 x 8 points
        ("k", [5, 6.5]),
        ("r1", [0.5, 1.5]),
        ("r2", [0.5, 0.0]),
        ("r3", [0.0, 1.0]),
    ])
    def test_whole_grid_validated_before_any_training(self, param, values, monkeypatch):
        monkeypatch.setattr(ablation, "train", lambda *a, **kw: pytest.fail("trained"))
        with pytest.raises(ValidationError):
            run_ablation(param, values, tiny_config(), seeds=3)

    def test_out_of_range_base_cluster_count_rejected(self, monkeypatch):
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        with pytest.raises(ValidationError):
            run_ablation("r1", [0.5, 1.0], tiny_config(cluster_k=33), seeds=3)

    @pytest.mark.parametrize("param, values, overrides", [
        ("k", [4, 1], {}),  # a prototype matrix needs two classes
        ("r1", [0.5, 1.0], {"cluster_k": 1}),
        ("r2", [1.0, 0.03], {}),  # round(12 * 0.03) = 0 coordinates
        ("r2", [1.0, 0.1], {"embed_dim": 4}),  # round(4 * 0.1) = 0
        ("r1", [0.5, 1.0], {"embed_dim": 13}),
        ("r1", [0.5, 1.0], {"embed_dim": 0}),
        ("r1", [0.5, 1.0], {"recall_k": 0}),
        ("r1", [0.5, 1.0], {"report_dims": 0}),
        ("r1", [0.5, 1.0], {"recall_k": 1.5}),  # would be scored as recall@1
    ])
    def test_grid_point_that_would_fail_in_a_run_rejected(self, param, values, overrides, monkeypatch):
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        with pytest.raises(ValidationError):
            run_ablation(param, values, tiny_config(**overrides), seeds=3)

    @pytest.mark.parametrize("param, values, overrides, r3, conflict, message", [
        ("k", [4, 6], {"cluster_k": 5}, None, 0.0, "the k grid replaces"),
        ("r3", [0.1, 0.3], {}, 0.3, 0.0, "the r3 grid replaces"),
        ("k", [4, 6], {}, None, 0.5, "a conflict ratio does nothing"),
        ("r1", [0.5, 1.0], {"cluster_k": 4}, None, 0.5, "a conflict ratio does nothing"),
        ("r1", [0.5, 1.0], {"report_dims": 12}, None, 0.0, r"must lie in \[1, 11\], got 12"),
        ("r2", [0.5, 1.0], {"report_dims": 40}, None, 0.0, r"must lie in \[1, 11\], got 40"),
        ("r1", [0.5, 1.0], {"embed_dim": 8, "report_dims": 8}, None, 0.0, r"must lie in \[1, 7\], got 8"),
    ])
    def test_setting_a_run_would_ignore_rejected(self, param, values, overrides, r3, conflict, message, monkeypatch):
        # Each setting would leave every row as it is without it.
        monkeypatch.setattr(ablation, "run_single", lambda *a: pytest.fail("a grid point ran"))
        base = tiny_config(**overrides)
        base.train.loss.r3 = r3
        base.synth.conflict_ratio = conflict
        with pytest.raises(ValidationError, match=message):
            run_ablation(param, values, base, seeds=3)

    def test_report_dims_one_below_the_trained_dimension_is_scored(self):
        rows = run_ablation("r1", [0.5, 1.0], tiny_config(embed_dim=8, report_dims=7), seeds=3)
        assert [(r.value, r.dims_used) for r in rows] == [(0.5, 8), (0.5, 7), (1.0, 8), (1.0, 7)]

    def test_unknown_param_rejected(self):
        with pytest.raises(ValidationError):
            run_ablation("margin", [0.1, 0.2], tiny_config(), seeds=3)

    def test_report_writers(self):
        rows = run_ablation("r1", [0.5, 1.0], tiny_config(report_dims=6), seeds=3)
        tsv = ablation_to_tsv(rows)
        assert tsv.startswith("param\tvalue\tdims\tmean\tstd\tper_seed")
        assert len(tsv.strip().splitlines()) == 1 + len(rows)
        payload = json.loads(ablation_to_json(rows))
        assert len(payload) == len(rows)
        assert {"param", "value", "dims_used", "mean", "std", "per_seed"} <= set(payload[0])

    def test_json_keys_come_in_the_documented_order(self):
        rows = run_ablation("r1", [0.5, 1.0], tiny_config(), seeds=3)
        for row in json.loads(ablation_to_json(rows)):
            assert list(row) == ["param", "value", "dims_used", "mean", "std", "per_seed"]
