"""Tests for the encoder, optimizers, and the sparse-update contracts."""

import json

import numpy as np
import pytest

from unicom import (
    ClusterResult,
    LinearEncoder,
    LossConfig,
    PrototypeMatrix,
    SyntheticSpec,
    TrainConfig,
    Trainer,
    encode,
    init_prototypes,
    make_selection_plan,
    prototypes_from_labels,
    synth_conflict_dataset,
    train,
)
from unicom.errors import DegenerateVectorError, ValidationError
from unicom.gradcheck import finite_difference, max_relative_error
from unicom.rng import stream_rng
from unicom.training import load_encoder, load_prototypes, save_checkpoint
from unicom.util import unit_rows


class TestEncode:
    def test_identity_weights_pass_unit_inputs_through(self):
        rng = np.random.default_rng(0)
        x = unit_rows(rng.standard_normal((5, 6)))
        enc = LinearEncoder.identity(6)
        np.testing.assert_allclose(encode(enc, x), x, atol=1e-12)

    def test_outputs_are_unit_norm(self):
        rng = np.random.default_rng(1)
        enc = LinearEncoder.random(7, 4, seed=3)
        e = encode(enc, rng.standard_normal((10, 7)) * 5)
        np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-6)

    def test_zero_projection_row_rejected(self):
        enc = LinearEncoder(np.zeros((3, 3)))
        with pytest.raises(DegenerateVectorError):
            encode(enc, np.ones((1, 3)))

    def test_normalization_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(5)
        norm = np.linalg.norm(z)
        e_hat = z / norm
        analytic = (np.eye(5) - np.outer(e_hat, e_hat)) / norm
        for row in range(5):
            num = finite_difference(
                lambda v, r=row: v[r] / np.linalg.norm(v), z
            )
            assert max_relative_error(analytic[row], num) < 1e-5


class TestInitPrototypes:
    def test_unit_centroids_pass_through(self):
        cols = unit_rows(np.random.default_rng(3).standard_normal((4, 5))).T
        clusters = ClusterResult(centroids=cols, assignments=np.zeros(4, dtype=np.int64))
        np.testing.assert_allclose(init_prototypes(clusters).columns, cols, atol=1e-12)

    def test_scaled_centroid_is_renormalized(self):
        cols = np.array([[2.0, 0.0], [0.0, 0.5]])
        clusters = ClusterResult(centroids=cols, assignments=np.zeros(2, dtype=np.int64))
        got = init_prototypes(clusters).columns
        np.testing.assert_allclose(got, np.eye(2), atol=1e-12)

    def test_single_cluster_rejected(self):
        clusters = ClusterResult(
            centroids=np.ones((3, 1)), assignments=np.zeros(2, dtype=np.int64)
        )
        with pytest.raises(ValidationError):
            init_prototypes(clusters)

    def test_label_gaps_get_random_columns(self):
        rng = np.random.default_rng(4)
        x = unit_rows(rng.standard_normal((6, 4)))
        labels = np.array([0, 0, 3, 3, 3, 0])
        protos = prototypes_from_labels(x, labels, seed=1)
        assert protos.classes == 4
        np.testing.assert_allclose(np.linalg.norm(protos.columns, axis=0), 1.0, atol=1e-9)

    def test_labels_outside_class_range_rejected(self):
        x = unit_rows(np.random.default_rng(5).standard_normal((4, 3)))
        for labels in ([0, 1, 2, 3], [0, 1, -1, 2]):
            with pytest.raises(ValidationError):
                prototypes_from_labels(x, labels, num_classes=3)


def _small_problem(seed=0, k=8, d=10, b=6):
    rng = np.random.default_rng(seed)
    x = unit_rows(rng.standard_normal((b, d)))
    labels = rng.integers(0, k, size=b)
    prototypes = PrototypeMatrix(rng.standard_normal((d, k)))
    return x, labels, prototypes


class TestTrainStep:
    def test_zero_lr_leaves_parameters_bit_identical(self):
        x, labels, prototypes = _small_problem()
        cfg = TrainConfig(lr=0.0, loss=LossConfig(r1=0.5, r2=0.5, seed=2), seed=2)
        trainer = Trainer(LinearEncoder.identity(10), prototypes, cfg)
        before_w = trainer.encoder.weights.tobytes()
        before_p = trainer.prototypes.columns.tobytes()
        trainer.step(x, labels)
        assert trainer.encoder.weights.tobytes() == before_w
        assert trainer.prototypes.columns.tobytes() == before_p

    def test_unselected_columns_and_masked_coords_untouched(self):
        x, labels, prototypes = _small_problem(seed=5)
        cfg = TrainConfig(lr=0.01, loss=LossConfig(r1=0.5, r2=0.5, seed=7), seed=7)
        trainer = Trainer(LinearEncoder.identity(10), prototypes, cfg)
        plan = make_selection_plan(labels, prototypes.classes, prototypes.dim, cfg.loss, 0)
        before = trainer.prototypes.columns.copy()
        trainer.step(x, labels, plan)
        after = trainer.prototypes.columns
        outside = np.setdiff1d(np.arange(prototypes.classes), plan.class_subset)
        assert after[:, outside].tobytes() == before[:, outside].tobytes()
        off = ~plan.feature_mask
        assert after[np.ix_(off, plan.class_subset)].tobytes() == before[np.ix_(off, plan.class_subset)].tobytes()
        # and the selected block did move
        on = plan.feature_mask
        assert after[np.ix_(on, plan.class_subset)].tobytes() != before[np.ix_(on, plan.class_subset)].tobytes()

    def test_columns_stay_unit_after_sparse_update(self):
        x, labels, prototypes = _small_problem(seed=6)
        cfg = TrainConfig(lr=0.05, loss=LossConfig(r1=0.5, r2=0.5, seed=3), seed=3)
        trainer = Trainer(LinearEncoder.identity(10), prototypes, cfg)
        for _ in range(20):
            trainer.step(x, labels)
        norms = np.linalg.norm(trainer.prototypes.columns, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_loss_decreases_over_200_steps(self):
        spec = SyntheticSpec(true_classes=10, per_class=32, dim=16, intra_noise=0.05, seed=1)
        data, _ = synth_conflict_dataset(spec)
        protos = PrototypeMatrix(stream_rng(1, "test-protos").standard_normal((16, 10)))
        cfg = TrainConfig(epochs=20, batch_size=32, lr=0.001, seed=1,
                          loss=LossConfig(margin=0.3, scale=64.0, r1=1.0, r2=1.0, seed=1))
        result = train(data, cfg, prototypes=protos)
        losses = result.losses[:200]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])


class TestOptimizers:
    def test_adamw_decay_is_decoupled_and_exact(self):
        _, _, prototypes = _small_problem(seed=8)
        cfg = TrainConfig(lr=0.01, weight_decay=0.05, seed=0)
        enc = LinearEncoder.random(6, 10, seed=4)
        trainer = Trainer(enc, prototypes, cfg)
        before = enc.weights.copy()
        trainer._update_encoder(np.zeros_like(before))
        expected = before - cfg.lr * (cfg.weight_decay * before)
        np.testing.assert_array_equal(enc.weights, expected)

    @pytest.mark.parametrize("optimizer", ["adamw", "sgd-momentum"])
    def test_both_optimizers_converge_on_separable_data(self, optimizer):
        spec = SyntheticSpec(true_classes=5, per_class=80, dim=16, intra_noise=0.01, seed=0)
        data, _ = synth_conflict_dataset(spec)
        protos = PrototypeMatrix(stream_rng(0, "test-protos").standard_normal((16, 5)))
        cfg = TrainConfig(epochs=40, batch_size=32, optimizer=optimizer, lr=0.001,
                          loss=LossConfig(margin=0.3, scale=64.0, r1=1.0, r2=1.0, seed=0), seed=0)
        result = train(data, cfg, prototypes=protos)
        losses = result.losses
        assert len(losses) >= 500
        assert losses[499] < 0.1 * losses[0]


class TestTrainConfigDefaults:
    def test_defaults_match_published_recipe(self):
        cfg = TrainConfig()
        assert cfg.optimizer == "adamw"
        assert cfg.lr == 0.001
        assert cfg.weight_decay == 0.05
        assert cfg.loss.r1 == 0.1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(lr=-0.1)
        with pytest.raises(ValidationError):
            TrainConfig(optimizer="lbfgs")
        with pytest.raises(ValidationError):
            TrainConfig(dropout_r3=1.0)


class TestTrainLoop:
    def test_identical_seeds_give_identical_loss_curves(self):
        spec = SyntheticSpec(true_classes=6, per_class=10, dim=8, intra_noise=0.1, seed=3)
        data, _ = synth_conflict_dataset(spec)
        cfg = TrainConfig(epochs=3, batch_size=16, lr=0.001, seed=42,
                          loss=LossConfig(r1=0.5, r2=0.5, seed=42))
        a = train(data, cfg)
        b = train(data, cfg)
        assert a.losses == b.losses
        assert a.encoder.weights.tobytes() == b.encoder.weights.tobytes()
        assert a.prototypes.columns.tobytes() == b.prototypes.columns.tobytes()

    def test_shuffle_depends_on_epoch(self):
        n = 100
        p0 = stream_rng(7, "shuffle", 0).permutation(n)
        p1 = stream_rng(7, "shuffle", 1).permutation(n)
        assert not np.array_equal(p0, p1)
        np.testing.assert_array_equal(p0, stream_rng(7, "shuffle", 0).permutation(n))

    def test_requires_labels_and_two_classes(self):
        rng = np.random.default_rng(5)
        from unicom import EmbeddingSet

        unlabeled = EmbeddingSet(rng.standard_normal((4, 3)).astype(np.float32), list("abcd"))
        with pytest.raises(ValidationError):
            train(unlabeled, TrainConfig())
        single = unlabeled.with_labels([1, 1, 1, 1])
        with pytest.raises(ValidationError):
            train(single, TrainConfig())

    def test_checkpoint_round_trip(self, tmp_path):
        spec = SyntheticSpec(true_classes=4, per_class=8, dim=6, intra_noise=0.1, seed=9)
        data, _ = synth_conflict_dataset(spec)
        cfg = TrainConfig(epochs=2, batch_size=8, lr=0.001, seed=9, loss=LossConfig(r1=1.0, seed=9))
        result = train(data, cfg)
        save_checkpoint(tmp_path, result, cfg)
        enc = load_encoder(tmp_path / "encoder.uceb")
        protos = load_prototypes(tmp_path / "prototypes.uceb")
        np.testing.assert_allclose(
            enc.weights, result.encoder.weights.astype(np.float32), atol=0
        )
        np.testing.assert_allclose(
            protos.columns,
            PrototypeMatrix(result.prototypes.columns.astype(np.float32)).columns,
            atol=1e-7,
        )
        sidecar = json.loads((tmp_path / "train_config.json").read_text())
        assert sidecar["steps"] == result.steps
        assert sidecar["config"]["lr"] == cfg.lr
