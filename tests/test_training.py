"""Tests for the encoder, the AdamW step, and the sparse-update contracts."""

import json
import tracemalloc

import numpy as np
import pytest

from unicom import (
    ClusterResult,
    EmbeddingSet,
    LinearEncoder,
    LossConfig,
    PrototypeMatrix,
    SelectionPlan,
    SyntheticSpec,
    TrainConfig,
    Trainer,
    init_prototypes,
    load_embeddings,
    make_selection_plan,
    prototypes_from_labels,
    synth_conflict_dataset,
    train,
)
from unicom.errors import DegenerateVectorError, DimensionMismatchError, NonFiniteLossError, ValidationError
from unicom.gradcheck import finite_difference, max_relative_error
from unicom.rng import stream_rng
from unicom.training import _encode_cache, load_prototypes, save_checkpoint
from unicom.util import BLOCK_ROWS, unit_rows


class TestEncode:
    def test_identity_weights_pass_unit_inputs_through(self):
        rng = np.random.default_rng(0)
        x = unit_rows(rng.standard_normal((5, 6)))
        enc = LinearEncoder.identity(6)
        np.testing.assert_allclose(enc.encode(x), x, atol=1e-12)

    def test_outputs_are_unit_norm(self):
        rng = np.random.default_rng(1)
        enc = LinearEncoder(rng.standard_normal((7, 4)))
        e = enc.encode(rng.standard_normal((10, 7)) * 5)
        np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-6)

    def test_zero_projection_row_rejected(self):
        enc = LinearEncoder(np.zeros((3, 3)))
        with pytest.raises(DegenerateVectorError):
            enc.encode(np.ones((1, 3)))

    @pytest.mark.parametrize("shape", [(2, 5), (2, 3), (4,), (1, 2, 4)])
    def test_inputs_of_another_dim_are_rejected(self, shape):
        with pytest.raises(DimensionMismatchError, match=rf"inputs of shape \({shape[0]},.* do not match encoder input dim 4"):
            LinearEncoder.identity(4).encode(np.ones(shape))

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

    @pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 1])
    def test_row_bits_do_not_depend_on_the_set(self, n):
        # Windows of BLOCK_ROWS rows, the last overlapping its predecessor,
        # give every row the bits of the whole-set product.
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 24)).astype(np.float32)
        enc = LinearEncoder(rng.standard_normal((24, 16)))
        whole = enc.encode(x)
        assert whole.tobytes() == _encode_cache(enc.weights, x)[2].tobytes()
        mid = (n - BLOCK_ROWS) // 2
        for a, b in [(0, BLOCK_ROWS), (1, n), (0, n - 1), (mid, mid + BLOCK_ROWS), (n - BLOCK_ROWS, n)]:
            assert enc.encode(x[a:b]).tobytes() == whole[a:b].tobytes(), (a, b)

    def test_holds_no_float64_copy_of_the_set(self):
        # Beyond its output, encode holds a few windows: the float64 rows,
        # their projection and its squares.
        n, d, e = 20 * BLOCK_ROWS, 48, 32
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, d)).astype(np.float32)
        enc = LinearEncoder(rng.standard_normal((d, e)))
        tracemalloc.start()
        try:
            enc.encode(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * e * 8 + 4 * BLOCK_ROWS * d * 8


class TestInitPrototypes:
    def test_unit_centroids_pass_through(self):
        rows = unit_rows(np.random.default_rng(3).standard_normal((5, 4)))
        clusters = ClusterResult(centroids=rows, assignments=np.zeros(4, dtype=np.int64))
        np.testing.assert_allclose(init_prototypes(clusters).rows, rows, atol=1e-12)

    def test_scaled_centroid_is_renormalized(self):
        rows = np.array([[2.0, 0.0], [0.0, 0.5]])
        clusters = ClusterResult(centroids=rows, assignments=np.zeros(2, dtype=np.int64))
        got = init_prototypes(clusters).rows
        np.testing.assert_allclose(got, np.eye(2), atol=1e-12)

    def test_single_cluster_rejected(self):
        clusters = ClusterResult(
            centroids=np.ones((1, 3)), assignments=np.zeros(2, dtype=np.int64)
        )
        with pytest.raises(ValidationError):
            init_prototypes(clusters)

    def test_label_gaps_get_random_rows(self):
        rng = np.random.default_rng(4)
        x = unit_rows(rng.standard_normal((6, 4)))
        labels = np.array([0, 0, 3, 3, 3, 0])
        protos = prototypes_from_labels(x, labels, seed=1)
        assert protos.classes == 4
        np.testing.assert_allclose(np.linalg.norm(protos.rows, axis=1), 1.0, atol=1e-9)

    def test_labels_outside_class_range_rejected(self):
        x = unit_rows(np.random.default_rng(5).standard_normal((4, 3)))
        for labels in ([0, 1, 2, 3], [0, 1, -1, 2]):
            with pytest.raises(ValidationError):
                prototypes_from_labels(x, labels, num_classes=3)

    @pytest.mark.parametrize("labels, count", [([0, 1], 2), ([0, 1, 0, 1], 4), ([[0, 1, 0]], 3)])
    def test_one_label_per_row_is_required(self, labels, count):
        with pytest.raises(DimensionMismatchError, match=rf"got {count} labels for 3 rows$"):
            prototypes_from_labels(np.ones((3, 2)), labels)


def trainer_arrays(trainer):
    """The parameters of a Trainer and every array of its optimizer state:
    the moments and step counts of the encoder and of the prototypes."""
    arrays = [trainer.encoder.weights, trainer.prototypes.rows, *trainer._enc_moments,
              np.int64(trainer._enc_steps), *trainer._proto_moments, trainer._proto_steps]
    return [np.asarray(a) for a in arrays]


def _small_problem(seed=0, k=8, d=10, b=6):
    rng = np.random.default_rng(seed)
    x = unit_rows(rng.standard_normal((b, d)))
    labels = rng.integers(0, k, size=b)
    prototypes = PrototypeMatrix(rng.standard_normal((k, d)))
    return x, labels, prototypes


class TestTrainStep:
    def test_zero_lr_leaves_parameters_bit_identical(self):
        x, labels, prototypes = _small_problem()
        cfg = TrainConfig(lr=0.0, loss=LossConfig(r1=0.5, r2=0.5, seed=2), seed=2)
        trainer = Trainer(LinearEncoder.identity(10), prototypes, cfg)
        before_w = trainer.encoder.weights.tobytes()
        before_p = trainer.prototypes.rows.tobytes()
        trainer.step(x, labels)
        assert trainer.encoder.weights.tobytes() == before_w
        assert trainer.prototypes.rows.tobytes() == before_p

    def test_unselected_rows_and_masked_coords_untouched(self):
        x, labels, prototypes = _small_problem(seed=5)
        cfg = TrainConfig(lr=0.01, loss=LossConfig(r1=0.5, r2=0.5, seed=7), seed=7)
        trainer = Trainer(LinearEncoder.identity(10), prototypes, cfg)
        plan = make_selection_plan(labels, prototypes.classes, prototypes.dim, cfg.loss, 0)
        before = trainer.prototypes.rows.copy()
        trainer.step(x, labels, plan)
        after = trainer.prototypes.rows
        outside = np.setdiff1d(np.arange(prototypes.classes), plan.class_subset)
        assert after[outside].tobytes() == before[outside].tobytes()
        off = ~plan.feature_mask
        assert after[np.ix_(plan.class_subset, off)].tobytes() == before[np.ix_(plan.class_subset, off)].tobytes()
        # and the selected block did move
        on = plan.feature_mask
        assert after[np.ix_(plan.class_subset, on)].tobytes() != before[np.ix_(plan.class_subset, on)].tobytes()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_non_finite_loss_raises_before_any_update(self, weight_decay):
        x, labels, prototypes = _small_problem(seed=4)
        cfg = TrainConfig(lr=0.01, weight_decay=weight_decay, loss=LossConfig(r1=0.5, r2=0.5, seed=1), seed=1)
        trainer = Trainer(LinearEncoder.identity(10), prototypes, cfg)
        trainer.step(x, labels)
        state = [a.tobytes() for a in trainer_arrays(trainer)]
        x[2, 3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLossError):
            trainer.step(x, labels)
        assert [a.tobytes() for a in trainer_arrays(trainer)] == state
        assert trainer.step_count == 1

    def test_rows_stay_unit_after_sparse_update(self):
        x, labels, prototypes = _small_problem(seed=6)
        cfg = TrainConfig(lr=0.05, loss=LossConfig(r1=0.5, r2=0.5, seed=3), seed=3)
        trainer = Trainer(LinearEncoder.identity(10), prototypes, cfg)
        for _ in range(20):
            trainer.step(x, labels)
        norms = np.linalg.norm(trainer.prototypes.rows, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    @pytest.mark.parametrize("r2", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_step_keeps_the_masked_norm_of_each_updated_row(self, r2, seed):
        # Few masked coordinates make small sub-vector norms, the case a
        # rescale to sqrt(1 - (1 - s)) gets wrong by tens of ulps.
        rng = np.random.default_rng(seed)
        k, d = 12, 8
        x = unit_rows(rng.standard_normal((8, d)))
        labels = rng.integers(0, k, size=8)
        cfg = TrainConfig(lr=0.05, loss=LossConfig(r1=0.5, r2=r2, seed=seed), seed=seed)
        trainer = Trainer(LinearEncoder.identity(d), PrototypeMatrix(rng.standard_normal((k, d))), cfg)
        ulp = np.finfo(np.float64).eps
        for step in range(5):
            plan = make_selection_plan(labels, k, d, cfg.loss, step)
            block = np.ix_(plan.class_subset, plan.feature_mask)
            before = trainer.prototypes.rows[block].copy()
            trainer.step(x, labels, plan)
            after = trainer.prototypes.rows[block]
            assert not np.array_equal(after, before)
            np.testing.assert_allclose(
                np.linalg.norm(after, axis=1), np.linalg.norm(before, axis=1), rtol=4 * ulp, atol=0
            )
            np.testing.assert_allclose(np.linalg.norm(trainer.prototypes.rows, axis=1), 1.0, rtol=0, atol=4 * ulp)

    @pytest.mark.parametrize("r2", [1.0, 0.5])
    def test_prototype_step_holds_blocks_not_the_selection(self, r2):
        # 2,000 selected rows of 128 dimensions: a (|S|, |mask|) float64
        # array takes 2 MB, its flat index as much again.
        rng = np.random.default_rng(8)
        k, size, d = 20_000, 2_000, 128
        cfg = TrainConfig(lr=0.01, loss=LossConfig(r2=r2, seed=1), seed=1)
        trainer = Trainer(LinearEncoder.identity(d), PrototypeMatrix(rng.standard_normal((k, d))), cfg)
        subset = np.sort(rng.choice(k, size, replace=False))
        mask = make_selection_plan([0], k, d, cfg.loss, 0).feature_mask
        grad = rng.standard_normal((size, d)) * mask
        tracemalloc.start()
        try:
            trainer._update_prototypes(grad, subset, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_loss_decreases_over_200_steps(self):
        spec = SyntheticSpec(true_classes=10, per_class=32, dim=16, intra_noise=0.05, seed=1)
        data, _ = synth_conflict_dataset(spec)
        protos = PrototypeMatrix(stream_rng(1, "test-protos").standard_normal((10, 16)))
        cfg = TrainConfig(epochs=20, batch_size=32, lr=0.001, seed=1,
                          loss=LossConfig(margin=0.3, scale=64.0, r1=1.0, r2=1.0, seed=1))
        result = train(data, cfg, prototypes=protos)
        losses = result.losses[:200]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])


class TestCallerPlans:
    def test_plan_of_lists_steps_like_plan_of_arrays(self):
        x, labels, _ = _small_problem(seed=12, k=5, b=3)
        cfg = TrainConfig(lr=0.01, loss=LossConfig(seed=1), seed=1)
        results = []
        for container in (np.array, list):
            _, _, prototypes = _small_problem(seed=12, k=5, b=3)
            trainer = Trainer(LinearEncoder.identity(10), prototypes, cfg)
            subset = sorted(set(labels.tolist()) | {4})
            mask = [True, False] * 5
            trainer.step(x, labels, SelectionPlan(container(subset), container(mask)))
            results.append((trainer.step_count, trainer.encoder.weights.tobytes(),
                            trainer.prototypes.rows.tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("subset", [[-1, 0, 1], [0, 1, 1, 4], [0, 1, 4, 7]],
                             ids=["negative", "duplicate", "out-of-range"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_step_raises_and_every_array_keeps_its_bits(self, subset, weight_decay):
        x, _, prototypes = _small_problem(seed=3, k=5, b=3)
        labels = np.array([0, 1, 1])
        cfg = TrainConfig(lr=0.01, weight_decay=weight_decay, loss=LossConfig(r1=0.5, seed=1), seed=1)
        trainer = Trainer(LinearEncoder.identity(10), prototypes, cfg)
        trainer.step(x, labels)  # leaves non-zero optimizer state behind

        def state():
            return [a.tobytes() for a in [x, labels, *trainer_arrays(trainer)]]

        before = state()
        plan = SelectionPlan(np.array(subset), np.ones(10, dtype=bool))
        with pytest.raises(ValidationError, match="strictly increasing"):
            trainer.step(x, labels, plan)
        assert state() == before
        assert trainer.step_count == 1


class TestDropoutStep:
    def test_encoder_gradient_matches_finite_differences(self):
        # The dropout pattern depends on (seed, step) only, so it stays
        # fixed while the encoder weights are perturbed.
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 6))
        labels = rng.integers(0, 5, size=3)
        prototypes = PrototypeMatrix(rng.standard_normal((5, 7)))
        cfg = TrainConfig(loss=LossConfig(margin=0.3, scale=4.0, r3=0.4, seed=8))
        weights = rng.standard_normal((6, 7))
        plan = make_selection_plan(labels, 5, 7, cfg.loss, 3)

        def backward(w):
            trainer = Trainer(LinearEncoder(w), prototypes, cfg)
            return trainer._backward(x, labels, plan)

        num = finite_difference(lambda w: backward(w)[0].loss, weights)
        assert max_relative_error(backward(weights)[1], num) < 1e-5

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_zero_ratio_steps_equal_full_softmax_steps(self, weight_decay):
        x, labels, _ = _small_problem(seed=13)
        results = []
        for r3 in (0.0, None):
            cfg = TrainConfig(lr=0.01, weight_decay=weight_decay, seed=2,
                              loss=LossConfig(margin=0.0, scale=8.0, r1=1.0, r2=1.0, r3=r3, seed=2))
            _, _, prototypes = _small_problem(seed=13)
            weights = np.random.default_rng(1).standard_normal((10, 10))
            trainer = Trainer(LinearEncoder(weights), prototypes, cfg)
            losses = [trainer.step(x, labels) for _ in range(3)]
            results.append((losses, trainer.encoder.weights.tobytes(), trainer.prototypes.rows.tobytes()))
        assert results[0] == results[1]


class TestOptimizers:
    def test_adamw_decay_is_decoupled_and_exact(self):
        _, _, prototypes = _small_problem(seed=8)
        cfg = TrainConfig(lr=0.01, weight_decay=0.05, seed=0)
        enc = LinearEncoder(np.random.default_rng(4).standard_normal((6, 10)))
        trainer = Trainer(enc, prototypes, cfg)
        before = enc.weights.copy()
        trainer._update_encoder(np.zeros_like(before))
        expected = before - cfg.lr * (cfg.weight_decay * before)
        np.testing.assert_array_equal(enc.weights, expected)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_adamw_converges_on_separable_data(self, weight_decay):
        spec = SyntheticSpec(true_classes=5, per_class=80, dim=16, intra_noise=0.01, seed=0)
        data, _ = synth_conflict_dataset(spec)
        protos = PrototypeMatrix(stream_rng(0, "test-protos").standard_normal((5, 16)))
        cfg = TrainConfig(epochs=40, batch_size=32, lr=0.001, weight_decay=weight_decay,
                          loss=LossConfig(margin=0.3, scale=64.0, r1=1.0, r2=1.0, seed=0), seed=0)
        result = train(data, cfg, prototypes=protos)
        losses = result.losses
        assert len(losses) >= 500
        assert losses[499] < 0.1 * losses[0]


class TestTrainConfigDefaults:
    def test_defaults_match_published_recipe(self):
        cfg = TrainConfig()
        assert cfg.lr == 0.001
        assert cfg.weight_decay == 0.05
        assert cfg.loss.r1 == 0.1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(lr=-0.1)
        with pytest.raises(ValidationError):
            TrainConfig(loss=LossConfig(r3=1.0))


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
        assert a.prototypes.rows.tobytes() == b.prototypes.rows.tobytes()

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

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("passed", [False, True])
    @pytest.mark.parametrize("r2", [0.5, 1.0])
    @pytest.mark.parametrize("r3", [None, 0.3])
    def test_matches_a_loop_over_the_whole_set_in_float64(self, weight_decay, passed, r2, r3):
        rng = np.random.default_rng(8)
        vectors = (rng.standard_normal((70, 8)) * 3).astype(np.float32)
        data = EmbeddingSet(vectors, [str(i) for i in range(70)], rng.integers(0, 6, 70))
        init = rng.standard_normal((6, 8))
        cfg = TrainConfig(epochs=2, batch_size=16, lr=0.01, weight_decay=weight_decay, seed=4,
                          loss=LossConfig(r1=0.5, r2=r2, r3=r3, seed=4))

        # The loop as it ran with the whole set converted up front.
        x = data.vectors.astype(np.float64)
        start = LinearEncoder.identity(8).encode(x)
        want = PrototypeMatrix(init) if passed else prototypes_from_labels(start, data.labels, seed=cfg.seed)
        trainer = Trainer(LinearEncoder.identity(8), want, cfg)
        losses = []
        for epoch in range(cfg.epochs):
            order = stream_rng(cfg.seed, "shuffle", epoch).permutation(data.count)
            for start in range(0, data.count, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                losses.append(trainer.step(x[batch], data.labels[batch]))

        got = train(data, cfg, prototypes=PrototypeMatrix(init) if passed else None)
        assert np.asarray(got.losses).tobytes() == np.asarray(losses).tobytes()
        assert got.encoder.weights.tobytes() == trainer.encoder.weights.tobytes()
        assert got.prototypes.rows.tobytes() == want.rows.tobytes()

    @pytest.mark.parametrize("passed", [True, False], ids=["given", "label-means"])
    def test_holds_no_float64_copy_of_the_set(self, passed):
        # n * d * 4 bytes is half of what a float64 copy of the rows takes;
        # without prototypes, the label means are summed window by window.
        n, d = 40000, 32
        rng = np.random.default_rng(2)
        data = EmbeddingSet(rng.standard_normal((n, d)).astype(np.float32),
                            [str(i) for i in range(n)], np.arange(n) % 4)
        prototypes = PrototypeMatrix(rng.standard_normal((4, d))) if passed else None
        cfg = TrainConfig(epochs=1, batch_size=256, loss=LossConfig(r1=1.0))
        tracemalloc.start()
        try:
            train(data, cfg, prototypes=prototypes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * 4

    @staticmethod
    def _synth_20x20():
        spec = SyntheticSpec(true_classes=20, per_class=20, dim=32, intra_noise=1.0, seed=0)
        return synth_conflict_dataset(spec)[0]

    def test_starts_from_label_means_of_the_encoded_rows(self):
        data = self._synth_20x20()
        # Class 19 is left empty, so its prototype is drawn from cfg.seed.
        data = data.with_labels(np.where(data.labels == 19, 20, data.labels))
        cfg = TrainConfig(epochs=1, lr=0.01, seed=3, loss=LossConfig(r1=1.0, seed=3))
        got = train(data, cfg, encoder=LinearEncoder.orthonormal(32, 8, seed=5))
        encoder = LinearEncoder.orthonormal(32, 8, seed=5)
        start = prototypes_from_labels(encoder.encode(data.vectors), data.labels, seed=cfg.seed)
        want = train(data, cfg, prototypes=start, encoder=encoder)
        assert np.asarray(got.losses).tobytes() == np.asarray(want.losses).tobytes()
        assert got.encoder.weights.tobytes() == want.encoder.weights.tobytes()
        assert got.prototypes.rows.tobytes() == want.prototypes.rows.tobytes()

    @pytest.mark.parametrize("n", [BLOCK_ROWS, 2 * BLOCK_ROWS + 37])
    def test_start_is_the_label_means_of_the_encoded_set_bit_for_bit(self, n):
        # At lr 0 the prototypes keep their start. Class 3 of 0..6 is empty,
        # and at 2 * BLOCK_ROWS + 37 rows the last window overlaps.
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 6, n)
        labels[labels == 3] = 6
        data = EmbeddingSet((rng.standard_normal((n, 24)) * 3).astype(np.float32),
                            [str(i) for i in range(n)], labels)
        encoder = LinearEncoder.orthonormal(24, 12, seed=2)
        want = prototypes_from_labels(encoder.encode(data.vectors), labels, seed=7)
        cfg = TrainConfig(epochs=1, batch_size=256, lr=0.0, seed=7, loss=LossConfig(r1=1.0, seed=7))
        got = train(data, cfg, encoder=encoder)
        assert got.prototypes.rows.tobytes() == want.rows.tobytes()

    def test_the_default_encoder_starts_like_an_explicit_identity(self):
        # Rows far from unit length, and class 2 of 0..5 left empty: the
        # default start takes the label means of the encoded rows too.
        rng = np.random.default_rng(6)
        vectors = (rng.standard_normal((60, 10)) * 3).astype(np.float32)
        labels = rng.integers(0, 5, 60)
        labels[labels == 2] = 5
        data = EmbeddingSet(vectors, [str(i) for i in range(60)], labels)
        cfg = TrainConfig(epochs=2, batch_size=16, lr=0.01, seed=3, loss=LossConfig(r1=0.5, seed=3))
        got = train(data, cfg)
        want = train(data, cfg, encoder=LinearEncoder.identity(10))
        assert np.asarray(got.losses).tobytes() == np.asarray(want.losses).tobytes()
        assert got.encoder.weights.tobytes() == want.encoder.weights.tobytes()
        assert got.prototypes.rows.tobytes() == want.prototypes.rows.tobytes()

    def test_a_rotated_encoder_starts_at_the_identity_loss(self):
        data = self._synth_20x20()
        cfg = TrainConfig(epochs=1, loss=LossConfig(r1=1.0))
        rotated = train(data, cfg, encoder=LinearEncoder.orthonormal(32, 32, seed=5)).losses[0]
        identity = train(data, cfg, encoder=LinearEncoder.identity(32)).losses[0]
        assert rotated == pytest.approx(identity, rel=1e-9)

    def test_mismatch_names_both_dimensions(self):
        with pytest.raises(DimensionMismatchError,
                           match="prototype dim 12 does not match the encoder's output dim 16"):
            Trainer(LinearEncoder.identity(16), PrototypeMatrix(np.eye(12)), TrainConfig())

    def test_checkpoint_round_trip(self, tmp_path):
        spec = SyntheticSpec(true_classes=4, per_class=8, dim=6, intra_noise=0.1, seed=9)
        data, _ = synth_conflict_dataset(spec)
        cfg = TrainConfig(epochs=2, batch_size=8, lr=0.001, seed=9, loss=LossConfig(r1=1.0, seed=9))
        result = train(data, cfg)
        save_checkpoint(tmp_path, result, cfg)
        weights = load_embeddings(tmp_path / "encoder.uceb").vectors
        protos = load_prototypes(tmp_path / "prototypes.uceb")
        assert weights.tobytes() == result.encoder.weights.astype(np.float32).tobytes()
        want = PrototypeMatrix(result.prototypes.rows.astype(np.float32))
        assert protos.rows.tobytes() == want.rows.tobytes()
        sidecar = json.loads((tmp_path / "train_config.json").read_text())
        assert sidecar["steps"] == result.steps
        assert sidecar["config"]["lr"] == cfg.lr


@pytest.mark.parametrize("call, message", [
    (lambda: LinearEncoder(np.ones(4)), "encoder weights must be 2-D"),
    (lambda: LinearEncoder.orthonormal(4, 8), "orthonormal init needs output_dim <= input_dim"),
    (lambda: prototypes_from_labels(np.ones((3, 2)), [0, 0, 0]), "at least two classes are required"),
    (lambda: TrainConfig(epochs=0), "epochs must be >= 1"),
    (lambda: TrainConfig(batch_size=0), "batch_size must be >= 1"),
    (lambda: LinearEncoder.orthonormal(4, 0), r"shape \(4, 0\) have an empty dimension"),
    (lambda: prototypes_from_labels(np.empty((0, 3)), []), "at least one labeled row, got 0"),
    (lambda: TrainConfig(epochs=1.5), "epochs must be an integer, got 1.5"),
    (lambda: TrainConfig(batch_size=2.5), "batch_size must be an integer, got 2.5"),
    (lambda: TrainConfig(epochs="2"), "epochs must be an integer, got '2'"),
])
def test_refuses_malformed_encoders_prototypes_and_configs(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_config_takes_integral_floats_as_counts():
    cfg = TrainConfig(epochs=2.0, batch_size=np.int64(8), loss=LossConfig(r1=1.0))
    assert type(cfg.epochs) is int and type(cfg.batch_size) is int
    data, _ = synth_conflict_dataset(SyntheticSpec(true_classes=4, per_class=4, dim=6, seed=3))
    assert train(data, cfg).steps == 4
