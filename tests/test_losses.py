"""Tests for the selection softmax, feature dropout, and their gradients."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from unicom import (
    LossConfig,
    PrototypeMatrix,
    SelectionPlan,
    feature_dropout_mask,
    full_plan,
    make_selection_plan,
    sample_classes,
    sample_feature_mask,
    selection_backward,
)
from unicom.errors import DegenerateVectorError, DimensionMismatchError, ValidationError
from unicom.gradcheck import finite_difference, max_relative_error
from unicom.util import unit_rows


def traced_peak(fn):
    """Bytes that tracemalloc saw allocated at the peak of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_units(rng, n, d):
    return unit_rows(rng.standard_normal((n, d)))


def full_softmax_oracle(embeddings, labels, columns, scale):
    """Independent evaluation of the plain softmax cross-entropy.

    Normalizes rows and columns, scores every class, and reduces with
    log-sum-exp per sample; shares no code with the implementation.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    e = e / np.linalg.norm(e, axis=1, keepdims=True)
    w = np.asarray(columns, dtype=np.float64)
    w = w / np.linalg.norm(w, axis=0, keepdims=True)
    losses = []
    for i, y in enumerate(labels):
        logits = [scale * float(np.dot(e[i], w[:, j])) for j in range(w.shape[1])]
        lse = np.logaddexp.reduce(np.array(logits))
        losses.append(lse - logits[y])
    return math.fsum(losses) / len(losses)


class TestConfigDefaults:
    def test_loss_defaults_match_published_recipe(self):
        cfg = LossConfig()
        assert cfg.margin == 0.3
        assert cfg.scale == 64.0
        assert cfg.r1 == 0.1

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValidationError):
            LossConfig(margin=-0.1)
        with pytest.raises(ValidationError):
            LossConfig(scale=0.0)
        with pytest.raises(ValidationError):
            LossConfig(r1=0.0)
        with pytest.raises(ValidationError):
            LossConfig(r2=1.5)


class TestSampleClasses:
    def test_paper_scale_subset_size(self):
        s = sample_classes([17], 1_000_000, 0.1, seed=0, step=0)
        assert s.size == 100_000

    def test_full_ratio_selects_every_class(self):
        s = sample_classes([3, 7], 12, 1.0, seed=0, step=0)
        np.testing.assert_array_equal(s, np.arange(12))

    def test_positives_always_included(self):
        rng = np.random.default_rng(0)
        for step in range(50):
            labels = rng.integers(0, 40, size=8)
            s = sample_classes(labels, 40, 0.2, seed=1, step=step)
            assert np.isin(labels, s).all()
            assert s.size == max(8, np.unique(labels).size)

    def test_sorted_distinct(self):
        s = sample_classes([5, 5, 2], 30, 0.5, seed=2, step=3)
        assert np.all(np.diff(s) > 0)

    def test_negative_sampling_is_uniform(self):
        # k=10, positives {3, 7}, r1=0.5: 3 of the 8 negatives are drawn,
        # so each negative should appear with frequency 3/8.
        counts = np.zeros(10)
        trials = 10_000
        for seed in range(trials):
            s = sample_classes([3, 7], 10, 0.5, seed=seed, step=0)
            assert s.size == 5
            counts[s] += 1
        counts[[3, 7]] = 0
        freqs = counts[counts > 0] / trials
        assert freqs.size == 8
        np.testing.assert_allclose(freqs, 3 / 8, atol=0.02)

    def test_deterministic_in_seed_and_step(self):
        a = sample_classes([1, 2], 50, 0.3, seed=9, step=4)
        b = sample_classes([1, 2], 50, 0.3, seed=9, step=4)
        c = sample_classes([1, 2], 50, 0.3, seed=9, step=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            sample_classes([10], 10, 0.5, seed=0, step=0)


class TestSampleFeatureMask:
    def test_half_of_512_is_256(self):
        mask = sample_feature_mask(512, 0.5, seed=0, step=0)
        assert int(mask.sum()) == 256

    def test_full_ratio_is_identity_mask(self):
        assert sample_feature_mask(16, 1.0, seed=0, step=0).all()

    def test_coordinates_drawn_uniformly(self):
        d, trials = 8, 10_000
        counts = np.zeros(d)
        for seed in range(trials):
            counts += sample_feature_mask(d, 0.5, seed=seed, step=0)
        np.testing.assert_allclose(counts / trials, 0.5, atol=0.02)

    def test_deterministic_in_seed_and_step(self):
        a = sample_feature_mask(64, 0.5, seed=3, step=7)
        b = sample_feature_mask(64, 0.5, seed=3, step=7)
        np.testing.assert_array_equal(a, b)

    def test_invalid_ratio(self):
        with pytest.raises(ValidationError):
            sample_feature_mask(8, 0.0, seed=0, step=0)
        with pytest.raises(ValidationError):
            sample_feature_mask(8, 1.5, seed=0, step=0)

    def test_rounding_to_zero_rejected(self):
        with pytest.raises(ValidationError):
            sample_feature_mask(10, 0.01, seed=0, step=0)


class TestPrototypeMatrix:
    def test_bits_do_not_depend_on_memory_order(self):
        rows = np.random.default_rng(12).standard_normal((2000, 128))
        c_order = PrototypeMatrix(rows).rows
        f_order = PrototypeMatrix(np.asfortranarray(rows)).rows
        assert c_order.flags.c_contiguous and f_order.flags.c_contiguous
        assert c_order.tobytes() == f_order.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
    def test_non_finite_or_zero_row_rejected(self, bad):
        rows = np.ones((3, 4))
        rows[1] = [0.0, 0.0, bad, 0.0]
        with pytest.raises(DegenerateVectorError, match="row 1"):
            PrototypeMatrix(rows)

    def test_normalizes_its_own_copy(self):
        rows = np.random.default_rng(13).standard_normal((5, 3)) * 4
        before = rows.copy()
        prototypes = PrototypeMatrix(rows)
        assert not np.shares_memory(prototypes.rows, rows)
        assert rows.tobytes() == before.tobytes()

    def test_holds_one_float64_copy_of_float32_rows(self):
        k, d = 20000, 128
        rows = np.random.default_rng(14).standard_normal((k, d)).astype(np.float32)
        # Squaring every row, or dividing into a new array, takes a second copy.
        assert traced_peak(lambda: PrototypeMatrix(rows)) < 1.1 * k * d * 8


class TestSelectionForward:
    def test_two_class_analytic_value(self):
        # aligned positive, orthogonal negative, m=0, s=1
        w = np.array([[1.0, 0.0], [0.0, 1.0]])  # rows: e1, e2
        prototypes = PrototypeMatrix(w)
        e = np.array([[1.0, 0.0]])
        cfg = LossConfig(margin=0.0, scale=1.0, r1=1.0, r2=1.0)
        out = selection_backward(e, [0], prototypes, full_plan(2, 2), cfg)
        assert abs(out.loss - math.log(1 + math.exp(-1))) < 1e-12

    def test_reduces_to_full_softmax(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            b = int(rng.integers(1, 5))
            d = int(rng.integers(3, 12))
            k = int(rng.integers(2, 16))
            e = random_units(rng, b, d)
            labels = rng.integers(0, k, size=b)
            prototypes = PrototypeMatrix(rng.standard_normal((k, d)))
            scale = float(rng.uniform(0.5, 16))
            cfg = LossConfig(margin=0.0, scale=scale, r1=1.0, r2=1.0)
            out = selection_backward(e, labels, prototypes, full_plan(k, d), cfg)
            oracle = full_softmax_oracle(e, labels, prototypes.rows.T, scale)
            assert abs(out.loss - oracle) < 1e-10

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            b = int(rng.integers(1, 6))
            d = int(rng.integers(4, 20))
            k = int(rng.integers(3, 30))
            cfg = LossConfig(
                margin=float(rng.uniform(0, 0.5)),
                scale=float(rng.uniform(1, 64)),
                r1=float(rng.uniform(0.2, 1)),
                r2=float(rng.uniform(0.3, 1)),
                seed=int(rng.integers(100)),
            )
            e = random_units(rng, b, d)
            labels = rng.integers(0, k, size=b)
            prototypes = PrototypeMatrix(rng.standard_normal((k, d)))
            plan = make_selection_plan(labels, k, d, cfg, int(rng.integers(50)))
            out = selection_backward(e, labels, prototypes, plan, cfg)
            np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_margin_increases_loss(self):
        rng = np.random.default_rng(3)
        e = random_units(rng, 4, 8)
        labels = np.array([0, 1, 2, 3])
        prototypes = PrototypeMatrix(rng.standard_normal((6, 8)))
        plan = full_plan(6, 8)
        base = selection_backward(e, labels, prototypes, plan, LossConfig(margin=0.0, scale=64, r1=1, r2=1))
        with_margin = selection_backward(e, labels, prototypes, plan, LossConfig(margin=0.3, scale=64, r1=1, r2=1))
        assert with_margin.loss >= base.loss

    def test_scale_preserves_argmax(self):
        rng = np.random.default_rng(4)
        e = random_units(rng, 5, 7)
        labels = rng.integers(0, 9, size=5)
        prototypes = PrototypeMatrix(rng.standard_normal((9, 7)))
        plan = full_plan(9, 7)
        arg = None
        for scale in (1.0, 8.0, 64.0):
            cfg = LossConfig(margin=0.0, scale=scale, r1=1, r2=1)
            out = selection_backward(e, labels, prototypes, plan, cfg)
            cur = np.argmax(out.probs, axis=1)
            if arg is not None:
                np.testing.assert_array_equal(cur, arg)
            arg = cur

    def test_label_outside_subset_rejected(self):
        rng = np.random.default_rng(5)
        e = random_units(rng, 1, 4)
        prototypes = PrototypeMatrix(rng.standard_normal((6, 4)))
        plan = SelectionPlan(np.array([0, 2, 4]), np.ones(4, dtype=bool))
        cfg = LossConfig(margin=0.0, scale=1.0, r1=0.5, r2=1.0)
        # Between two selected classes, and above every one of them.
        for label in (3, 5):
            with pytest.raises(ValidationError, match="outside the selected class subset"):
                selection_backward(e, [label], prototypes, plan, cfg)

    @pytest.mark.parametrize("batch, dim, mask, error, message", [
        (3, 4, [True] * 4, DimensionMismatchError, "disagree on batch size"),
        (2, 5, [True] * 5, DimensionMismatchError, "embedding dim 5 does not match prototype dim 4"),
        (2, 4, [True] * 3, DimensionMismatchError, "feature mask length does not match dim"),
        (2, 4, [False] * 4, ValidationError, "feature mask selects no coordinates"),
    ], ids=["batch", "dim", "mask-length", "empty-mask"])
    def test_operands_that_do_not_fit_are_rejected(self, batch, dim, mask, error, message):
        rng = np.random.default_rng(6)
        prototypes = PrototypeMatrix(rng.standard_normal((6, 4)))
        plan = SelectionPlan(np.arange(6), np.array(mask))
        with pytest.raises(error, match=message):
            selection_backward(random_units(rng, batch, dim), [0, 1], prototypes, plan, LossConfig())

    def test_zero_norm_masked_embedding_rejected(self):
        e = np.array([[1.0, 0.0, 0.0, 0.0]])
        prototypes = PrototypeMatrix(np.eye(4)[:2] + 0.1)
        mask = np.array([False, True, True, True])
        plan = SelectionPlan(np.array([0, 1]), mask)
        cfg = LossConfig(margin=0.0, scale=1.0, r1=1.0, r2=0.75)
        with pytest.raises(DegenerateVectorError):
            selection_backward(e, [0], prototypes, plan, cfg)


# Class subsets that break "non-empty, strictly increasing indices in
# [0, k)" for k=5.
BAD_SUBSETS = {
    "empty": [],
    "negative": [-1, 0, 1],
    "duplicate": [0, 1, 1, 4],
    "out-of-range": [0, 1, 4, 7],
    "unsorted": [1, 0, 4],
}


class TestClassSubsetValidation:
    @pytest.mark.parametrize("subset", BAD_SUBSETS.values(), ids=BAD_SUBSETS.keys())
    def test_bad_subset_rejected_and_inputs_keep_their_bits(self, subset):
        rng = np.random.default_rng(9)
        e = random_units(rng, 3, 4)
        labels = np.array([0, 1, 1])
        prototypes = PrototypeMatrix(rng.standard_normal((5, 4)))
        plan = SelectionPlan(np.array(subset, dtype=np.int64), np.ones(4, dtype=bool))
        arrays = (e, labels, prototypes.rows, plan.class_subset, plan.feature_mask)
        before = [a.tobytes() for a in arrays]
        with pytest.raises(ValidationError, match="strictly increasing"):
            selection_backward(e, labels, prototypes, plan, LossConfig(margin=0.3, scale=4.0))
        assert [a.tobytes() for a in arrays] == before


class TestSelectionBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        b, d, k = 3, 6, 8
        e = random_units(rng, b, d)
        labels = rng.integers(0, k, size=b)
        prototypes = PrototypeMatrix(rng.standard_normal((k, d)))
        cfg = LossConfig(margin=0.3, scale=4.0, r1=0.625, r2=0.8, seed=11)
        plan = make_selection_plan(labels, k, d, cfg, 2)
        assert plan.class_subset.size == 5
        out = selection_backward(e, labels, prototypes, plan, cfg)

        num_e = finite_difference(
            lambda x: selection_backward(x, labels, prototypes, plan, cfg).loss, e
        )
        assert max_relative_error(out.grad_embeddings, num_e) < 1e-5

        def loss_of_rows(sub):
            rows = prototypes.rows.copy()
            rows[plan.class_subset] = sub
            return selection_backward(e, labels, PrototypeMatrix(rows), plan, cfg).loss

        sub = prototypes.rows[plan.class_subset]
        num_w = finite_difference(loss_of_rows, sub)
        assert max_relative_error(out.grad_prototypes, num_w) < 1e-5

    def test_one_hot_probabilities_kill_gradients(self):
        # perfectly aligned positives and a huge scale saturate the softmax
        prototypes = PrototypeMatrix(np.eye(4))
        e = np.eye(4)[:2]
        cfg = LossConfig(margin=0.0, scale=1e4, r1=1.0, r2=1.0)
        out = selection_backward(e, [0, 1], prototypes, full_plan(4, 4), cfg)
        assert np.linalg.norm(out.grad_embeddings) < 1e-6
        assert np.linalg.norm(out.grad_prototypes) < 1e-6

    def test_masked_coordinates_get_exactly_zero_gradient(self):
        rng = np.random.default_rng(7)
        b, d, k = 4, 10, 12
        e = random_units(rng, b, d)
        labels = rng.integers(0, k, size=b)
        prototypes = PrototypeMatrix(rng.standard_normal((k, d)))
        cfg = LossConfig(margin=0.3, scale=16.0, r1=0.5, r2=0.5, seed=3)
        plan = make_selection_plan(labels, k, d, cfg, 0)
        out = selection_backward(e, labels, prototypes, plan, cfg)
        off = ~plan.feature_mask
        assert np.all(out.grad_embeddings[:, off] == 0.0)
        assert np.all(out.grad_prototypes[:, off] == 0.0)

    def test_gradients_cover_only_selected_classes(self):
        rng = np.random.default_rng(8)
        e = random_units(rng, 2, 5)
        labels = np.array([1, 3])
        prototypes = PrototypeMatrix(rng.standard_normal((10, 5)))
        cfg = LossConfig(margin=0.1, scale=8.0, r1=0.5, r2=1.0, seed=5)
        plan = make_selection_plan(labels, 10, 5, cfg, 1)
        out = selection_backward(e, labels, prototypes, plan, cfg)
        assert out.grad_prototypes.shape == (plan.class_subset.size, 5)

    def test_prototype_gradient_holds_no_second_copy(self):
        # The gathered rows, the probabilities, their gradient and the
        # prototype gradient take four (|S|, d)-sized arrays at b = d; a
        # second prototype gradient would make five.
        rng = np.random.default_rng(9)
        k, d, s, b = 20000, 128, 2000, 128
        prototypes = PrototypeMatrix(rng.standard_normal((k, d)))
        subset = np.sort(rng.choice(k, s, replace=False))
        labels = subset[rng.integers(0, s, b)]
        e = random_units(rng, b, d)
        plan = SelectionPlan(class_subset=subset, feature_mask=np.ones(d, dtype=bool))
        cfg = LossConfig(r1=0.1)
        peak = traced_peak(lambda: selection_backward(e, labels, prototypes, plan, cfg))
        assert peak < 4.5 * s * d * 8


class TestDropout:
    def test_masked_scaled_embedding_is_unbiased(self):
        rng = np.random.default_rng(14)
        e = random_units(rng, 1, 8)
        acc = np.zeros_like(e)
        trials = 10_000
        for step in range(trials):
            keep = feature_dropout_mask(e.shape, 0.5, seed=21, step=step)
            acc += e * keep / (1.0 - 0.5)
        np.testing.assert_allclose(acc / trials, e, atol=0.02)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValidationError):
            feature_dropout_mask((1, 4), 1.0, seed=0, step=0)
        with pytest.raises(ValidationError):
            feature_dropout_mask((1, 4), -0.1, seed=0, step=0)
        for r3 in (1.0, -0.1, math.nan):
            with pytest.raises(ValidationError, match="r3"):
                LossConfig(r3=r3)

    def test_row_dead_after_every_redraw_is_a_validation_error(self):
        # At d = 1 and r3 = 0.99 a redraw revives a row with chance 0.01,
        # so some of eight rows are still dead after all 100 redraws.
        with pytest.raises(ValidationError, match=r"r3=0.99 .* 1-wide row"):
            feature_dropout_mask((8, 1), 0.99, seed=0, step=0)
        assert feature_dropout_mask((8, 1), 0.5, seed=0, step=0).all()

    def test_plan_draws_the_mask_and_selects_everything_else(self):
        cfg = LossConfig(r1=0.2, r2=0.5, r3=0.9, seed=4)
        labels = np.array([0, 2, 2])
        plan = make_selection_plan(labels, 7, 2, cfg, 6)
        np.testing.assert_array_equal(plan.class_subset, np.arange(7))
        assert plan.feature_mask.all() and plan.feature_mask.shape == (2,)
        # At r3 = 0.9 on two coordinates most rows first lose both and are
        # redrawn; none is left empty.
        assert plan.keep.shape == (3, 2) and plan.keep.any(axis=1).all()
        np.testing.assert_array_equal(plan.keep, feature_dropout_mask((3, 2), 0.9, seed=4, step=6))
        assert make_selection_plan(labels, 7, 2, replace(cfg, r3=None), 6).keep is None

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        b, d, k = 4, 6, 5
        e = random_units(rng, b, d)
        labels = rng.integers(0, k, size=b)
        prototypes = PrototypeMatrix(rng.standard_normal((k, d)))
        cfg = LossConfig(margin=0.3, scale=4.0, r3=0.4, seed=3)
        plan = make_selection_plan(labels, k, d, cfg, 5)
        assert not plan.keep.all()
        out = selection_backward(e, labels, prototypes, plan, cfg)

        # The gradient is taken with respect to the undropped embeddings,
        # and a dropped coordinate gets exactly zero.
        num_e = finite_difference(
            lambda x: selection_backward(x, labels, prototypes, plan, cfg).loss, e
        )
        assert max_relative_error(out.grad_embeddings, num_e) < 1e-5
        assert np.all(out.grad_embeddings[~plan.keep] == 0.0)

        num_w = finite_difference(
            lambda rows: selection_backward(e, labels, PrototypeMatrix(rows), plan, cfg).loss,
            prototypes.rows,
        )
        assert max_relative_error(out.grad_prototypes, num_w) < 1e-5

    def test_loss_equals_the_loss_of_the_dropped_embeddings(self):
        rng = np.random.default_rng(17)
        e = random_units(rng, 3, 5)
        labels = np.array([0, 1, 3])
        prototypes = PrototypeMatrix(rng.standard_normal((4, 5)))
        cfg = LossConfig(margin=0.2, scale=8.0, r3=0.3, seed=1)
        plan = make_selection_plan(labels, 4, 5, cfg, 0)
        out = selection_backward(e, labels, prototypes, plan, cfg)
        dropped = selection_backward(
            e * plan.keep / (1.0 - 0.3), labels, prototypes, full_plan(4, 5), replace(cfg, r3=None)
        )
        assert out.loss == dropped.loss
        np.testing.assert_array_equal(out.probs, dropped.probs)

    def test_mask_and_ratio_must_come_together(self):
        rng = np.random.default_rng(18)
        e = random_units(rng, 2, 4)
        prototypes = PrototypeMatrix(rng.standard_normal((3, 4)))
        keep = np.ones((2, 4), dtype=bool)
        with_mask = SelectionPlan(np.arange(3), np.ones(4, dtype=bool), keep)
        with pytest.raises(ValidationError, match="keep mask"):
            selection_backward(e, [0, 1], prototypes, with_mask, LossConfig())
        with pytest.raises(ValidationError, match="keep mask"):
            selection_backward(e, [0, 1], prototypes, full_plan(3, 4), LossConfig(r3=0.3))

    @pytest.mark.parametrize("shape", [(1, 4), (2, 3), (4,), (2, 4, 1)])
    def test_mask_of_another_shape_rejected(self, shape):
        rng = np.random.default_rng(19)
        e = random_units(rng, 2, 4)
        prototypes = PrototypeMatrix(rng.standard_normal((3, 4)))
        plan = SelectionPlan(np.arange(3), np.ones(4, dtype=bool), np.ones(shape, dtype=bool))
        with pytest.raises(DimensionMismatchError, match="keep mask"):
            selection_backward(e, [0, 1], prototypes, plan, LossConfig(r3=0.3))


@pytest.mark.parametrize("call, message", [
    (lambda: PrototypeMatrix(np.ones(4)), "prototype rows must form a 2-D matrix"),
    (lambda: sample_classes([], 4, 0.5, seed=0, step=0), "batch_labels must be non-empty"),
    (lambda: sample_classes([0, 1], 4, 0.0, seed=0, step=0), "r1 must lie in"),
])
def test_refuses_malformed_prototypes_and_class_draws(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
