"""Tests for retrieval metrics, the linear probe, truncation, and PCA."""

import math

import numpy as np
import pytest

from unicom import (
    EmbeddingSet,
    linear_probe,
    map_at_100,
    pca_fit,
    pca_project,
    pca_reduce,
    recall_at_k,
    retrieval_report,
    truncate_dims,
)
from unicom import evaluation
from unicom.errors import DegenerateVectorError, ValidationError
from unicom.util import unit_rows


def labeled_set(vectors, labels):
    vectors = np.asarray(vectors, dtype=np.float32)
    return EmbeddingSet(vectors, [f"i{j}" for j in range(len(vectors))], labels)


def random_labeled(rng, n, d, classes):
    vectors = unit_rows(rng.standard_normal((n, d)))
    # deal labels round-robin so every class has >= 2 members
    labels = np.arange(n) % classes
    return labeled_set(vectors, labels)


def brute_force_recall(embeddings, k):
    """O(n^2) python re-implementation with explicit tie handling."""
    v = unit_rows(embeddings.vectors.astype(np.float64))
    labels = embeddings.labels
    n = len(v)
    hits = 0
    for q in range(n):
        sims = []
        for j in range(n):
            if j == q:
                continue
            sims.append((-float(np.dot(v[q], v[j])), j))
        sims.sort()
        top = [j for _, j in sims[:k]]
        if any(labels[j] == labels[q] for j in top):
            hits += 1
    return hits / n


def brute_force_map100(queries, gallery):
    qv = unit_rows(queries.vectors.astype(np.float64))
    gv = unit_rows(gallery.vectors.astype(np.float64))
    aps = []
    for q in range(len(qv)):
        relevant_total = int(np.sum(gallery.labels == queries.labels[q]))
        if relevant_total == 0:
            continue
        order = sorted(
            range(len(gv)), key=lambda j: (-float(np.dot(qv[q], gv[j])), j)
        )[:100]
        hits, terms = 0, []
        for rank, j in enumerate(order, start=1):
            if gallery.labels[j] == queries.labels[q]:
                hits += 1
                terms.append(hits / rank)
        aps.append(math.fsum(terms) / min(relevant_total, 100))
    return math.fsum(aps) / len(aps)


class TestRecallAtK:
    def test_duplicate_vectors_give_perfect_recall(self):
        v = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.float32)
        s = labeled_set(v, [0, 0, 1, 1])
        assert recall_at_k(s, 1) == 1.0

    def test_exhaustive_neighborhood_is_always_hit(self):
        rng = np.random.default_rng(0)
        s = random_labeled(rng, 12, 5, 3)
        assert recall_at_k(s, 11) == 1.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(10, 60))
            classes = int(rng.integers(2, 6))
            s = random_labeled(rng, n, int(rng.integers(3, 9)), classes)
            k = int(rng.integers(1, 6))
            assert recall_at_k(s, k) == brute_force_recall(s, k)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        s = random_labeled(rng, 30, 6, 5)
        values = [recall_at_k(s, k) for k in range(1, 10)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_thread_count_does_not_change_result(self):
        rng = np.random.default_rng(3)
        s = random_labeled(rng, 50, 8, 5)
        assert recall_at_k(s, 3, threads=1) == recall_at_k(s, 3, threads=4)

    def test_singleton_class_rejected(self):
        s = labeled_set(np.eye(3, dtype=np.float32), [0, 0, 1])
        with pytest.raises(ValidationError):
            recall_at_k(s, 1)

    def test_unlabeled_rejected(self):
        s = EmbeddingSet(np.eye(3, dtype=np.float32), ["a", "b", "c"])
        with pytest.raises(ValidationError):
            recall_at_k(s, 1)

    def test_report_rejects_singleton_class_query(self):
        s = labeled_set(np.eye(3, dtype=np.float32), [0, 0, 1])
        with pytest.raises(ValidationError):
            retrieval_report(s, ks=(1,))

    def test_report_checks_every_k_before_ranking(self, monkeypatch):
        def no_ranking(*args, **kwargs):
            raise AssertionError("ranking started before K was validated")

        monkeypatch.setattr(evaluation, "map_row_chunks", no_ranking)
        rng = np.random.default_rng(4)
        s = random_labeled(rng, 12, 4, 3)
        with pytest.raises(ValidationError):
            retrieval_report(s, ks=(1, 0))

    def test_report_recalls_are_monotone(self):
        rng = np.random.default_rng(4)
        s = random_labeled(rng, 40, 7, 4)
        report = retrieval_report(s, ks=(1, 2, 5, 10))
        values = [report.recall_at[k] for k in sorted(report.recall_at)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestMapAt100:
    def test_perfect_ranking_scores_one(self):
        gallery = labeled_set(np.eye(4, dtype=np.float32), [0, 0, 1, 1])
        queries = labeled_set((np.eye(4)[:1] + 0.01).astype(np.float32), [0])
        # query is closest to gallery item 0, then item 1 (same class? no:
        # labels 0,0 first two). Construct directly aligned instead:
        q = np.array([[1, 0, 0, 0]], dtype=np.float32)
        queries = labeled_set(q, [0])
        value = map_at_100(queries, gallery)
        # ranking: g0 (rel), then ties among g1..g3 -> g1 (rel) at rank 2
        assert value == 1.0

    def test_known_relevance_pattern_one_zero_one(self):
        # similarities force the gallery ranking (rel, non-rel, rel)
        gallery = labeled_set(
            np.array([[1, 0], [0.9, np.sqrt(1 - 0.81)], [0, 1]], dtype=np.float32),
            [0, 1, 0],
        )
        queries = labeled_set(np.array([[1, 0]], dtype=np.float32), [0])
        value = map_at_100(queries, gallery)
        assert value == (1.0 / 1.0 + 2.0 / 3.0) / 2.0
        assert abs(value - 5.0 / 6.0) < 1e-15

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            queries = random_labeled(rng, 15, 6, 4)
            gallery = random_labeled(rng, 40, 6, 4)
            assert map_at_100(queries, gallery) == brute_force_map100(queries, gallery)

    def test_query_without_relevant_items_is_excluded(self):
        gallery = labeled_set(np.eye(3, dtype=np.float32), [0, 0, 1])
        queries = labeled_set(
            np.array([[1, 0, 0], [0, 0, 1]], dtype=np.float32), [0, 7]
        )
        with_orphan = map_at_100(queries, gallery)
        alone = map_at_100(labeled_set(np.array([[1, 0, 0]], dtype=np.float32), [0]), gallery)
        assert with_orphan == alone

    def test_invariant_under_ranking_preserving_permutation(self):
        rng = np.random.default_rng(6)
        queries = random_labeled(rng, 10, 5, 3)
        gallery = random_labeled(rng, 30, 5, 3)
        perm = rng.permutation(30)
        shuffled = labeled_set(gallery.vectors[perm], gallery.labels[perm])
        assert map_at_100(queries, gallery) == map_at_100(queries, shuffled)


class TestLinearProbe:
    def _blobs(self, rng, centers, per_class, sigma):
        classes, d = centers.shape
        labels = np.repeat(np.arange(classes), per_class)
        x = unit_rows(centers[labels] + sigma * rng.standard_normal((labels.size, d)))
        return labeled_set(x, labels)

    def test_separable_blobs_reach_full_accuracy(self):
        rng = np.random.default_rng(7)
        centers = unit_rows(rng.standard_normal((2, 8)))
        train_set = self._blobs(rng, centers, 30, 0.02)
        test_set = self._blobs(rng, centers, 30, 0.02)
        assert linear_probe(train_set, test_set, epochs=20, lr=0.01) == 1.0

    def test_train_equals_test_is_still_perfect(self):
        rng = np.random.default_rng(9)
        centers = unit_rows(rng.standard_normal((3, 6)))
        s = self._blobs(rng, centers, 20, 0.02)
        assert linear_probe(s, s, epochs=20, lr=0.01) == 1.0

    def test_shuffled_labels_give_chance_accuracy(self):
        rng = np.random.default_rng(10)
        x_train = unit_rows(rng.standard_normal((400, 12)))
        x_test = unit_rows(rng.standard_normal((400, 12)))
        train_set = labeled_set(x_train, np.arange(400) % 10)
        test_set = labeled_set(x_test, np.arange(400) % 10)
        acc = linear_probe(train_set, test_set, epochs=20, lr=0.01)
        assert abs(acc - 0.1) <= 0.05

    def test_label_space_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        train_set = labeled_set(unit_rows(rng.standard_normal((6, 4))), [0, 0, 0, 1, 1, 1])
        test_set = labeled_set(unit_rows(rng.standard_normal((2, 4))), [2, 0])
        with pytest.raises(ValidationError):
            linear_probe(train_set, test_set)


class TestTruncateDims:
    def test_full_width_is_identity_after_renormalization(self):
        rng = np.random.default_rng(12)
        s = random_labeled(rng, 10, 6, 2)
        t = truncate_dims(s, 6)
        np.testing.assert_allclose(t.vectors, s.vectors, atol=1e-6)

    def test_hand_computed_truncation(self):
        s = labeled_set(np.array([[0.5, 0.5, 0.5, 0.5]], dtype=np.float32), None)
        t = truncate_dims(s, 2)
        np.testing.assert_allclose(t.vectors, [[1 / np.sqrt(2)] * 2], atol=1e-7)

    def test_out_of_range_rejected(self):
        s = labeled_set(np.eye(3, dtype=np.float32), [0, 0, 0])
        for bad in (0, 4):
            with pytest.raises(ValidationError):
                truncate_dims(s, bad)

    def test_vanishing_row_rejected(self):
        s = labeled_set(np.array([[0.0, 1.0]], dtype=np.float32), None)
        with pytest.raises(DegenerateVectorError):
            truncate_dims(s, 1)

    def test_recall_invariant_to_zero_padding(self):
        rng = np.random.default_rng(13)
        s = random_labeled(rng, 30, 5, 3)
        padded = labeled_set(
            np.concatenate([s.vectors, np.zeros((30, 3), dtype=np.float32)], axis=1),
            s.labels,
        )
        assert recall_at_k(truncate_dims(padded, 5), 2) == recall_at_k(s, 2)


def power_iteration_direction(cov, iters=1000):
    """Independent dominant-eigenvector oracle."""
    v = np.ones(cov.shape[0])
    for _ in range(iters):
        v = cov @ v
        v = v / np.linalg.norm(v)
    return v


class TestPca:
    def test_subspace_data_preserves_inner_products(self):
        rng = np.random.default_rng(14)
        basis = np.linalg.qr(rng.standard_normal((6, 2)))[0]  # (6, 2)
        coords = rng.standard_normal((40, 2))
        x = (coords @ basis.T).astype(np.float32)
        s = EmbeddingSet(x, [str(i) for i in range(40)])
        model = pca_fit(s, 2)
        projected = pca_project(model, s.vectors)
        centered = s.vectors.astype(np.float64) - s.vectors.astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(projected @ projected.T, centered @ centered.T, atol=1e-9)

    def test_first_component_tracks_the_major_axis(self):
        rng = np.random.default_rng(15)
        x = np.stack([3.0 * rng.standard_normal(500), 0.1 * rng.standard_normal(500)], axis=1)
        angle = np.deg2rad(30)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        x = (x @ rot.T).astype(np.float32)
        s = EmbeddingSet(x, [str(i) for i in range(500)])
        model = pca_fit(s, 1)
        xc = x.astype(np.float64) - x.astype(np.float64).mean(axis=0)
        oracle = power_iteration_direction(xc.T @ xc / (len(x) - 1))
        cosine = abs(float(np.dot(model.components[:, 0], oracle)))
        assert cosine > np.cos(np.deg2rad(1.0))
        major = np.array([np.cos(angle), np.sin(angle)])
        assert abs(float(np.dot(model.components[:, 0], major))) > np.cos(np.deg2rad(1.0))

    def test_full_rank_projection_preserves_centered_distances(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((30, 5)).astype(np.float32)
        s = EmbeddingSet(x, [str(i) for i in range(30)])
        model = pca_fit(s, 5)
        projected = pca_project(model, s.vectors)
        centered = x.astype(np.float64) - x.astype(np.float64).mean(axis=0)
        d_before = np.linalg.norm(centered[:, None] - centered[None, :], axis=2)
        d_after = np.linalg.norm(projected[:, None] - projected[None, :], axis=2)
        np.testing.assert_allclose(d_after, d_before, atol=1e-9)

    def test_reduced_set_rows_are_unit(self):
        rng = np.random.default_rng(17)
        s = random_labeled(rng, 50, 8, 2)
        reduced = pca_reduce(s, s, 3)
        np.testing.assert_allclose(
            np.linalg.norm(reduced.vectors.astype(np.float64), axis=1), 1.0, atol=1e-6
        )
        assert reduced.dim == 3

    def test_rank_deficiency_rejected(self):
        x = np.zeros((10, 4), dtype=np.float32)
        x[:, 0] = np.arange(10)
        s = EmbeddingSet(x, [str(i) for i in range(10)])
        with pytest.raises(ValidationError):
            pca_fit(s, 2)

    def test_too_few_fit_rows_rejected(self):
        rng = np.random.default_rng(18)
        s = EmbeddingSet(rng.standard_normal((3, 5)).astype(np.float32), list("abc"))
        with pytest.raises(ValidationError):
            pca_fit(s, 4)
