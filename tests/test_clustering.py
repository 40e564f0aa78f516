"""Tests for assignment, objective, and the Lloyd loop, against brute-force
oracles (exhaustive distance scans, exhaustive partition enumeration,
compensated summation)."""

import itertools
import math

import numpy as np
import pytest

from unicom import EmbeddingSet, KMeansConfig, assign, kmeans_fit, objective
from unicom.errors import DimensionMismatchError, ValidationError


def two_blob_points():
    """Six 2-D points in two well-separated blobs."""
    return np.array(
        [
            [0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
            [5.0, 5.0], [5.1, 5.0], [5.0, 5.1],
        ]
    )


def brute_force_assign(x, centroids_cols):
    """Direct O(n*k*d) scan, ties toward the lower centroid index."""
    c = centroids_cols.T
    labels = []
    for row in x:
        best, best_d = 0, None
        for j in range(c.shape[0]):
            d = float(np.sum((row - c[j]) ** 2))
            if best_d is None or d < best_d:
                best, best_d = j, d
        labels.append(best)
    return np.array(labels)


def exhaustive_partition_objective(x, k):
    """Minimum mean squared distance over all assignments of x into <= k
    clusters, centroids at member means. Exponential; for tiny n only."""
    n = x.shape[0]
    best = math.inf
    best_labels = None
    for labels in itertools.product(range(k), repeat=n):
        labels = np.array(labels)
        total = 0.0
        for j in range(k):
            members = x[labels == j]
            if len(members) == 0:
                continue
            mu = members.mean(axis=0)
            total += float(np.sum((members - mu) ** 2))
        if total / n < best:
            best = total / n
            best_labels = labels
    return best, best_labels


class TestAssign:
    def test_exact_hit_maps_to_that_centroid(self):
        rng = np.random.default_rng(0)
        centroids = rng.standard_normal((4, 6))  # (d, k=6)
        point = centroids[:, 3].copy()
        assert assign(point[None, :], centroids)[0] == 3

    def test_tie_breaks_toward_lower_index(self):
        centroids = np.array([[5.0, 2.0, -1.0, 3.0, 1.0]])  # 1-D, k=5
        point = np.array([[0.0]])  # equidistant to centroids 2 and 4
        assert assign(point, centroids)[0] == 2

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 8))
        centroids = rng.standard_normal((8, 5))
        np.testing.assert_array_equal(assign(x, centroids), brute_force_assign(x, centroids))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((15, 4))
        centroids = rng.standard_normal((4, 3))
        perm = rng.permutation(15)
        np.testing.assert_array_equal(assign(x[perm], centroids), assign(x, centroids)[perm])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            assign(np.ones((2, 3)), np.ones((4, 2)))

    def test_non_finite_points_rejected(self):
        x = np.zeros((3, 2))
        x[1, 0] = np.nan
        with pytest.raises(ValidationError):
            assign(x, np.ones((2, 2)))

    def test_non_finite_centroids_rejected(self):
        centroids = np.ones((2, 3))
        centroids[0, 2] = np.inf
        with pytest.raises(ValidationError):
            assign(np.zeros((4, 2)), centroids)


class TestObjective:
    def test_zero_when_points_sit_on_centroids(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert objective(x, x.T, [0, 1]) == 0.0

    def test_single_point_at_distance_two(self):
        x = np.array([[2.0, 0.0]])
        centroids = np.array([[0.0], [0.0]])  # one centroid at the origin
        assert objective(x, centroids, [0]) == 4.0

    def test_matches_compensated_summation_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 6))
        centroids = rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, size=40)
        terms = []
        for i in range(40):
            diff = x[i] - centroids[:, labels[i]]
            terms.extend((float(v) * float(v) for v in diff))
        expected = math.fsum(terms) / 40
        assert abs(objective(x, centroids, labels) - expected) < 1e-12

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(ValidationError):
            objective(np.ones((2, 2)), np.ones((2, 2)), [0, 5])


class TestKMeansFit:
    def test_k_equals_n_reaches_zero_objective(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((9, 4))
        res = kmeans_fit(x, KMeansConfig(k=9, seed=5))
        assert res.objective_trace[-1] == 0.0
        assert np.unique(res.assignments).size == 9

    def test_k_one_recovers_global_mean_and_variance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 5))
        res = kmeans_fit(x, KMeansConfig(k=1, seed=0))
        np.testing.assert_allclose(res.centroids[:, 0], x.mean(axis=0), atol=1e-12)
        expected = float(np.sum((x - x.mean(axis=0)) ** 2) / 30)
        assert abs(res.objective_trace[-1] - expected) < 1e-12

    def test_two_blobs_match_exhaustive_optimum(self):
        x = two_blob_points()
        res = kmeans_fit(x, KMeansConfig(k=2, seed=0))
        best, best_labels = exhaustive_partition_objective(x, 2)
        assert abs(res.objective_trace[-1] - best) < 1e-12
        # same partition up to label swap
        assert (
            np.array_equal(res.assignments, best_labels)
            or np.array_equal(res.assignments, 1 - best_labels)
        )

    def test_trace_is_non_increasing_across_datasets(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(8, 40))
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, min(n, 8) + 1))
            x = rng.standard_normal((n, d))
            init = "kmeanspp" if trial % 2 == 0 else "random-points"
            res = kmeans_fit(x, KMeansConfig(k=k, seed=trial, init=init))
            trace = res.objective_trace
            assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))

    def test_members_mean_equals_centroid_at_convergence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 3))
        res = kmeans_fit(x, KMeansConfig(k=4, seed=9))
        for j in range(4):
            members = x[res.assignments == j]
            assert len(members) >= 1
            np.testing.assert_allclose(res.centroids[:, j], members.mean(axis=0), atol=1e-6)

    def test_no_empty_clusters_with_duplicate_points(self):
        x = np.array([[0.0, 0.0]] * 5 + [[9.0, 9.0]] * 5)
        for seed in range(5):
            res = kmeans_fit(x, KMeansConfig(k=3, seed=seed, init="random-points"))
            counts = np.bincount(res.assignments, minlength=3)
            assert np.all(counts >= 1)

    def test_deterministic_and_thread_invariant(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((60, 5))
        cfg = KMeansConfig(k=6, seed=123)
        a = kmeans_fit(x, cfg)
        b = kmeans_fit(x, cfg)
        c = kmeans_fit(x, cfg, threads=4)
        for other in (b, c):
            np.testing.assert_array_equal(a.assignments, other.assignments)
            assert a.centroids.tobytes() == other.centroids.tobytes()
            assert a.objective_trace == other.objective_trace

    def test_fit_objective_invariant_under_row_permutation(self):
        # On well-separated blobs every seeded init converges to the same
        # optimum, so the final objective must agree across row orders.
        rng = np.random.default_rng(13)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        x = np.concatenate([c + 0.05 * rng.standard_normal((7, 2)) for c in centers])
        res = kmeans_fit(x, KMeansConfig(k=3, seed=1))
        perm = rng.permutation(x.shape[0])
        res_p = kmeans_fit(x[perm], KMeansConfig(k=3, seed=1))
        assert abs(res.objective_trace[-1] - res_p.objective_trace[-1]) < 1e-9
        # identical partitions: co-membership must match under the permutation
        same = res.assignments[:, None] == res.assignments[None, :]
        same_p = res_p.assignments[:, None] == res_p.assignments[None, :]
        np.testing.assert_array_equal(same_p, same[np.ix_(perm, perm)])

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValidationError):
            kmeans_fit(np.ones((3, 2)), KMeansConfig(k=4))

    def test_non_finite_points_rejected(self):
        x = np.random.default_rng(15).standard_normal((10, 3))
        x[4, 1] = np.nan
        with pytest.raises(ValidationError):
            kmeans_fit(x, KMeansConfig(k=2))

    def test_k_zero_rejected(self):
        with pytest.raises(ValidationError):
            KMeansConfig(k=0)

    def test_embedding_set_input(self):
        rng = np.random.default_rng(14)
        vectors = rng.standard_normal((12, 4)).astype(np.float32)
        s = EmbeddingSet(vectors, [str(i) for i in range(12)])
        res = kmeans_fit(s, KMeansConfig(k=3, seed=2))
        assert res.assignments.shape == (12,)
        assert res.centroids.shape == (4, 3)
