"""Tests for assignment, objective, and the Lloyd loop, against brute-force
oracles (exhaustive distance scans, exhaustive partition enumeration,
compensated summation)."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from unicom import EmbeddingSet, KMeansConfig, assign, clustering, kmeans_fit, objective
from unicom.errors import DimensionMismatchError, ValidationError
from unicom.rng import stream_rng


def two_blob_points():
    """Six 2-D points in two well-separated blobs."""
    return np.array(
        [
            [0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
            [5.0, 5.0], [5.1, 5.0], [5.0, 5.1],
        ]
    )


def brute_force_assign(x, c):
    """Direct O(n*k*d) scan, ties toward the lower centroid index."""
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
        centroids = rng.standard_normal((6, 4))  # (k=6, d)
        point = centroids[3].copy()
        assert assign(point[None, :], centroids)[0] == 3

    def test_tie_breaks_toward_lower_index(self):
        centroids = np.array([[5.0], [2.0], [-1.0], [3.0], [1.0]])  # 1-D, k=5
        point = np.array([[0.0]])  # equidistant to centroids 2 and 4
        assert assign(point, centroids)[0] == 2

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 8))
        centroids = rng.standard_normal((5, 8))
        np.testing.assert_array_equal(assign(x, centroids), brute_force_assign(x, centroids))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((15, 4))
        centroids = rng.standard_normal((3, 4))
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
        centroids = np.ones((3, 2))
        centroids[2, 0] = np.inf
        with pytest.raises(ValidationError):
            assign(np.zeros((4, 2)), centroids)

    def test_nan_centroid_is_named_by_its_row(self):
        centroids = np.ones((3, 2))
        centroids[2, 1] = np.nan
        with pytest.raises(ValidationError, match=r"^centroid 2 holds a NaN or infinite value$"):
            assign(np.zeros((4, 2)), centroids)

    def test_finiteness_check_holds_no_whole_set_mask(self):
        # Zeros from calloc: the 205 MB of points read as the zero page.
        x = np.zeros((200_000, 128))
        centroids = np.stack([np.zeros(128), np.ones(128)])
        tracemalloc.start()
        try:
            labels = assign(x, centroids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not labels.any()
        # A bool mask of the whole set takes 25.6 MB.
        assert peak < x.size // 2

    def test_labels_are_not_copied_after_their_concatenation(self):
        x = np.zeros((200_000, 32))
        centroids = np.stack([np.zeros(32), np.ones(32)])
        tracemalloc.start()
        try:
            labels = assign(x, centroids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.dtype == np.int64 and not labels.any()
        # The per-block labels and their concatenation take n * 8 bytes
        # each; a third whole copy of the labels breaks the bound.
        assert peak < 2.5 * x.shape[0] * 8


class TestObjective:
    def test_zero_when_points_sit_on_centroids(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert objective(x, x, [0, 1]) == 0.0

    def test_single_point_at_distance_two(self):
        x = np.array([[2.0, 0.0]])
        centroids = np.array([[0.0, 0.0]])  # one centroid at the origin
        assert objective(x, centroids, [0]) == 4.0

    def test_matches_compensated_summation_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 6))
        centroids = rng.standard_normal((5, 6))
        labels = rng.integers(0, 5, size=40)
        terms = []
        for i in range(40):
            diff = x[i] - centroids[labels[i]]
            terms.extend((float(v) * float(v) for v in diff))
        expected = math.fsum(terms) / 40
        assert abs(objective(x, centroids, labels) - expected) < 1e-12

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(ValidationError):
            objective(np.ones((2, 2)), np.ones((2, 2)), [0, 5])

    @pytest.mark.parametrize("centroids, assignments, message", [
        (np.ones((2, 2)), [0], "one assignment per row is required"),
        (np.ones((2, 2)), [[0, 1]], "one assignment per row is required"),
        (np.ones((2, 3)), [0, 1], "centroid dimension does not match data"),
        (np.ones(2), [0, 1], "centroid dimension does not match data"),
    ], ids=["short", "2-d", "dim", "1-d-centroids"])
    def test_shapes_that_do_not_fit_are_rejected(self, centroids, assignments, message):
        with pytest.raises(DimensionMismatchError, match=message):
            objective(np.ones((2, 2)), centroids, assignments)

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e150, 1e160])
    def test_equals_the_two_temporary_formula(self, scale):
        rng = np.random.default_rng(12)
        for n, d, k in [(7, 3, 2), (600, 17, 30), (2000, 64, 260)]:
            x = rng.standard_normal((n, d)) * scale
            centroids = rng.standard_normal((k, d)) * scale
            labels = rng.integers(0, k, size=n)
            with np.errstate(over="ignore"):
                diff = x - centroids[labels]
                expected = float(np.sum(diff * diff) / n)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert objective(x, centroids, labels) == expected
                assert objective(np.asfortranarray(x), centroids, labels) == expected
        assert (objective(x, centroids, labels) == math.inf) == (scale == 1e160)

    def test_holds_one_buffer_of_the_points_size(self):
        rng = np.random.default_rng(13)
        n, d, k = 40_000, 64, 2_000
        x = rng.standard_normal((n, d))
        centroids = rng.standard_normal((k, d))
        labels = rng.integers(0, k, size=n)
        tracemalloc.start()
        try:
            objective(x, centroids, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The difference and its square as two temporaries take 2 n d 8 bytes.
        assert peak < 1.25 * n * d * 8


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
        np.testing.assert_allclose(res.centroids[0], x.mean(axis=0), atol=1e-12)
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
            res = kmeans_fit(x, KMeansConfig(k=k, seed=trial))
            trace = res.objective_trace
            assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))

    def test_members_mean_equals_centroid_at_convergence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 3))
        res = kmeans_fit(x, KMeansConfig(k=4, seed=9))
        for j in range(4):
            members = x[res.assignments == j]
            assert len(members) >= 1
            np.testing.assert_allclose(res.centroids[j], members.mean(axis=0), atol=1e-6)

    def test_no_empty_clusters_with_duplicate_points(self):
        x = np.array([[0.0, 0.0]] * 5 + [[9.0, 9.0]] * 5)
        for seed in range(5):
            res = kmeans_fit(x, KMeansConfig(k=3, seed=seed))
            counts = np.bincount(res.assignments, minlength=3)
            assert np.all(counts >= 1)

    @pytest.mark.parametrize("threads", [0, -5])
    def test_assign_rejects_fewer_than_one_thread(self, threads):
        x = np.random.default_rng(6).standard_normal((20, 3))
        with pytest.raises(ValidationError, match="thread count"):
            assign(x, x[:3], threads=threads)

    @pytest.mark.parametrize("seed, n, k", [(0, 1, 1), (3, 40, 7), (11, 600, 600)])
    def test_start_is_k_distinct_rows_drawn_uniformly(self, seed, n, k):
        x = np.random.default_rng(seed).standard_normal((n, 5))
        idx = stream_rng(seed, "kmeans-init").choice(n, size=k, replace=False)
        got = clustering._init_centroids(x, KMeansConfig(k=k, seed=seed))
        assert got.tobytes() == x[idx].tobytes()

    @pytest.mark.parametrize("threads", [0, -5])
    def test_fewer_than_one_thread_rejected_before_seeding(self, threads, monkeypatch):
        x = np.random.default_rng(6).standard_normal((20, 3))
        monkeypatch.setattr(clustering, "_init_centroids", lambda *a: pytest.fail("seeding ran"))
        with pytest.raises(ValidationError, match="thread count"):
            kmeans_fit(x, KMeansConfig(k=3), threads=threads)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 512, 1024])
    def test_non_finite_point_is_named_by_its_row(self, row, value):
        x = np.random.default_rng(16).standard_normal((1025, 3))
        x[row, 2] = value
        message = rf"^point {row} holds a NaN or infinite value$"
        with pytest.raises(ValidationError, match=message):
            kmeans_fit(x, KMeansConfig(k=2))
        with pytest.raises(ValidationError, match=message):
            assign(x, np.ones((2, 3)))

    def test_overflowing_distances_rejected(self):
        # Finite points whose squared distances overflow float64. Without
        # the check the objective trace is inf at every iteration,
        # all max_iters run, and numpy warns about the overflow.
        x = np.random.default_rng(0).standard_normal((50, 4)) * 1e200
        cfg = KMeansConfig(k=3, seed=1, max_iters=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflow"):
                kmeans_fit(x, cfg)

    def test_k_zero_rejected(self):
        with pytest.raises(ValidationError):
            KMeansConfig(k=0)

    def test_set_rows_are_screened_without_a_float32_copy(self):
        # n d = 2^20: the k-means update sums all columns in one block, so
        # the peak is the float64 copy of the points and the objective's
        # buffer, 16 n d bytes; a float32 copy of the points adds 4 n d.
        rng = np.random.default_rng(17)
        n, d = 8192, 128
        s = EmbeddingSet(rng.standard_normal((n, d)).astype(np.float32), [str(i) for i in range(n)])
        cfg = KMeansConfig(k=4, max_iters=2, seed=3)
        tracemalloc.start()
        try:
            res = kmeans_fit(s, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * n * d
        want = kmeans_fit(s.vectors.astype(np.float64), cfg)
        assert res.assignments.tobytes() == want.assignments.tobytes()
        assert res.centroids.tobytes() == want.centroids.tobytes()
        assert res.objective_trace == want.objective_trace

    def test_embedding_set_input(self):
        rng = np.random.default_rng(14)
        vectors = rng.standard_normal((12, 4)).astype(np.float32)
        s = EmbeddingSet(vectors, [str(i) for i in range(12)])
        res = kmeans_fit(s, KMeansConfig(k=3, seed=2))
        assert res.assignments.shape == (12,)
        assert res.centroids.shape == (3, 4)


@pytest.mark.parametrize("settings, message", [
    ({"max_iters": 0}, "max_iters must be >= 1"),
    ({"k": 2.5}, "k must be an integer, got 2.5"),
    ({"k": np.nan}, "k must be an integer, got nan"),
    ({"max_iters": 1.5}, "max_iters must be an integer, got 1.5"),
])
def test_config_refuses_bad_settings(settings, message):
    with pytest.raises(ValidationError, match=message):
        KMeansConfig(**{"k": 2, **settings})


def test_config_takes_integral_floats_as_counts():
    cfg = KMeansConfig(k=3.0, max_iters=np.float64(2))
    assert type(cfg.k) is int and type(cfg.max_iters) is int
    x = np.random.default_rng(18).standard_normal((10, 2))
    assert kmeans_fit(x, cfg).centroids.shape == (3, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: assign(np.ones((3, 2)), np.empty((0, 2))), "at least one centroid, got 0"),
    (lambda: objective(np.empty((0, 2)), np.ones((2, 2)), []), "at least one row, got 0"),
])
def test_refuses_empty_inputs(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
