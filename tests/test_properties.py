"""Property tests of the blocked kernels: nearest-centroid assignment,
top-k neighbor ranking and mAP@100 against exhaustive references.

Inputs are built to be full of exact ties, and row counts run below, at
and across the row-block size, with one and three threads. Every check is
bit-exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from test_clustering import brute_force_assign
from test_evaluation import brute_force_map100, brute_force_recall
from unicom import EmbeddingSet, assign, map_at_100, recall_at_k, retrieval_report
from unicom.evaluation import _top_k
from unicom.util import BLOCK_ROWS, unit_rows

ROW_COUNTS = st.sampled_from([1, 2, 9, 40, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 5])
SEEDS = st.integers(0, 2**32 - 1)


def einsum_scan(x, centroids):
    """The exhaustive formula `assign` must reproduce: argmin over every
    centroid of sum((x - c)^2), ties toward the lower index."""
    diff = x[:, None, :] - centroids.T[None, :, :]
    return np.argmin(np.einsum("ikd,ikd->ik", diff, diff), axis=1)


def assert_assign_exact(x, centroids):
    want = einsum_scan(x, centroids)
    for threads in (1, 3):
        np.testing.assert_array_equal(assign(x, centroids, threads=threads), want)
    return want


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=ROW_COUNTS, k=st.integers(1, 12), d=st.integers(1, 6))
def test_assign_matches_brute_force_on_quantized_points(seed, n, k, d):
    # Half-integer coordinates make every distance exact, so equal
    # distances are real ties and any summation order agrees.
    rng = np.random.default_rng(seed)
    centroids = rng.integers(-2, 3, size=(d, k)) * 0.5
    x = rng.integers(-2, 3, size=(n, d)) * 0.5
    want = assert_assign_exact(x, centroids)
    np.testing.assert_array_equal(want, brute_force_assign(x, centroids))


# At 1e200 the true distances overflow, in the reference scan as in assign.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=ROW_COUNTS, k=st.integers(2, 12), d=st.integers(1, 24),
       scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e4, 1e150, 1e154, 1e200]))
def test_assign_matches_einsum_scan_on_near_ties(seed, n, k, d, scale):
    # Duplicate centroids, centroids one ulp apart, and points on or
    # halfway between centroids: distances that tie or nearly tie at the
    # level of rounding.
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((k, d)) * scale
    rows[1::3] = rows[0::3][: rows[1::3].shape[0]]
    rows[2::3] = np.nextafter(rows[0::3][: rows[2::3].shape[0]], np.inf)
    a = rows[rng.integers(0, k, size=n)]
    b = rows[rng.integers(0, k, size=n)]
    x = np.where(rng.random((n, 1)) < 0.5, a, (a + b) / 2)
    assert_assign_exact(x, rows.T)


TIED_SIMS = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 30)),
    elements=st.sampled_from([-np.inf, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]),
)


@settings(max_examples=200, deadline=None)
@given(sims=TIED_SIMS, data=st.data())
def test_top_k_is_a_stable_full_sort_prefix(sims, data):
    depth = data.draw(st.integers(1, sims.shape[1]))
    want = np.argsort(-sims, axis=1, kind="stable")[:, :depth]
    np.testing.assert_array_equal(_top_k(sims, depth), want)


def exact_unit_vectors(rng, n):
    """Rows from a palette of 24 exactly unit 4-d vectors (signed basis
    vectors and all (+-1/2)^4), so every cosine is one of 0, +-1/2, +-1,
    computed without rounding in any order."""
    basis = np.concatenate([np.eye(4), -np.eye(4)])
    halves = 0.5 * np.array(np.meshgrid(*[[-1, 1]] * 4)).reshape(4, -1).T
    palette = np.concatenate([basis, halves])
    return palette[rng.integers(0, len(palette), size=n)].astype(np.float32)


def labeled(vectors, labels, prefix="i"):
    return EmbeddingSet(vectors, [f"{prefix}{j}" for j in range(len(vectors))], labels)


def full_sort_recall(embeddings, k):
    """Recall@k from a full stable argsort of the whole similarity matrix."""
    v = unit_rows(embeddings.vectors.astype(np.float64))
    sims = v @ v.T
    np.fill_diagonal(sims, -np.inf)
    ranking = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    same = embeddings.labels[ranking] == embeddings.labels[:, None]
    return float(int(same.any(axis=1).sum()) / embeddings.count)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n=ROW_COUNTS.filter(lambda n: n >= 4), classes=st.integers(1, 5),
       ks=st.lists(st.integers(1, 12), min_size=1, max_size=3))
def test_recall_on_tied_cosines(seed, n, classes, ks):
    rng = np.random.default_rng(seed)
    s = labeled(exact_unit_vectors(rng, n), np.arange(n) % min(classes, n // 2))
    want = {k: full_sort_recall(s, k) for k in ks}
    if n <= 40:
        assert want == {k: brute_force_recall(s, k) for k in ks}
    for threads in (1, 3):
        assert retrieval_report(s, ks, threads=threads).recall_at == want
        assert recall_at_k(s, ks[0], threads=threads) == want[ks[0]]


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, q=ROW_COUNTS.filter(lambda q: q <= BLOCK_ROWS + 1),
       g=st.integers(1, 130), classes=st.integers(1, 6))
def test_map_at_100_matches_oracle_on_tied_cosines(seed, q, g, classes):
    rng = np.random.default_rng(seed)
    queries = labeled(exact_unit_vectors(rng, q), np.arange(q) % classes, "q")
    gallery = labeled(exact_unit_vectors(rng, g), np.arange(g) % classes, "g")
    want = brute_force_map100(queries, gallery)
    for threads in (1, 3):
        assert map_at_100(queries, gallery, threads=threads) == want
