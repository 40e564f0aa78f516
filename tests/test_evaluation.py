"""Tests for retrieval metrics and truncation."""

import math
import tracemalloc

import numpy as np
import pytest

from unicom import (
    EmbeddingSet,
    SyntheticSpec,
    map_at_100,
    recall_at_k,
    retrieval_report,
    synth_conflict_dataset,
    truncate_dims,
)
from unicom import evaluation
from unicom.errors import DegenerateVectorError, ValidationError
from unicom.evaluation import RANK_ROWS, SLAB_ROWS
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

    @pytest.mark.parametrize("threads", [0, -5])
    def test_fewer_than_one_thread_rejected(self, threads):
        s = random_labeled(np.random.default_rng(3), 12, 4, 3)
        for score in (
            lambda: recall_at_k(s, 1, threads=threads),
            lambda: retrieval_report(s, (1, 3), threads=threads),
            lambda: map_at_100(s, s, threads=threads),
        ):
            with pytest.raises(ValidationError, match="thread count"):
                score()

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

    @pytest.mark.parametrize("k", [1.9, 1.5, float("nan"), float("inf")])
    def test_fractional_k_rejected_before_ranking(self, k, monkeypatch):
        monkeypatch.setattr(evaluation, "map_row_chunks", lambda *a: pytest.fail("ranking started"))
        s = random_labeled(np.random.default_rng(4), 12, 4, 3)
        for score in (lambda: recall_at_k(s, k), lambda: retrieval_report(s, (k, 3)), lambda: retrieval_report(s, (1, k))):
            with pytest.raises(ValidationError, match=f"whole number >= 1, got {k}"):
                score()

    def test_whole_float_k_scores_as_its_integer(self):
        s = random_labeled(np.random.default_rng(4), 12, 4, 3)
        assert retrieval_report(s, (1.0, 3.0)).recall_at == retrieval_report(s, (1, 3)).recall_at

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


class TestLabelMagnitude:
    """Labels are scored by equality: huge ids cost no memory and give the
    same figures as small ones."""

    @pytest.mark.parametrize("big", [2**40, 2**62])
    def test_huge_ids_score_like_compact_ids(self, big):
        rng = np.random.default_rng(7)
        vectors = unit_rows(rng.standard_normal((12, 5)))
        small = np.arange(12) % 3
        huge = np.array([0, 7, big])[small]
        compact, spread = labeled_set(vectors, small), labeled_set(vectors, huge)
        ks = (1, 2, 5)
        assert retrieval_report(spread, ks).recall_at == retrieval_report(compact, ks).recall_at
        assert map_at_100(spread, spread) == map_at_100(compact, compact)
        # Queries whose class the gallery lacks are still left out.
        queries = labeled_set(vectors[:4], [big, 7, 3, big - 1])
        gallery = labeled_set(vectors[4:], huge[4:])
        relabelled = labeled_set(vectors[:4], [2, 1, 5, 6])
        assert map_at_100(queries, gallery) == map_at_100(relabelled, labeled_set(vectors[4:], small[4:]))

    def test_singleton_class_is_named_by_its_id(self):
        s = labeled_set(np.eye(3, dtype=np.float32), [2**40, 2**40, 2**62])
        with pytest.raises(ValidationError, match=f"class {2**62} has a single member"):
            recall_at_k(s, 1)


def traced_peak(fn):
    """Bytes that tracemalloc saw allocated at the peak of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRankingMemory:
    """The rankings read the sets' float32 rows: beyond the sets they hold
    float32 unit copies (4 bytes an entry) and one block of RANK_ROWS
    queries' float32 screen (4 bytes a gallery row each), not a float64
    copy of the sets. A block's bookkeeping grows with its candidates,
    and its candidate mask is one slab of SLAB_ROWS rows."""

    # A block's candidate mask and bookkeeping.
    SLACK = 2 * 2**20

    @pytest.fixture(scope="class")
    def synth(self):
        return synth_conflict_dataset(SyntheticSpec(300, 20, 64, intra_noise=0.3, seed=1))[0]

    def test_recall_report(self, synth):
        n, d = synth.vectors.shape
        bound = 4 * n * d + 4 * RANK_ROWS * n + self.SLACK
        assert traced_peak(lambda: retrieval_report(synth, (1, 10))) < bound

    def test_map_at_100(self, synth):
        is_query = np.arange(synth.count) % 5 == 0
        queries = labeled_set(synth.vectors[is_query], synth.labels[is_query])
        gallery = labeled_set(synth.vectors[~is_query], synth.labels[~is_query])
        n, d = synth.vectors.shape
        # Plus the (q, 100) int32 columns, which each block writes into.
        bound = 4 * n * d + 4 * RANK_ROWS * gallery.count + 4 * 100 * queries.count + self.SLACK
        assert traced_peak(lambda: map_at_100(queries, gallery)) < bound

    def test_top_k_scratch_grows_with_its_candidates(self):
        # Each row holds `depth` entries far above the others, each in a
        # group of columns of its own, so exactly those are candidates. On
        # a 64-entry grid they tie often, and the exact scores, within
        # delta of the screen, decide.
        rng = np.random.default_rng(21)
        m, n, depth, delta = 256, 4_000, 100, 1e-6
        groups = 4 * depth
        screen = rng.uniform(0, 1, (m, n)).astype(np.float32)
        for row in screen:
            top = rng.permutation(groups)[:depth] + groups * rng.integers(0, n // groups, depth)
            row[top] = 2 + rng.integers(0, 64, depth) / 64
        scores = screen + delta * rng.uniform(-1, 1, (m, n))
        tops = []
        peak = traced_peak(lambda: tops.append(evaluation._top_k(screen, depth, delta, lambda r, c: scores[r, c])))
        np.testing.assert_array_equal(tops[0], np.argsort(-scores, axis=1, kind="stable")[:, :depth])
        # One slab's mask, and 64 bytes a candidate, rescored ones too. A
        # mask of the whole block takes m * n bytes, 40 a candidate here.
        assert peak < 64 * m * depth + SLAB_ROWS * n

    def test_zero_row_named_by_its_index_in_the_set(self, monkeypatch):
        # Row 300 lies in the second block of RANK_ROWS rows.
        monkeypatch.setattr(evaluation, "map_row_chunks", lambda *a: pytest.fail("ranking started"))
        vectors = unit_rows(np.random.default_rng(14).standard_normal((2 * RANK_ROWS, 4)))
        vectors[300] = 0.0
        s = labeled_set(vectors, np.arange(2 * RANK_ROWS) % 3)
        other = random_labeled(np.random.default_rng(15), 6, 4, 3)
        for score in (lambda: retrieval_report(s, (1,)), lambda: map_at_100(s, other), lambda: map_at_100(other, s)):
            with pytest.raises(DegenerateVectorError, match=r"row 300 has norm 0\.000e\+00"):
                score()


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


def test_map_refuses_queries_with_no_relevant_gallery_item():
    rng = np.random.default_rng(20)
    queries = random_labeled(rng, 4, 3, 2)  # labels 0 and 1
    gallery = labeled_set(unit_rows(rng.standard_normal((6, 3))), 2 + np.arange(6) % 2)
    with pytest.raises(ValidationError, match="no query has a relevant gallery item"):
        evaluation.map_at_100(queries, gallery)
