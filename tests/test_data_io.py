"""Tests for embedding storage, UCEB round trips, fusion, and synthesis."""

import struct

import numpy as np
import pytest

from unicom import (
    EmbeddingSet,
    SyntheticSpec,
    ensemble_features,
    load_embeddings,
    save_embeddings,
    synth_conflict_dataset,
)
from unicom.data import UCEB_MAGIC
from unicom.errors import (
    BadMagicError,
    DegenerateVectorError,
    DimensionMismatchError,
    DuplicateIdError,
    InvalidDimensionError,
    TruncatedPayloadError,
    UcebFormatError,
    UnicomError,
    UnsupportedVersionError,
    ValidationError,
)


def _random_set(rng, n=7, d=5, labeled=True):
    vectors = rng.standard_normal((n, d)).astype(np.float32)
    labels = rng.integers(0, 4, size=n) if labeled else None
    return EmbeddingSet(vectors, [f"id-{i}" for i in range(n)], labels)


class TestEmbeddingSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateIdError):
            EmbeddingSet(np.ones((2, 3), dtype=np.float32), ["a", "a"])

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingSet(np.zeros((0, 3), dtype=np.float32), [])

    def test_zero_dim_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingSet(np.zeros((2, 0), dtype=np.float32), ["a", "b"])

    def test_negative_labels_rejected(self):
        with pytest.raises(ValidationError):
            EmbeddingSet(np.ones((2, 3), dtype=np.float32), ["a", "b"], [-1, 0])

    @pytest.mark.parametrize("labels", [[0, 1], [[0, 1, 2]], [0, -1, 2]])
    def test_with_labels_rejects_what_the_constructor_rejects(self, labels):
        vectors, ids = np.ones((3, 2), dtype=np.float32), ["a", "b", "c"]
        with pytest.raises(UnicomError) as built:
            EmbeddingSet(vectors, ids, labels)
        with pytest.raises(UnicomError) as relabelled:
            EmbeddingSet(vectors, ids).with_labels(labels)
        assert type(relabelled.value) is type(built.value)
        assert str(relabelled.value) == str(built.value)

    def test_with_labels_equals_a_new_set_and_shares_the_rows(self):
        rng = np.random.default_rng(4)
        s = _random_set(rng)
        before = s.labels.copy()
        labels = rng.integers(0, 9, size=s.count).astype(np.int32)
        relabelled = s.with_labels(labels)
        assert relabelled == EmbeddingSet(s.vectors, s.ids, labels)
        assert relabelled.labels.dtype == np.int64
        assert relabelled.vectors is s.vectors and relabelled.ids is s.ids
        np.testing.assert_array_equal(s.labels, before)
        assert s.with_labels(None) == EmbeddingSet(s.vectors, s.ids)

    # Values beyond the float32 range become inf in the cast, and are rejected.
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize("vectors", [
        np.ones((2, 2)), np.ones(3), np.ones((3, 0)), np.array([[1.0], [np.nan], [2.0]]),
        np.array([[1.0], [2.0], [3e39]]),
    ], ids=["rows", "1-d", "zero-dim", "nan", "float32-overflow"])
    def test_with_vectors_rejects_what_the_constructor_rejects(self, vectors):
        s = EmbeddingSet(np.ones((3, 2), dtype=np.float32), ["a", "b", "c"])
        with pytest.raises(UnicomError) as built:
            EmbeddingSet(vectors, s.ids)
        with pytest.raises(UnicomError) as replaced:
            s.with_vectors(vectors)
        assert type(replaced.value) is type(built.value)

    def test_with_vectors_equals_a_new_set_and_shares_ids_and_labels(self):
        rng = np.random.default_rng(5)
        s = _random_set(rng)
        before = s.vectors.copy()
        vectors = rng.standard_normal((s.count, 3))
        replaced = s.with_vectors(vectors)
        assert replaced == EmbeddingSet(vectors, s.ids, s.labels)
        assert replaced.vectors.dtype == np.float32 and replaced.dim == 3
        assert replaced.ids is s.ids and replaced.labels is s.labels
        np.testing.assert_array_equal(s.vectors, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_rejected(self, bad):
        vectors = np.ones((3, 4), dtype=np.float32)
        vectors[1, 2] = bad
        with pytest.raises(ValidationError, match="row 1"):
            EmbeddingSet(vectors, ["a", "b", "c"])


class TestUcebRoundTrip:
    def test_round_trip_is_bitwise_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        for labeled in (True, False):
            original = _random_set(rng, n=11, d=6, labeled=labeled)
            path = tmp_path / f"set-{labeled}.uceb"
            save_embeddings(original, path)
            loaded = load_embeddings(path)
            assert loaded == original
            assert loaded.vectors.tobytes() == original.vectors.tobytes()

    def test_small_known_file(self, tmp_path):
        vectors = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.float32)
        s = EmbeddingSet(vectors, ["a", "b"])
        path = tmp_path / "tiny.uceb"
        save_embeddings(s, path)
        loaded = load_embeddings(path)
        assert loaded.count == 2 and loaded.dim == 3
        assert loaded.labels is None

    def test_label_block_omitted_when_unlabeled(self, tmp_path):
        s = EmbeddingSet(np.ones((2, 3), dtype=np.float32), ["a", "b"])
        labeled = s.with_labels([0, 1])
        p1, p2 = tmp_path / "u.uceb", tmp_path / "l.uceb"
        save_embeddings(s, p1)
        save_embeddings(labeled, p2)
        assert p2.stat().st_size == p1.stat().st_size + 2 * 8

    def test_overwrite_with_a_smaller_set_leaves_only_the_new_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        small = _random_set(rng, n=3, d=2)
        alone, path = tmp_path / "alone.uceb", tmp_path / "set.uceb"
        save_embeddings(small, alone)
        save_embeddings(_random_set(rng, n=50, d=9), path)
        save_embeddings(small, path)
        assert path.read_bytes() == alone.read_bytes()
        assert load_embeddings(path) == small

    def test_symlink_at_the_path_is_replaced_not_written_through(self, tmp_path):
        rng = np.random.default_rng(7)
        target, link = tmp_path / "target.uceb", tmp_path / "link.uceb"
        save_embeddings(_random_set(rng), target)
        kept = target.read_bytes()
        link.symlink_to(target)
        written = _random_set(rng, n=4)
        save_embeddings(written, link)
        assert not link.is_symlink()
        assert load_embeddings(link) == written
        assert target.read_bytes() == kept

    def test_unicode_ids_survive(self, tmp_path):
        s = EmbeddingSet(np.ones((2, 2), dtype=np.float32), ["héllo", "wörld"])
        save_embeddings(s, tmp_path / "u.uceb")
        assert load_embeddings(tmp_path / "u.uceb").ids == ["héllo", "wörld"]


class TestUcebErrors:
    def _valid_bytes(self, tmp_path):
        s = EmbeddingSet(
            np.arange(6, dtype=np.float32).reshape(2, 3), ["a", "b"], [0, 1]
        )
        path = tmp_path / "valid.uceb"
        save_embeddings(s, path)
        return path.read_bytes()

    def test_bad_magic(self, tmp_path):
        blob = self._valid_bytes(tmp_path)
        path = tmp_path / "bad.uceb"
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(BadMagicError):
            load_embeddings(path)

    def test_unsupported_version(self, tmp_path):
        blob = bytearray(self._valid_bytes(tmp_path))
        blob[4:8] = struct.pack("<I", 9)
        path = tmp_path / "v9.uceb"
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            load_embeddings(path)

    def test_truncated_vectors(self, tmp_path):
        blob = bytearray(self._valid_bytes(tmp_path))
        blob[8:16] = struct.pack("<Q", 5)  # declare n=5, file holds 2 rows
        path = tmp_path / "short.uceb"
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedPayloadError):
            load_embeddings(path)

    def test_truncated_id_table(self, tmp_path):
        blob = self._valid_bytes(tmp_path)
        path = tmp_path / "chop.uceb"
        path.write_bytes(blob[:-1])
        with pytest.raises(TruncatedPayloadError):
            load_embeddings(path)

    def test_zero_dim_header(self, tmp_path):
        blob = bytearray(self._valid_bytes(tmp_path))
        blob[16:20] = struct.pack("<I", 0)
        path = tmp_path / "d0.uceb"
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidDimensionError):
            load_embeddings(path)

    def test_zero_count_header(self, tmp_path):
        header = struct.pack("<4sIQII", UCEB_MAGIC, 1, 0, 3, 0)
        path = tmp_path / "n0.uceb"
        path.write_bytes(header)
        with pytest.raises(InvalidDimensionError):
            load_embeddings(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "extra.uceb"
        path.write_bytes(self._valid_bytes(tmp_path) + b"\x00")
        with pytest.raises(UcebFormatError):
            load_embeddings(path)

    def test_duplicate_ids_in_file(self, tmp_path):
        s = EmbeddingSet(np.ones((2, 2), dtype=np.float32), ["a", "b"])
        path = tmp_path / "dup.uceb"
        save_embeddings(s, path)
        blob = bytearray(path.read_bytes())
        blob[-1] = ord("a")  # rewrite id "b" -> "a"
        path.write_bytes(bytes(blob))
        with pytest.raises(DuplicateIdError):
            load_embeddings(path)

    def test_non_utf8_id_is_format_error(self, tmp_path):
        blob = bytearray(self._valid_bytes(tmp_path))
        blob[-1] = 0xFF  # the id of row 1 is no longer UTF-8
        path = tmp_path / "latin.uceb"
        path.write_bytes(bytes(blob))
        with pytest.raises(UcebFormatError, match="row 1"):
            load_embeddings(path)


class TestEnsembleFeatures:
    def test_identical_rows_pass_through(self):
        u = np.array([[0.6, 0.8]], dtype=np.float32)
        a = EmbeddingSet(u, ["x"])
        fused = ensemble_features(a, EmbeddingSet(u.copy(), ["x"]))
        np.testing.assert_allclose(fused.vectors, u, atol=1e-7)

    def test_orthogonal_rows_average_and_renormalize(self):
        a = EmbeddingSet(np.array([[1, 0]], dtype=np.float32), ["x"])
        b = EmbeddingSet(np.array([[0, 1]], dtype=np.float32), ["x"])
        fused = ensemble_features(a, b)
        expected = np.array([[1, 1]]) / np.sqrt(2)
        np.testing.assert_allclose(fused.vectors, expected, atol=1e-7)

    def test_antipodal_rows_are_degenerate(self):
        a = EmbeddingSet(np.array([[1.0, 0]], dtype=np.float32), ["x"])
        b = EmbeddingSet(np.array([[-1.0, 0]], dtype=np.float32), ["x"])
        with pytest.raises(DegenerateVectorError):
            ensemble_features(a, b)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        a = _random_set(rng, labeled=False)
        b = EmbeddingSet(
            rng.standard_normal(a.vectors.shape).astype(np.float32), list(a.ids)
        )
        assert ensemble_features(a, b) == ensemble_features(b, a)

    def test_output_rows_are_unit(self):
        rng = np.random.default_rng(4)
        a = _random_set(rng, n=20, d=9, labeled=False)
        b = EmbeddingSet(
            rng.standard_normal(a.vectors.shape).astype(np.float32), list(a.ids)
        )
        fused = ensemble_features(a, b)
        norms = np.linalg.norm(fused.vectors.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_shape_mismatch_rejected(self):
        a = EmbeddingSet(np.ones((2, 3), dtype=np.float32), ["a", "b"])
        b = EmbeddingSet(np.ones((2, 4), dtype=np.float32), ["a", "b"])
        with pytest.raises(DimensionMismatchError):
            ensemble_features(a, b)

    def test_id_mismatch_rejected(self):
        a = EmbeddingSet(np.ones((1, 3), dtype=np.float32), ["a"])
        b = EmbeddingSet(np.ones((1, 3), dtype=np.float32), ["b"])
        with pytest.raises(ValidationError):
            ensemble_features(a, b)


class TestSynthConflictDataset:
    def test_no_conflict_means_pseudo_equals_truth(self):
        spec = SyntheticSpec(true_classes=6, per_class=5, dim=8, conflict_ratio=0.0, seed=1)
        data, truth = synth_conflict_dataset(spec)
        np.testing.assert_array_equal(data.labels, truth)

    def test_full_conflict_doubles_the_label_count(self):
        spec = SyntheticSpec(true_classes=10, per_class=4, dim=8, conflict_ratio=1.0, seed=2)
        data, _ = synth_conflict_dataset(spec)
        assert spec.pseudo_classes == 20
        assert np.unique(data.labels).size == 20

    def test_pseudo_class_count_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = int(rng.integers(2, 30))
            ratio = float(rng.uniform(0, 1))
            spec = SyntheticSpec(true_classes=c, per_class=3, dim=6, conflict_ratio=ratio, seed=int(rng.integers(1000)))
            data, _ = synth_conflict_dataset(spec)
            assert spec.pseudo_classes == c + int(round(c * ratio))
            assert np.unique(data.labels).size == spec.pseudo_classes

    def test_zero_noise_collapses_each_class(self):
        spec = SyntheticSpec(true_classes=3, per_class=4, dim=5, intra_noise=0.0, seed=3)
        data, truth = synth_conflict_dataset(spec)
        for cls in range(3):
            rows = data.vectors[truth == cls]
            assert np.all(rows == rows[0])

    def test_deterministic_given_seed(self, tmp_path):
        spec = SyntheticSpec(true_classes=4, per_class=6, dim=7, conflict_ratio=0.5, seed=9)
        a, truth_a = synth_conflict_dataset(spec)
        b, truth_b = synth_conflict_dataset(spec)
        assert a == b
        np.testing.assert_array_equal(truth_a, truth_b)
        pa, pb = tmp_path / "a.uceb", tmp_path / "b.uceb"
        save_embeddings(a, pa)
        save_embeddings(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_conflict_split_respects_ground_truth(self):
        spec = SyntheticSpec(true_classes=8, per_class=10, dim=6, conflict_ratio=0.25, seed=11)
        data, truth = synth_conflict_dataset(spec)
        # each pseudo label must be a subset of exactly one true class
        for pseudo in np.unique(data.labels):
            owners = np.unique(truth[data.labels == pseudo])
            assert owners.size == 1

    def test_invalid_spec_values(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(true_classes=1, per_class=5, dim=4)
        with pytest.raises(ValidationError):
            SyntheticSpec(true_classes=3, per_class=1, dim=4)
        with pytest.raises(ValidationError):
            SyntheticSpec(true_classes=3, per_class=5, dim=4, conflict_ratio=1.5)
        with pytest.raises(ValidationError):
            SyntheticSpec(true_classes=3, per_class=5, dim=4, intra_noise=-0.1)
