"""Tests for embedding storage, UCEB round trips, and synthesis."""

import io
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from unicom import (
    EmbeddingSet,
    SyntheticSpec,
    load_embeddings,
    save_embeddings,
    synth_conflict_dataset,
)
from unicom.data import UCEB_MAGIC, _checked_vectors
from unicom.errors import (
    BadMagicError,
    DuplicateIdError,
    InvalidDimensionError,
    TruncatedPayloadError,
    UcebFormatError,
    UnicomError,
    UnsupportedVersionError,
    ValidationError,
)
from unicom.util import BLOCK_ROWS


def _random_set(rng, n=7, d=5, labeled=True):
    vectors = rng.standard_normal((n, d)).astype(np.float32)
    labels = rng.integers(0, 4, size=n) if labeled else None
    return EmbeddingSet(vectors, [f"id-{i}" for i in range(n)], labels)


class TestEmbeddingSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateIdError):
            EmbeddingSet(np.ones((2, 3), dtype=np.float32), ["a", "a"])

    def test_duplicate_ids_are_a_validation_error_not_a_format_error(self):
        with pytest.raises(ValidationError) as raised:
            EmbeddingSet(np.ones((2, 3), dtype=np.float32), ["a", "a"])
        assert not isinstance(raised.value, UcebFormatError)

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

    @pytest.mark.parametrize("row", [0, 2 * BLOCK_ROWS])
    def test_non_finite_row_named_in_any_block(self, row):
        # Three row blocks; the last holds one row.
        vectors = np.ones((2 * BLOCK_ROWS + 1, 4), dtype=np.float32)
        vectors[row, 3] = np.nan
        with pytest.raises(ValidationError, match=f"row {row} "):
            EmbeddingSet(vectors, [str(i) for i in range(len(vectors))])

    def test_finiteness_check_holds_no_whole_set_mask(self):
        vectors = np.ones((200_000, 32), dtype=np.float32)
        tracemalloc.start()
        try:
            _checked_vectors(vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A bool mask of the whole set takes 6.4 MB.
        assert peak < vectors.size // 16


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

    @pytest.mark.parametrize("labeled", [True, False])
    def test_file_bytes_follow_the_documented_layout(self, tmp_path, labeled):
        s = _random_set(np.random.default_rng(8), n=3, d=4, labeled=labeled)
        s = EmbeddingSet(s.vectors, ["a", "héllo", ""], s.labels)
        save_embeddings(s, tmp_path / "set.uceb")
        want = struct.pack("<4sIQII", UCEB_MAGIC, 1, 3, 4, int(labeled)) + s.vectors.astype("<f4").tobytes()
        if labeled:
            want += s.labels.astype("<i8").tobytes()
        for item in s.ids:
            raw = item.encode("utf-8")
            want += struct.pack("<H", len(raw)) + raw
        assert (tmp_path / "set.uceb").read_bytes() == want

    def test_refused_save_leaves_the_path_as_it_was(self, tmp_path):
        rng = np.random.default_rng(9)
        too_long = EmbeddingSet(np.ones((2, 2), dtype=np.float32), ["a", "x" * 70_000])
        existing, absent = tmp_path / "existing.uceb", tmp_path / "absent.uceb"
        save_embeddings(_random_set(rng), existing)
        kept = existing.read_bytes()
        for path in (existing, absent):
            with pytest.raises(ValidationError, match="too long"):
                save_embeddings(too_long, path)
        assert existing.read_bytes() == kept
        assert not absent.exists()

    def test_a_pipe_loads_as_its_file_does(self, tmp_path):
        s = _random_set(np.random.default_rng(11))
        save_embeddings(s, tmp_path / "set.uceb")
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=((tmp_path / "set.uceb").read_bytes(),))
        writer.start()
        try:
            assert load_embeddings(fifo) == s
        finally:
            writer.join()

    def test_save_writes_the_vectors_without_a_copy(self, tmp_path):
        rng = np.random.default_rng(11)
        n, d = 100_000, 64
        s = EmbeddingSet(rng.standard_normal((n, d)).astype(np.float32),
                         [f"{i}" for i in range(n)], rng.integers(0, 9, size=n))
        tracemalloc.start()
        try:
            save_embeddings(s, tmp_path / "big.uceb")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert load_embeddings(tmp_path / "big.uceb") == s
        # A bytes copy of the vectors alone would take all of their bytes.
        assert peak < s.vectors.nbytes / 4

    def test_load_holds_the_payload_once(self, tmp_path):
        rng = np.random.default_rng(10)
        n, d = 4000, 512
        s = EmbeddingSet(rng.standard_normal((n, d)).astype(np.float32),
                         [f"row-{i}" for i in range(n)], rng.integers(0, 9, size=n))
        path = tmp_path / "big.uceb"
        save_embeddings(s, path)
        tracemalloc.start()
        try:
            loaded = load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == s
        # A read of the whole file followed by a copy of its vectors peaks
        # above twice the file size.
        assert peak < 1.5 * path.stat().st_size


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

    @pytest.mark.parametrize("short_block", [0, 1])  # the vectors, then the labels
    def test_file_that_shrinks_while_it_is_read(self, tmp_path, monkeypatch, short_block):
        blob = self._valid_bytes(tmp_path)

        class Shrinking(io.BytesIO):
            """The whole file for the size check; one block read comes
            back a byte short, as if the file were cut after the check."""
            reads = 0

            def readinto(self, buffer):
                view = memoryview(buffer).cast("B")
                if self.reads == short_block:
                    view = view[:-1]
                self.reads += 1
                return super().readinto(view)

        monkeypatch.setattr("unicom.data.open", lambda path, mode: Shrinking(blob), raising=False)
        with pytest.raises(TruncatedPayloadError, match="shrank while it was read"):
            load_embeddings(tmp_path / "valid.uceb")

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


@pytest.mark.parametrize("settings, message", [
    ({"true_classes": 1}, "true_classes must be >= 2"),
    ({"per_class": 1}, "per_class must be >= 2"),
    ({"dim": 0}, "dim must be >= 1"),
    ({"true_classes": 3.5}, "true_classes must be an integer, got 3.5"),
    ({"per_class": 5.5}, "per_class must be an integer, got 5.5"),
    ({"dim": 4.5}, "dim must be an integer, got 4.5"),
    ({"dim": np.inf}, "dim must be an integer, got inf"),
])
def test_spec_refuses_sizes_below_the_floor(settings, message):
    with pytest.raises(ValidationError, match=message):
        SyntheticSpec(**{"true_classes": 3, "per_class": 5, "dim": 4, **settings})


def test_spec_takes_integral_floats_as_counts():
    spec = SyntheticSpec(true_classes=3.0, per_class=np.float32(5), dim=4.0, seed=2)
    assert all(type(v) is int for v in (spec.true_classes, spec.per_class, spec.dim))
    data, _ = synth_conflict_dataset(spec)
    assert data.vectors.shape == (15, 4)


@pytest.mark.parametrize("labels, shown", [([0, 1], "labeled"), (None, "unlabeled")])
def test_set_equals_only_sets_and_shows_its_shape(labels, shown):
    s = EmbeddingSet(np.eye(2, 3, dtype=np.float32), ["a", "b"], labels)
    assert s != "a set" and s != 3
    assert repr(s) == f"EmbeddingSet(n=2, d=3, {shown})"
