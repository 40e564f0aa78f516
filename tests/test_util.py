"""Tests for row normalization and the fixed row blocks behind --threads."""

import tracemalloc

import numpy as np
import pytest

from unicom.errors import DegenerateVectorError, ValidationError
from unicom.util import (
    BLOCK_ROWS,
    NORM_EPS,
    map_row_chunks,
    unit_rows,
    unit_rows_backward,
    unit_rows_inplace,
)


def traced_peak(fn):
    """Bytes that tracemalloc saw allocated at the peak of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestUnitRows:
    def test_rows_come_back_unit(self):
        x = np.array([[3.0, 4.0], [0.0, -2.0]])
        np.testing.assert_array_equal(unit_rows(x), [[0.6, 0.8], [0.0, -1.0]])

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateVectorError):
            unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        x = np.ones((3, 2))
        x[1, 1] = bad
        with pytest.raises(DegenerateVectorError, match="row 1"):
            unit_rows(x)

    @pytest.mark.parametrize("d", [3, 9, 64])
    def test_divides_in_place_with_the_bits_of_linalg_norm(self, d):
        # Three row blocks; the last holds three rows.
        x = np.random.default_rng(d).standard_normal((2 * BLOCK_ROWS + 3, d))
        expected = x / np.linalg.norm(x, axis=1)[:, None]
        assert unit_rows(x) is x
        assert x.tobytes() == expected.tobytes()

    def test_bad_row_of_a_later_block_is_named_and_no_row_is_divided(self):
        x = np.full((2 * BLOCK_ROWS + 3, 4), 2.0)
        x[BLOCK_ROWS + 5] = 0.0
        before = x.copy()
        with pytest.raises(DegenerateVectorError, match=f"row {BLOCK_ROWS + 5} "):
            unit_rows(x)
        with pytest.raises(DegenerateVectorError, match=f"row {BLOCK_ROWS + 305} "):
            unit_rows(x, first=300)
        assert x.tobytes() == before.tobytes()

    def test_holds_the_norms_and_one_block(self):
        n, d = 40 * BLOCK_ROWS, 64
        x = np.random.default_rng(1).standard_normal((n, d))
        # A new array or the squares of every row would take n * d * 8 bytes.
        assert traced_peak(lambda: unit_rows(x)) < n * 8 + 2 * BLOCK_ROWS * d * 8


class TestUnitRowsBackward:
    def test_overwrites_grad_block_by_block_with_the_formula_bits(self):
        rng = np.random.default_rng(4)
        n, d = 2 * BLOCK_ROWS + 3, 6
        grad = rng.standard_normal((n, d))
        norms = rng.uniform(0.5, 2.0, n)
        unit = rng.standard_normal((n, d))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        expected = (grad - np.add.reduce(grad * unit, axis=1, keepdims=True) * unit) / norms[:, None]
        assert unit_rows_backward(grad, unit, norms) is grad
        assert grad.tobytes() == expected.tobytes()

    def test_holds_one_block_of_scratch(self):
        n, d = 20 * BLOCK_ROWS, 32
        rng = np.random.default_rng(5)
        grad, unit = rng.standard_normal((2, n, d))
        norms = np.ones(n)
        assert traced_peak(lambda: unit_rows_backward(grad, unit, norms)) < 2 * BLOCK_ROWS * d * 8


class TestUnitRowsInplace:
    def test_divides_in_place_and_matches_unit_rows(self):
        x = np.random.default_rng(0).standard_normal((7, 5))
        expected_norms = np.linalg.norm(x, axis=1)
        expected = unit_rows(x.copy())
        norms, out = unit_rows_inplace(x, "query")
        assert out is x
        assert expected.tobytes() == x.tobytes()
        assert expected_norms.tobytes() == norms.tobytes()

    def test_returns_the_norms_before_division(self):
        x = np.array([[3.0, 4.0], [0.0, -2.0]])
        norms, _ = unit_rows_inplace(x, "query")
        np.testing.assert_array_equal(norms, [5.0, 2.0])
        np.testing.assert_array_equal(x, [[0.6, 0.8], [0.0, -1.0]])

    def test_norm_below_floor_raises_naming_the_rows_and_leaves_them(self):
        x = np.array([[1.0, 0.0], [NORM_EPS / 2, 0.0]])
        before = x.copy()
        with pytest.raises(DegenerateVectorError, match="prototype"):
            unit_rows_inplace(x, "prototype")
        np.testing.assert_array_equal(x, before)

    def test_norm_at_floor_passes(self):
        x = np.array([[NORM_EPS, 0.0]])
        norms, _ = unit_rows_inplace(x, "query")
        np.testing.assert_array_equal(norms, [NORM_EPS])
        np.testing.assert_array_equal(x, [[1.0, 0.0]])

    def test_nan_row_passes_through(self):
        x = np.array([[1.0, 0.0], [np.nan, 1.0]])
        norms, _ = unit_rows_inplace(x, "query")
        assert np.isnan(norms[1])
        assert np.isnan(x[1]).all()
        np.testing.assert_array_equal(x[0], [1.0, 0.0])


class TestMapRowChunks:
    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7])
    def test_blocks_do_not_depend_on_threads(self, n):
        expected = [(a, min(a + BLOCK_ROWS, n)) for a in range(0, max(n, 1), BLOCK_ROWS)]
        for threads in (1, 2, 3, 8):
            assert map_row_chunks(lambda a, b: (a, b), n, threads) == expected

    @pytest.mark.parametrize("rows", [1, 7, 256])
    def test_blocks_of_a_given_row_count_do_not_depend_on_threads(self, rows):
        n = 3 * rows + 2
        expected = [(a, min(a + rows, n)) for a in range(0, n, rows)]
        for threads in (1, 2, 3):
            assert map_row_chunks(lambda a, b: (a, b), n, threads, rows) == expected

    @pytest.mark.parametrize("threads", [0, -5])
    def test_fewer_than_one_thread_rejected(self, threads):
        with pytest.raises(ValidationError, match="thread count"):
            map_row_chunks(lambda a, b: pytest.fail("a block ran"), 2 * BLOCK_ROWS, threads)

    def test_worker_errors_propagate(self):
        def fail(a, b):
            raise ValueError(f"block {a}")

        with pytest.raises(ValueError):
            map_row_chunks(fail, 2 * BLOCK_ROWS, threads=2)
