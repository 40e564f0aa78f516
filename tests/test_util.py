"""Tests for row normalization and the fixed row blocks behind --threads."""

import numpy as np
import pytest

from unicom.errors import DegenerateVectorError
from unicom.util import BLOCK_ROWS, map_row_chunks, unit_rows


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


class TestMapRowChunks:
    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7])
    def test_blocks_do_not_depend_on_threads(self, n):
        expected = [(a, min(a + BLOCK_ROWS, n)) for a in range(0, max(n, 1), BLOCK_ROWS)]
        for threads in (1, 2, 3, 8):
            assert map_row_chunks(lambda a, b: (a, b), n, threads) == expected

    def test_worker_errors_propagate(self):
        def fail(a, b):
            raise ValueError(f"block {a}")

        with pytest.raises(ValueError):
            map_row_chunks(fail, 2 * BLOCK_ROWS, threads=2)
