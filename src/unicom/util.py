"""Small shared helpers: ratio rounding, row normalization, per-label sums,
row blocks."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DegenerateVectorError, ValidationError

# Rows per block in map_row_chunks. Kernels hold O(BLOCK_ROWS * width)
# scratch per block, whatever the row count or the thread count.
BLOCK_ROWS = 512

# Entries per bincount in label_sums, unless one column of n rows or of k
# bins is longer. Bin indices, float64 weights and counted bins take 8 bytes
# an entry each, about 25 MB in all; k-means' sums over 5,000 rows of 128
# dimensions still take a single block.
LABEL_SUM_ENTRIES = 1 << 20


def ratio_count(total: int, ratio: float) -> int:
    """Number of items selected by a fractional ratio, round-to-nearest."""
    return int(round(total * ratio))


def unit_rows(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """L2-normalize each row, raising if any norm is below `eps` or not finite."""
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms >= eps)))
    if bad.size:
        raise DegenerateVectorError(f"row {bad[0]} has norm {norms[bad[0]]:.3e}")
    return x / norms[:, None]


def unit_rows_backward(grad: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient with respect to rows x, given `grad` with respect to their
    unit versions `unit` = x / `norms`: (grad - <grad, unit> unit) / norms,
    row by row. Builds one new array; `grad` is left as it is."""
    out = grad * unit
    np.multiply(np.add.reduce(out, axis=1, keepdims=True), unit, out=out)
    np.subtract(grad, out, out=out)
    out /= norms[:, None]
    return out


def label_sums(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(k, d) float64 sums of the rows of x grouped by label in [0, k).

    One bincount per block of columns: entry (i, j) of a block w columns
    wide goes to bin labels[i]*w + j, so each label's rows are added in row
    order starting from 0.0, exactly as np.add.at(zeros, labels, x) adds
    them. A block spans LABEL_SUM_ENTRIES // max(n, k) columns, at least
    one, and is converted to float64 on its own; a C-ordered float64 x
    that fits in one block is not copied.
    """
    n, d = x.shape
    width = max(1, LABEL_SUM_ENTRIES // max(n, k, 1))
    sums = np.empty((k, d))
    for a in range(0, d, width):
        b = min(a + width, d)
        bins = (labels[:, None] * (b - a) + np.arange(b - a)).ravel()
        weights = np.ascontiguousarray(x[:, a:b], dtype=np.float64).ravel()
        sums[:, a:b] = np.bincount(bins, weights, minlength=k * (b - a)).reshape(k, b - a)
    return sums


def check_threads(threads: int) -> None:
    """Raise ValidationError unless `threads` is at least 1."""
    if threads < 1:
        raise ValidationError(f"thread count must be >= 1, got {threads}")


def map_row_chunks(fn, n_items: int, threads: int = 1) -> list:
    """Apply fn(start, stop) over blocks of BLOCK_ROWS rows of [0, n_items).

    Block boundaries do not depend on `threads`: worker threads take whole
    blocks, so every block is computed by the same calls on the same
    operands whatever the thread count. Results come back in block order.
    """
    check_threads(threads)
    spans = [(a, min(a + BLOCK_ROWS, n_items)) for a in range(0, max(n_items, 1), BLOCK_ROWS)]
    workers = min(threads, len(spans))
    if workers <= 1:
        return [fn(a, b) for a, b in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda span: fn(*span), spans))
