"""Small shared helpers: ratio rounding, row normalization, row blocks."""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DegenerateVectorError, ValidationError

THREADS_ENV_VAR = "UNICOM_THREADS"

# Rows per block in map_row_chunks. Kernels hold O(BLOCK_ROWS * width)
# scratch per block, whatever the row count or the thread count.
BLOCK_ROWS = 512


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


def resolve_threads(requested: int | None) -> int:
    """Thread count from an explicit request or the UNICOM_THREADS variable."""
    if requested is not None:
        n = int(requested)
    else:
        n = int(os.environ.get(THREADS_ENV_VAR, "1"))
    if n < 1:
        raise ValidationError(f"thread count must be >= 1, got {n}")
    return n


def map_row_chunks(fn, n_items: int, threads: int = 1) -> list:
    """Apply fn(start, stop) over blocks of BLOCK_ROWS rows of [0, n_items).

    Block boundaries do not depend on `threads`: worker threads take whole
    blocks, so every block is computed by the same calls on the same
    operands whatever the thread count. Results come back in block order.
    """
    spans = [(a, min(a + BLOCK_ROWS, n_items)) for a in range(0, max(n_items, 1), BLOCK_ROWS)]
    workers = min(max(1, int(threads)), len(spans))
    if workers <= 1:
        return [fn(a, b) for a, b in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda span: fn(*span), spans))
