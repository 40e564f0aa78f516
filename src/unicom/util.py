"""Small shared helpers: ratio rounding, the finiteness check, row
normalization and its norm floor, per-label sums, the float32 screen's
error bound, row blocks."""

import math
import numbers
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DegenerateVectorError, ValidationError

# Rows per block in check_finite, unit_rows, unit_rows_backward and, unless
# it is given another count, map_row_chunks. Kernels hold
# O(BLOCK_ROWS * width) scratch per block, whatever the row count or the
# thread count.
BLOCK_ROWS = 512

# Entries per bincount in label_sums, unless one column of n rows or of k
# bins is longer. Bin indices, float64 weights and counted bins take 8 bytes
# an entry each, about 25 MB in all; k-means' sums over 5,000 rows of 128
# dimensions still take a single block.
LABEL_SUM_ENTRIES = 1 << 20

# Rows, sub-vectors and masked blocks with a norm below this are degenerate:
# they have no direction to normalize to.
NORM_EPS = 1e-12


def ratio_count(total: int, ratio: float) -> int:
    """Number of items selected by a fractional ratio, round-to-nearest."""
    return int(round(total * ratio))


def check_finite(x: np.ndarray, what: str) -> None:
    """Raise ValidationError naming, as "`what` i", the first row i of the
    2-D `x` that holds a NaN or infinite value. Reads BLOCK_ROWS rows at a time."""
    for a in range(0, x.shape[0], BLOCK_ROWS):
        block = x[a : a + BLOCK_ROWS]
        if not np.isfinite(block).all():
            bad = a + int(np.flatnonzero(~np.isfinite(block).all(axis=1))[0])
            raise ValidationError(f"{what} {bad} holds a NaN or infinite value")


def unit_rows(x: np.ndarray, first: int = 0) -> np.ndarray:
    """L2-normalize each row of the C-ordered float array `x` in place and
    return `x`; the caller must own it. Raises, leaving `x` as it was, if
    any norm is below NORM_EPS or not finite, naming the row as `first`
    plus its index in `x`. Beyond `x` it holds the norms and one block of
    BLOCK_ROWS rows squared."""
    norms = np.empty(x.shape[0], dtype=x.dtype)
    for a in range(0, x.shape[0], BLOCK_ROWS):
        block = x[a : a + BLOCK_ROWS]
        # What np.linalg.norm(x, axis=1) runs, so each row gets its bits.
        np.sqrt(np.add.reduce(block * block, axis=1), out=norms[a : a + BLOCK_ROWS])
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms >= NORM_EPS)))
    if bad.size:
        raise DegenerateVectorError(f"row {first + bad[0]} has norm {norms[bad[0]]:.3e}")
    x /= norms[:, None]
    return x


def unit_rows_inplace(x: np.ndarray, what: str):
    """Divide the float64 rows of `x` by their norms in place and return
    (norms, x). A norm below NORM_EPS raises DegenerateVectorError naming
    `what`; a NaN norm passes, to surface as a non-finite loss."""
    norms = np.sqrt(np.add.reduce(x * x, axis=1))  # what np.linalg.norm(x, axis=1) runs
    if (norms < NORM_EPS).any():
        raise DegenerateVectorError(f"{what} has zero norm")
    x /= norms[:, None]
    return norms, x


def unit_rows_backward(grad: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient with respect to rows x, given `grad` with respect to their
    unit versions `unit` = x / `norms`: (grad - <grad, unit> unit) / norms,
    row by row. Overwrites `grad` with it and returns `grad`; beyond it, the
    scratch is one block of at most BLOCK_ROWS rows."""
    if grad.shape[0] > BLOCK_ROWS:
        for a in range(0, grad.shape[0], BLOCK_ROWS):
            rows = slice(a, a + BLOCK_ROWS)
            unit_rows_backward(grad[rows], unit[rows], norms[rows])
        return grad
    t = grad * unit
    np.multiply(np.add.reduce(t, axis=1, keepdims=True), unit, out=t)
    grad -= t
    grad /= norms[:, None]
    return grad


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


# Float32 unit roundoff; 2^-126, the smallest normal float32, which bounds
# the absolute error of a float32 result near zero both under gradual
# underflow (half a subnormal step, 2^-150) and in a kernel that flushes
# subnormals to zero; and the largest finite float32.
_U32 = 2.0**-24
_TINY32 = 2.0**-126
_MAX32 = float(np.finfo(np.float32).max)

# The bound of screen_error, with u = 2^-24, t = 2^-126 and
# gamma_n = n u / (1 - n u) (Higham, "Accuracy and Stability of Numerical
# Algorithms", sections 2.2 and 3.1):
# - Operands. Rounding a float64 coordinate v to float32 moves it by at
#   most u|v| + t, so x32 = x + e with |e| <= u|x| + sqrt(d) t, and
#   |x32| <= A = (1 + u)|x| + sqrt(d) t; likewise y32 = y + f, |y32| <= B.
#   Then |x32.y32 - x.y| = |e.y32 + x.f| <= 2 u A B + sqrt(d) t (A + B).
# - Accumulation. Each of the d products rounds with relative error u or
#   absolute error t, and the d - 1 additions, in any order, fused or not,
#   add relative error gamma_{d-1} and absolute error t each, which later
#   roundings grow by at most 1 + gamma_{d-1} <= 2 for d u <= 1/2. Since
#   sum |x32_i y32_i| <= A B (Cauchy-Schwarz), the float32 sum lies within
#   gamma_d A B + 4 d t of x32.y32.
# - A float64 evaluation of x.y lies within gamma_d A B in float64 units,
#   2^-29 of the float32 ones.
# The bound is twice the sum of the first two, which covers the third, the
# float64 rounding of the given norms and of the bound itself. A float32
# product can only overflow if a cast does, or a product or partial sum,
# at most (1 + gamma_d) A B, does: the bound is inf unless A and B lie
# below the largest float32 and A B below half of it, so a caller that
# meets an infinite bound must rescore in full.


def screen_error(x_norm, y_norm, d: int):
    """How far the float32 screen of a dot product may lie from its value.

    The screen is the entry x32 . y32 of a float32 matrix product, where x
    and y are float64 d-vectors of norms at most `x_norm` and `y_norm`, and
    x32 and y32 are x and y rounded to float32. The bound holds against the
    exact x . y and against any float64 evaluation of it, in any order of
    summation; it is inf where the float32 product could overflow. Norms
    may be arrays, and the result broadcasts.
    """
    gamma = d * _U32 / (1 - d * _U32) if d * _U32 <= 0.5 else math.inf
    spread = math.sqrt(d) * _TINY32
    with np.errstate(over="ignore", invalid="ignore"):
        a = (1 + _U32) * np.asarray(x_norm, dtype=np.float64) + spread
        b = (1 + _U32) * np.asarray(y_norm, dtype=np.float64) + spread
        ab = a * b
        bound = 2 * ((2 * _U32 + gamma) * ab + spread * (a + b) + 4 * d * _TINY32)
        return np.where((a < _MAX32) & (b < _MAX32) & (ab < _MAX32 / 2), bound, np.inf)


def whole_number(value, name: str) -> int:
    """`value` as an int. Raises ValidationError naming `name` unless it is
    a whole number; an integral float such as 3.0 passes."""
    if not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_threads(threads: int) -> None:
    """Raise ValidationError unless `threads` is at least 1."""
    if threads < 1:
        raise ValidationError(f"thread count must be >= 1, got {threads}")


def map_row_chunks(fn, n_items: int, threads: int = 1, rows: int = BLOCK_ROWS) -> list:
    """Apply fn(start, stop) over blocks of `rows` rows of [0, n_items).

    Block boundaries do not depend on `threads`: worker threads take whole
    blocks, so every block is computed by the same calls on the same
    operands whatever the thread count. Results come back in block order.
    """
    check_threads(threads)
    spans = [(a, min(a + rows, n_items)) for a in range(0, max(n_items, 1), rows)]
    workers = min(threads, len(spans))
    if workers <= 1:
        return [fn(a, b) for a, b in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda span: fn(*span), spans))
