"""Lloyd k-means over embedding rows: assignment, update, objective trace.

The objective minimized is the mean squared Euclidean distance between
each row and its assigned centroid. Against one centroid c, a unit-norm
row x lies at squared distance 1 + |c|^2 - 2|c| cos(x, c), monotone in
their cosine. Centroids are means, not unit-norm, so across centroids it
is not: the nearest centroid of a row need not be its most
cosine-similar one.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import EmbeddingSet
from .errors import DimensionMismatchError, ValidationError
from .rng import stream_rng
from .util import check_finite, check_threads, label_sums, map_row_chunks, screen_error, whole_number

@dataclass
class KMeansConfig:
    k: int
    max_iters: int = 100
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        self.k = whole_number(self.k, "k")
        self.max_iters = whole_number(self.max_iters, "max_iters")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValidationError("tol must be finite and >= 0")


@dataclass
class ClusterResult:
    """Centroids (one per row), assignments, and the objective trace."""

    centroids: np.ndarray  # (k, d)
    assignments: np.ndarray  # (n,) int64
    objective_trace: list[float] = field(default_factory=list)
    iterations_run: int = 0


def _points(data) -> np.ndarray:
    if isinstance(data, EmbeddingSet):
        return data.vectors.astype(np.float64)
    return np.asarray(data, dtype=np.float64)


# The screen below takes x.c from a float32 product. With |c| the largest
# centroid norm, m = (|x| + |c|) / 2 and delta = screen_error(m, m, d), in
# the notation of `screen_error`:
# - x.c errs by at most screen_error(|x|, |c|, d) <= delta for every
#   centroid, as that bound grows with |x| |c| <= m^2 and |x| + |c| = 2 m;
# - delta >= 2 (2 u + gamma_d) m^2 + 8 t >= 6 u m^2 + 8 t, far above the
#   float64 rounding of the norms, of the sums and of delta itself.
# `assign` ranks a row's centroids by h - x.c in float32, half the squared
# distance less the row's own |x|^2 / 2: h = |c|^2 / 2, taken in float64,
# is rounded to float32 and subtracted in place from the product P. Each of
# the two roundings errs by at most u times its exact value plus t. With
# h <= 2 m^2 (as |c| <= 2 m) and |P| <= |x| |c| + delta <= m^2 + delta,
# they add at most (5 + 2 u) u m^2 + (2 + u) t + u delta < delta. So the
# screen lies within 3 delta of its true value: delta for x.c, delta for
# these roundings and delta for the float64 ones. Half the exact formula
# sum((x - c)^2), evaluated in float64, lies within 2 delta of half the
# true distance, so the centroid nearest by the exact formula screens
# within 10 delta of the row minimum: at most the row's limit, that sum
# rounded up to float32. Overflow leaves the limit non-finite, and the row
# is rescored in full:
# - where h overflows float32 (|c| past about 2.6e19), m^2 >= |c|^2 / 4 is
#   at least half the largest float32, so delta is inf;
# - where h - P overflows with delta finite, the centroid's true value
#   exceeds the largest float32 less 2 delta. Were it the nearest, the row
#   minimum would exceed the largest float32 less 9 delta, and the limit
#   would round up to inf.
_DISTANCE_SLACK = 10
# Norms of huge rows may overflow where their differences do not, and
# float32 casts of coordinates beyond about 3.4e38 do; such rows get a
# non-finite bound and are rescored in full, so the screen stays silent.
_QUIET = dict(over="ignore", invalid="ignore")


class _Rows(NamedTuple):
    """Checked float64 points with the row terms of the screen: the points
    in float32 and their float64 squared norms."""

    vectors: np.ndarray
    x32: np.ndarray
    x_sq: np.ndarray


def _screen_rows(x: np.ndarray, x32: np.ndarray | None = None) -> _Rows:
    """The `_Rows` of the float64 points `x`. `x32`, the float32 rows that
    `x` was cast from, if given, is screened as it is and not cast back:
    float32 to float64 is exact, so it holds the bits of that cast."""
    with np.errstate(**_QUIET):
        return _Rows(x, x.astype(np.float32) if x32 is None else x32, np.einsum("id,id->i", x, x))


def assign(data, centroids: np.ndarray, threads: int = 1) -> np.ndarray:
    """Map each row to its nearest centroid (squared Euclidean distance).

    `centroids` holds one centroid per row. Ties break toward the lowest
    centroid index.

    Each block of rows is screened in float32: one matrix product x.c,
    from which |c|^2 / 2 is subtracted in place. A row takes its screen
    minimum unless another centroid screens within a rounding-error bound
    of it. Only such near ties are rescored, as sum((x - c)^2) in float64
    over the centroids within the bound, and the winner is chosen on those
    values, so the result equals an exhaustive scan with that formula.

    Points are checked and cast block by block, unless `data` is the
    `_Rows` that `kmeans_fit` builds once for all of its passes.
    """
    rows = data if isinstance(data, _Rows) else None
    x = _points(data) if rows is None else rows.vectors
    c = np.ascontiguousarray(centroids, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != x.shape[1]:
        raise DimensionMismatchError(
            f"centroids of shape {c.shape} do not match dimension {x.shape[1]}"
        )
    k, d = c.shape
    if k == 0:
        raise ValidationError("assign needs at least one centroid, got 0")
    if rows is None:
        check_finite(x, "point")
    check_finite(c, "centroid")
    with np.errstate(**_QUIET):
        c_sq = np.einsum("kd,kd->k", c, c)
        c_norm = np.sqrt(c_sq.max())
        c_half = (c_sq / 2).astype(np.float32)
        c32 = c.astype(np.float32)

    def chunk(a, b):
        block = _screen_rows(x[a:b]) if rows is None else _Rows(*(v[a:b] for v in rows))
        at = np.arange(b - a)
        with np.errstate(**_QUIET):
            screen = block.x32 @ c32.T
            np.subtract(c_half, screen, out=screen)
            best = screen.argmin(axis=1)
            m = (np.sqrt(block.x_sq) + c_norm) / 2
            # Rounded to float32, then one step up, so never below the bound.
            limit = (screen[at, best] + _DISTANCE_SLACK * screen_error(m, m, d)).astype(np.float32)
            limit = np.nextafter(limit, np.float32(np.inf))
            screen[at, best] = np.inf
            # Negated, so rows with a NaN or infinite limit are rescored too.
            tied = np.flatnonzero(~(screen.min(axis=1) > limit))
        if tied.size == 0:
            return best
        near = screen[tied] <= limit[tied, None]
        near[np.arange(tied.size), best[tied]] = True
        near[~np.isfinite(limit[tied])] = True
        r, j = np.divmod(np.flatnonzero(near), k)
        diff = block.vectors[tied[r]] - c[j]
        d2 = np.einsum("ij,ij->i", diff, diff)
        starts = np.searchsorted(r, np.arange(tied.size))
        low = np.minimum.reduceat(d2, starts)
        best[tied] = np.minimum.reduceat(np.where(d2 == low[r], j, k), starts)
        return best

    parts = map_row_chunks(chunk, x.shape[0], threads)
    return np.concatenate(parts).astype(np.int64, copy=False)


def objective(data, centroids: np.ndarray, assignments: np.ndarray) -> float:
    """Mean squared distance of each row to its assigned centroid; inf,
    without a warning, when the squared distances overflow float64."""
    x = _points(data)
    centroids = np.asarray(centroids, dtype=np.float64)
    assignments = np.asarray(assignments, dtype=np.int64)
    if assignments.shape != (x.shape[0],):
        raise DimensionMismatchError("one assignment per row is required")
    if centroids.ndim != 2 or centroids.shape[1] != x.shape[1]:
        raise DimensionMismatchError("centroid dimension does not match data")
    if x.shape[0] == 0:
        raise ValidationError("the objective needs at least one row, got 0")
    k = centroids.shape[0]
    if np.any(assignments < 0) or np.any(assignments >= k):
        raise ValidationError(f"assignments must lie in [0, {k})")
    diff = centroids.take(assignments, axis=0)
    with np.errstate(over="ignore"):
        np.subtract(x, diff, out=diff)
        np.multiply(diff, diff, out=diff)
        return float(np.sum(diff) / x.shape[0])


def _init_centroids(x: np.ndarray, cfg: KMeansConfig) -> np.ndarray:
    """Starting centroids as rows: `cfg.k` distinct points drawn uniformly."""
    idx = stream_rng(cfg.seed, "kmeans-init").choice(x.shape[0], size=cfg.k, replace=False)
    return x[idx].copy()


def _respawn_empty(x, centroids, assignments, counts):
    """Move each empty cluster onto the point farthest from its centroid.

    Points are considered in decreasing order of distance to their assigned
    centroid (ties toward the lower index); a point is only stolen from a
    cluster that would keep at least one member.
    """
    empty = np.flatnonzero(counts == 0)
    if empty.size == 0:
        return
    diff = centroids.take(assignments, axis=0)
    np.subtract(x, diff, out=diff)
    dist2 = np.einsum("ij,ij->i", diff, diff)
    order = iter(np.argsort(-dist2, kind="stable"))
    for j in empty:
        # n >= k, so a cluster with a second member is always left.
        p = next(p for p in order if counts[assignments[p]] > 1)
        counts[assignments[p]] -= 1
        assignments[p] = j
        counts[j] = 1
        centroids[j] = x[p]


def kmeans_fit(data, cfg: KMeansConfig, threads: int = 1) -> ClusterResult:
    """Run Lloyd iterations until the relative improvement drops below tol.

    Alternates nearest-centroid assignment with member-mean updates,
    recording the objective after every assignment pass. Empty clusters
    are respawned on the point farthest from its current centroid, so no
    cluster is empty in the returned result. Squared distances that
    overflow float64 raise ValidationError.
    """
    check_threads(threads)
    given = data.vectors if isinstance(data, EmbeddingSet) else np.asarray(data)
    x = _points(given)
    n = x.shape[0]
    check_finite(x, "point")
    if cfg.k > n:
        raise ValidationError(f"k={cfg.k} exceeds the number of points {n}")

    # The points are checked, cast and normed once for every assignment
    # pass; points that came as float32 are screened as they came.
    rows = _screen_rows(x, given if given.dtype == np.float32 else None)
    centroids = _init_centroids(x, cfg)
    trace: list[float] = []
    for _ in range(cfg.max_iters):
        assignments = assign(rows, centroids, threads=threads)
        counts = np.bincount(assignments, minlength=cfg.k)
        _respawn_empty(x, centroids, assignments, counts)
        trace.append(objective(x, centroids, assignments))
        if not math.isfinite(trace[-1]):
            raise ValidationError("squared distances between the points overflow float64")
        if len(trace) >= 2:
            prev, cur = trace[-2], trace[-1]
            if prev <= 0.0 or (prev - cur) / prev < cfg.tol:
                break
        elif trace[-1] == 0.0:
            break
        # Update step: per-cluster ordered accumulation by point index,
        # so results are identical for any thread count.
        centroids = label_sums(x, assignments, cfg.k) / counts[:, None]

    return ClusterResult(
        centroids=centroids,
        assignments=assignments,
        objective_trace=trace,
        iterations_run=len(trace),
    )
