"""Lloyd k-means over embedding rows: assignment, update, objective trace.

The objective minimized is the mean squared Euclidean distance between
each row and its assigned centroid. On unit-norm rows this is monotone in
cosine distance, so the pseudo labels it produces are consistent with the
cosine-based losses trained on top of them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import EmbeddingSet
from .errors import DimensionMismatchError, ValidationError
from .rng import stream_rng
from .util import check_threads, label_sums, map_row_chunks, screen_error

INIT_METHODS = ("kmeanspp", "random-points")


@dataclass
class KMeansConfig:
    k: int
    max_iters: int = 100
    tol: float = 1e-6
    init: str = "kmeanspp"
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValidationError("tol must be finite and >= 0")
        if self.init not in INIT_METHODS:
            raise ValidationError(f"init must be one of {INIT_METHODS}")


@dataclass
class ClusterResult:
    """Centroids (one per row), assignments, and the objective trace."""

    centroids: np.ndarray  # (k, d)
    assignments: np.ndarray  # (n,) int64
    objective_trace: list[float] = field(default_factory=list)
    iterations_run: int = 0

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _points(data) -> np.ndarray:
    if isinstance(data, EmbeddingSet):
        return data.vectors.astype(np.float64)
    return np.asarray(data, dtype=np.float64)


# The screens below take x.c from a float32 product and the squared norms
# in float64. With m = (|x| + |c|) / 2 and delta = screen_error(m, m, d),
# x.c errs by at most screen_error(|x|, |c|, d), and as that bound is
# affine in each norm, 2 delta exceeds it by (2 u + gamma_d)(|x| + |c|)^2
# / 2 (notation of `screen_error`), far above the float64 rounding of the
# norms and sums. So:
# - kmeans++ screens |x|^2 - 2 x.c + |c|^2, within 4 delta of the true
#   squared distance. The exact sum((x - c)^2), evaluated in float64, is
#   within 4 delta too, so a row whose screen exceeds its current nearest
#   by 8 delta or more cannot get nearer.
# - `assign` ranks a row's centroids by |c|^2 / 2 - x.c, half the squared
#   distance less the row's own |x|^2 / 2, within 2 delta of its true
#   value; half the exact formula lies within 2 delta of half the true
#   distance. So the centroid nearest by the exact formula screens within
#   8 delta of the row minimum.
_DISTANCE_SLACK = 8
# Norms of huge rows may overflow where their differences do not, and
# float32 casts of coordinates beyond about 3.4e38 do; such rows get a
# non-finite bound and are rescored in full, so the screen stays silent.
_QUIET = dict(over="ignore", invalid="ignore")


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} contain NaN or infinite values")


def assign(data, centroids: np.ndarray, threads: int = 1) -> np.ndarray:
    """Map each row to its nearest centroid (squared Euclidean distance).

    `centroids` holds one centroid per row. Ties break toward the lowest
    centroid index.

    Each block of rows is screened with one float32 matrix product
    through |c|^2 / 2 - x.c, the squared norms kept in float64. The
    few centroids whose screened distance lies within a rounding-error
    bound of the row minimum are rescored as sum((x - c)^2) in float64,
    and the winner is chosen on those values, so the result equals an
    exhaustive scan with that formula.
    """
    x = _points(data)
    c = np.ascontiguousarray(centroids, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != x.shape[1]:
        raise DimensionMismatchError(
            f"centroids of shape {c.shape} do not match dimension {x.shape[1]}"
        )
    _require_finite(x, "points")
    _require_finite(c, "centroids")
    k, d = c.shape
    with np.errstate(**_QUIET):
        c_sq = np.einsum("kd,kd->k", c, c)
        c_norm = np.sqrt(c_sq.max())
        c_half = c_sq / 2
        c32 = c.astype(np.float32)

    def chunk(a, b):
        rows = x[a:b]
        with np.errstate(**_QUIET):
            x_sq = np.einsum("id,id->i", rows, rows)
            screened = np.subtract(c_half, rows.astype(np.float32) @ c32.T, dtype=np.float64)
            m = (np.sqrt(x_sq) + c_norm) / 2
            limit = screened.min(axis=1) + _DISTANCE_SLACK * screen_error(m, m, d)
        near = screened <= limit[:, None]
        near[~np.isfinite(limit)] = True
        r, j = np.divmod(np.flatnonzero(near), k)
        diff = rows[r] - c[j]
        d2 = np.einsum("ij,ij->i", diff, diff)
        starts = np.searchsorted(r, np.arange(b - a))
        best = np.minimum.reduceat(d2, starts)
        return np.minimum.reduceat(np.where(d2 == best[r], j, k), starts)

    parts = map_row_chunks(chunk, x.shape[0], threads)
    return np.concatenate(parts).astype(np.int64)


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
    k = centroids.shape[0]
    if np.any(assignments < 0) or np.any(assignments >= k):
        raise ValidationError(f"assignments must lie in [0, {k})")
    with np.errstate(over="ignore"):
        diff = x - centroids[assignments]
        return float(np.sum(diff * diff) / x.shape[0])


def _init_centroids(x: np.ndarray, cfg: KMeansConfig) -> np.ndarray:
    """Starting centroids as rows: `cfg.k` distinct points drawn uniformly,
    or by kmeans++.

    kmeans++ seeds with one uniform point, then samples each next point
    with probability proportional to its squared distance sum((x - c)^2)
    from the nearest centroid chosen so far. Each step screens every row
    with one float32 matrix-vector product through |x|^2 - 2 x.c + |c|^2
    and rescores, with the exact formula in float64, only the rows whose
    screened distance could lie below their current nearest within the
    rounding bound of `assign`. The distances, and so every draw, equal
    those of an exhaustive scan with that formula. Squared distances that
    overflow float64 raise ValidationError.
    """
    n, d = x.shape
    rng = stream_rng(cfg.seed, "kmeans-init")
    if cfg.init == "random-points":
        idx = rng.choice(n, size=cfg.k, replace=False)
        return x[idx].copy()

    chosen = np.empty(cfg.k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    diff = x - x[chosen[0]]
    closest = np.einsum("ij,ij->i", diff, diff)
    with np.errstate(**_QUIET):
        x32 = x.astype(np.float32)
        x_sq = np.einsum("id,id->i", x, x)
        # Every centroid is a row, so its norm is at most the largest.
        m = (np.sqrt(x_sq) + np.sqrt(x_sq.max())) / 2
        slack = _DISTANCE_SLACK * screen_error(m, m, d)
    for i in range(1, cfg.k):
        total = closest.sum()
        if not math.isfinite(total):
            raise ValidationError("squared distances between the points overflow float64")
        if total <= 0.0:
            # All remaining mass is on already-chosen points (duplicates);
            # fall back to a uniform pick among unchosen indices.
            unchosen = np.setdiff1d(np.arange(n), chosen[:i])
            chosen[i] = rng.choice(unchosen)
        else:
            chosen[i] = rng.choice(n, p=closest / total)
        c = chosen[i]
        with np.errstate(**_QUIET):
            screened = x_sq - 2.0 * (x32 @ x32[c]).astype(np.float64) + x_sq[c]
            # Negated, so NaN and infinite screens are rescored too.
            rows = np.flatnonzero(~(screened - slack >= closest))
        diff = x[rows] - x[c]
        closest[rows] = np.minimum(closest[rows], np.einsum("ij,ij->i", diff, diff))
    return x[chosen].copy()


def _respawn_empty(x, centroids, assignments, counts):
    """Move each empty cluster onto the point farthest from its centroid.

    Points are considered in decreasing order of distance to their assigned
    centroid (ties toward the lower index); a point is only stolen from a
    cluster that would keep at least one member.
    """
    empty = np.flatnonzero(counts == 0)
    if empty.size == 0:
        return
    diff = x - centroids[assignments]
    dist2 = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(-dist2, kind="stable")
    pos = 0
    for j in empty:
        while pos < len(order):
            p = order[pos]
            pos += 1
            if counts[assignments[p]] > 1:
                counts[assignments[p]] -= 1
                assignments[p] = j
                counts[j] = 1
                centroids[j] = x[p]
                break
        else:  # pragma: no cover - n >= k guarantees a donor exists
            raise ValidationError("cannot respawn empty cluster")


def kmeans_fit(data, cfg: KMeansConfig, threads: int = 1) -> ClusterResult:
    """Run Lloyd iterations until the relative improvement drops below tol.

    Alternates nearest-centroid assignment with member-mean updates,
    recording the objective after every assignment pass. Empty clusters
    are respawned on the point farthest from its current centroid, so no
    cluster is empty in the returned result. Squared distances that
    overflow float64 raise ValidationError.
    """
    check_threads(threads)
    x = _points(data)
    n = x.shape[0]
    _require_finite(x, "points")
    if cfg.k > n:
        raise ValidationError(f"k={cfg.k} exceeds the number of points {n}")

    centroids = _init_centroids(x, cfg)
    trace: list[float] = []
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(cfg.max_iters):
        assignments = assign(x, centroids, threads=threads)
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
