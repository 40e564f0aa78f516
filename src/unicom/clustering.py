"""Lloyd k-means over embedding rows: assignment, update, objective trace.

The objective minimized is the mean squared Euclidean distance between
each row and its assigned centroid. On unit-norm rows this is monotone in
cosine distance, so the pseudo labels it produces are consistent with the
cosine-based losses trained on top of them.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import EmbeddingSet
from .errors import DimensionMismatchError, ValidationError
from .rng import stream_rng
from .util import map_row_chunks

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
        if self.tol < 0:
            raise ValidationError("tol must be >= 0")
        if self.init not in INIT_METHODS:
            raise ValidationError(f"init must be one of {INIT_METHODS}")


@dataclass
class ClusterResult:
    """Centroids (one per column), assignments, and the objective trace."""

    centroids: np.ndarray  # (d, k)
    assignments: np.ndarray  # (n,) int64
    objective_trace: list[float] = field(default_factory=list)
    iterations_run: int = 0

    @property
    def k(self) -> int:
        return self.centroids.shape[1]


def _points(data) -> np.ndarray:
    if isinstance(data, EmbeddingSet):
        return data.vectors.astype(np.float64)
    return np.asarray(data, dtype=np.float64)


# Both distance formulas in `assign` lie within (d + 2) unit roundoffs of
# (|x| + |c|)^2 of the true squared distance, in any summation order
# (Higham, "Accuracy and Stability of Numerical Algorithms", section 3.1).
# So the two disagree by at most twice that for any one centroid, and the
# screen keeps every centroid within four times that of the row minimum,
# doubled again for rounding in the bound itself.
_ROUNDING_SLACK = 8 * np.finfo(np.float64).eps / 2
_SUBNORMAL_SLACK = 8 * np.nextafter(0.0, 1.0)


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} contain NaN or infinite values")


def assign(data, centroids: np.ndarray, threads: int = 1) -> np.ndarray:
    """Map each row to its nearest centroid (squared Euclidean distance).

    `centroids` holds one centroid per column. Ties break toward the
    lowest centroid index.

    Each block of rows is screened with one matrix product through
    |x|^2 - 2 x.c + |c|^2. The few centroids whose screened distance lies
    within a rounding-error bound of the row minimum are rescored as
    sum((x - c)^2), and the winner is chosen on those values, so the result
    equals an exhaustive scan with that formula.
    """
    x = _points(data)
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 2 or centroids.shape[0] != x.shape[1]:
        raise DimensionMismatchError(
            f"centroids of shape {centroids.shape} do not match dimension {x.shape[1]}"
        )
    _require_finite(x, "points")
    _require_finite(centroids, "centroids")
    points_t = np.ascontiguousarray(centroids.T)  # (k, d)
    k, d = points_t.shape
    # Norms of huge rows may overflow where their differences do not; such
    # rows get a non-finite bound and are rescored in full, so the screen
    # stays silent about it.
    quiet = dict(over="ignore", invalid="ignore")
    with np.errstate(**quiet):
        c_sq = np.einsum("kd,kd->k", points_t, points_t)
        c_norm = np.sqrt(c_sq.max())

    def chunk(a, b):
        rows = x[a:b]
        with np.errstate(**quiet):
            x_sq = np.einsum("id,id->i", rows, rows)
            screened = x_sq[:, None] - 2.0 * (rows @ points_t.T) + c_sq[None, :]
            slack = (d + 4) * (_ROUNDING_SLACK * (np.sqrt(x_sq) + c_norm) ** 2 + _SUBNORMAL_SLACK)
            limit = screened.min(axis=1) + slack
        near = screened <= limit[:, None]
        near[~np.isfinite(limit)] = True
        r, j = np.divmod(np.flatnonzero(near), k)
        diff = rows[r] - points_t[j]
        d2 = np.einsum("ij,ij->i", diff, diff)
        starts = np.searchsorted(r, np.arange(b - a))
        best = np.minimum.reduceat(d2, starts)
        return np.minimum.reduceat(np.where(d2 == best[r], j, k), starts)

    parts = map_row_chunks(chunk, x.shape[0], threads)
    return np.concatenate(parts).astype(np.int64)


def objective(data, centroids: np.ndarray, assignments: np.ndarray) -> float:
    """Mean squared distance of each row to its assigned centroid."""
    x = _points(data)
    centroids = np.asarray(centroids, dtype=np.float64)
    assignments = np.asarray(assignments, dtype=np.int64)
    if assignments.shape != (x.shape[0],):
        raise DimensionMismatchError("one assignment per row is required")
    if centroids.shape[0] != x.shape[1]:
        raise DimensionMismatchError("centroid dimension does not match data")
    k = centroids.shape[1]
    if np.any(assignments < 0) or np.any(assignments >= k):
        raise ValidationError(f"assignments must lie in [0, {k})")
    diff = x - centroids.T[assignments]
    return float(np.sum(diff * diff) / x.shape[0])


def _init_centroids(x: np.ndarray, cfg: KMeansConfig) -> np.ndarray:
    n = x.shape[0]
    rng = stream_rng(cfg.seed, "kmeans-init")
    if cfg.init == "random-points":
        idx = rng.choice(n, size=cfg.k, replace=False)
        return x[idx].copy()

    # kmeans++: seed with one uniform point, then sample proportionally to
    # the squared distance from the nearest centroid chosen so far.
    chosen = np.empty(cfg.k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    diff = x - x[chosen[0]]
    closest = np.einsum("ij,ij->i", diff, diff)
    for i in range(1, cfg.k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining mass is on already-chosen points (duplicates);
            # fall back to a uniform pick among unchosen indices.
            unchosen = np.setdiff1d(np.arange(n), chosen[:i])
            chosen[i] = rng.choice(unchosen)
        else:
            chosen[i] = rng.choice(n, p=closest / total)
        diff = x - x[chosen[i]]
        closest = np.minimum(closest, np.einsum("ij,ij->i", diff, diff))
    return x[chosen].copy()


def _respawn_empty(x, centroids_rows, assignments, counts):
    """Move each empty cluster onto the point farthest from its centroid.

    Points are considered in decreasing order of distance to their assigned
    centroid (ties toward the lower index); a point is only stolen from a
    cluster that would keep at least one member.
    """
    empty = np.flatnonzero(counts == 0)
    if empty.size == 0:
        return
    diff = x - centroids_rows[assignments]
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
                centroids_rows[j] = x[p]
                break
        else:  # pragma: no cover - n >= k guarantees a donor exists
            raise ValidationError("cannot respawn empty cluster")


def kmeans_fit(data, cfg: KMeansConfig, threads: int = 1) -> ClusterResult:
    """Run Lloyd iterations until the relative improvement drops below tol.

    Alternates nearest-centroid assignment with member-mean updates,
    recording the objective after every assignment pass. Empty clusters
    are respawned on the point farthest from its current centroid, so no
    cluster is empty in the returned result.
    """
    x = _points(data)
    n, d = x.shape
    _require_finite(x, "points")
    if cfg.k > n:
        raise ValidationError(f"k={cfg.k} exceeds the number of points {n}")

    centroids_rows = _init_centroids(x, cfg)
    trace: list[float] = []
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(cfg.max_iters):
        assignments = assign(x, centroids_rows.T, threads=threads)
        counts = np.bincount(assignments, minlength=cfg.k)
        _respawn_empty(x, centroids_rows, assignments, counts)
        trace.append(objective(x, centroids_rows.T, assignments))
        if len(trace) >= 2:
            prev, cur = trace[-2], trace[-1]
            if prev <= 0.0 or (prev - cur) / prev < cfg.tol:
                break
        elif trace[-1] == 0.0:
            break
        # Update step: per-cluster ordered accumulation by point index,
        # so results are identical for any thread count.
        sums = np.zeros((cfg.k, d))
        np.add.at(sums, assignments, x)
        centroids_rows = sums / counts[:, None]

    return ClusterResult(
        centroids=centroids_rows.T.copy(),
        assignments=assignments,
        objective_trace=trace,
        iterations_run=len(trace),
    )
