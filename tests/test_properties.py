"""Property tests of the blocked kernels (nearest-centroid assignment,
the Lloyd loop, top-k neighbor ranking and mAP@100) against exhaustive
references, and of the class-major sparse prototype update, the
class and feature samplers and the per-label sums against the
column-major and O(k) code they replaced, of the whole training step
against the out-of-place formulas it replaced, of the streamed synthetic
dataset against the whole-array code it replaced, and of the UCEB reader
on corrupt files.

Kernel inputs are built to be full of exact ties, and row counts run
below, at and across the row-block size, with one and three threads.
Every check is bit-exact.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from test_clustering import brute_force_assign
from test_evaluation import brute_force_map100, brute_force_recall
from unicom import (
    EmbeddingSet,
    KMeansConfig,
    LinearEncoder,
    LossConfig,
    PrototypeMatrix,
    TrainConfig,
    Trainer,
    assign,
    feature_dropout_mask,
    full_plan,
    load_embeddings,
    make_selection_plan,
    map_at_100,
    recall_at_k,
    retrieval_report,
    sample_classes,
    sample_feature_mask,
    save_embeddings,
)
from unicom.clustering import (
    ClusterResult,
    _init_centroids,
    _respawn_empty,
    kmeans_fit,
    objective,
)
from unicom.data import SyntheticSpec, synth_conflict_dataset
from unicom.errors import (
    DegenerateVectorError,
    DuplicateIdError,
    NonFiniteLossError,
    UcebFormatError,
    ValidationError,
)
from unicom import evaluation, util
from unicom.evaluation import RANK_ROWS, _ranking, _top_k
from unicom.losses import LossOutput
from unicom.rng import stream_rng
from unicom.training import _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS
from unicom.util import BLOCK_ROWS, LABEL_SUM_ENTRIES, label_sums, ratio_count, unit_rows

ROW_COUNTS = st.sampled_from([1, 2, 9, 40, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 5])
SEEDS = st.integers(0, 2**32 - 1)


def einsum_scan(x, centroids):
    """The exhaustive formula `assign` must reproduce: argmin over every
    centroid of sum((x - c)^2), ties toward the lower index."""
    diff = x[:, None, :] - centroids[None, :, :]
    return np.argmin(np.einsum("ikd,ikd->ik", diff, diff), axis=1)


def assert_assign_exact(x, centroids):
    want = einsum_scan(x, centroids)
    for threads in (1, 3):
        np.testing.assert_array_equal(assign(x, centroids, threads=threads), want)
    return want


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=ROW_COUNTS, k=st.integers(1, 12), d=st.integers(1, 6))
def test_assign_matches_brute_force_on_quantized_points(seed, n, k, d):
    # Half-integer coordinates make every distance exact, so equal
    # distances are real ties and any summation order agrees.
    rng = np.random.default_rng(seed)
    centroids = rng.integers(-2, 3, size=(k, d)) * 0.5
    x = rng.integers(-2, 3, size=(n, d)) * 0.5
    want = assert_assign_exact(x, centroids)
    np.testing.assert_array_equal(want, brute_force_assign(x, centroids))


# Scales at the edges of float32: products that are subnormal (1e-20),
# coordinates that are subnormal or round to zero (1e-40, 1e-45), products
# near overflow (1e18) and coordinates near or beyond it (1e38 to 1e40).
FLOAT32_EDGES = [1e-45, 1e-40, 1e-20, 1e18, 1e38, 1e39, 1e40]


def near_tie_rows(rng, k, d, scale):
    """k rows at `scale` in groups of four: a row, its duplicate, a row one
    float64 ulp above it and one float32 ulp above it (a float64 ulp again
    where the float32 cast overflows)."""
    rows = rng.standard_normal((k, d)) * scale
    base = rows[0::4]
    with np.errstate(over="ignore"):
        up32 = np.nextafter(base.astype(np.float32), np.float32(np.inf)).astype(np.float64)
    up64 = np.nextafter(base, np.inf)
    for offset, near in enumerate([base, up64, np.where(np.isfinite(up32), up32, up64)], 1):
        rows[offset::4] = near[: rows[offset::4].shape[0]]
    return rows


# At 1e200 the true distances overflow, in the reference scan as in assign.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=ROW_COUNTS, k=st.integers(2, 12), d=st.integers(1, 24),
       scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e4, 1e150, 1e154, 1e200] + FLOAT32_EDGES),
       spread=st.booleans())
def test_assign_matches_einsum_scan_on_near_ties(seed, n, k, d, scale, spread):
    # Duplicate centroids, centroids one float64 or float32 ulp apart, and
    # points on or halfway between centroids: distances that tie or nearly
    # tie at the level of rounding. With `spread`, points are also scaled
    # by 1, 1e-30 or 1e30 row by row, so rows of one block differ in scale.
    rng = np.random.default_rng(seed)
    rows = near_tie_rows(rng, k, d, scale)
    a = rows[rng.integers(0, k, size=n)]
    b = rows[rng.integers(0, k, size=n)]
    x = np.where(rng.random((n, 1)) < 0.5, a, (a + b) / 2)
    if spread:
        x = x * rng.choice([1.0, 1e-30, 1e30], size=(n, 1))
    assert_assign_exact(x, rows)


def test_assign_when_a_float32_cross_term_overflows():
    # x.c is -1e39 for the nearest centroid, beyond the float32 range, so
    # its float32 screen is +inf, while a far centroid orthogonal to x
    # screens finite: the row must be rescored in full.
    x = np.array([[1e20, 0.0]])
    np.testing.assert_array_equal(assert_assign_exact(x, np.array([[0.0, 1e30], [-1e19, 0.0]])), [1])


# |c|^2 / 2 overflows float32 from |c| of about 2.6e19, long before the
# coordinates or, for small points, the products x.c do.
MAX32 = float(np.finfo(np.float32).max)
HALF_NORM_EDGE = math.sqrt(2.0 * MAX32)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=ROW_COUNTS, k=st.integers(2, 12), d=st.integers(1, 24),
       ratio=st.sampled_from([0.5, 0.99, 1.0, 1.01, 2.0]),
       shrink=st.sampled_from([1.0, 2.0**-2, 2.0**-3, 2.0**-40]))
def test_assign_matches_einsum_scan_where_half_norms_overflow_float32(seed, n, k, d, ratio, shrink):
    # The near-tie palette with norms around the edge, so some centroids'
    # |c|^2 / 2 overflows float32 and others' does not. Points on, halfway
    # between or shrunk toward the centroids keep x.c in range, so the
    # nearest centroid may be one whose half norm overflows.
    rng = np.random.default_rng(seed)
    rows = near_tie_rows(rng, k, d, ratio * HALF_NORM_EDGE / math.sqrt(d))
    a = rows[rng.integers(0, k, size=n)]
    b = rows[rng.integers(0, k, size=n)]
    x = np.where(rng.random((n, 1)) < 0.5, a, (a + b) / 2) * shrink
    assert_assign_exact(x, rows)


def test_assign_when_the_nearest_half_norm_overflows_float32():
    # Centroid 1 is nearest, and only its |c|^2 / 2 overflows float32; x.c
    # stays in range, so its screen is +inf while centroid 0's is finite.
    # The screen's bound is then inf, so the row is rescored in full.
    x = np.array([[3e18, 0.0]])
    centroids = np.array([[0.0, 0.99 * HALF_NORM_EDGE], [1.004 * HALF_NORM_EDGE, 0.0]])
    norms = np.linalg.norm(centroids, axis=1)
    assert (norms**2 / 2 > MAX32).tolist() == [False, True]
    assert abs(x @ centroids.T).max() < MAX32
    m = (3e18 + norms.max()) / 2
    assert util.screen_error(m, m, 2) == np.inf
    np.testing.assert_array_equal(assert_assign_exact(x, centroids), [1])


def test_assign_on_a_block_of_finite_and_non_finite_limits():
    # One block of near ties at unit scale, with a third of the rows scaled
    # to 1e20 and 1e40: their screens may overflow, so their limits are
    # non-finite and those rows rescored in full, while the others decide
    # on the screen.
    rng = np.random.default_rng(27)
    centroids = near_tie_rows(rng, 12, 8, 1.0)
    a = centroids[rng.integers(0, 12, size=300)]
    b = centroids[rng.integers(0, 12, size=300)]
    x = np.where(rng.random((300, 1)) < 0.5, a, (a + b) / 2)
    x *= rng.choice([1.0, 1.0, 1e20, 1e40], size=(300, 1))
    norm = (np.linalg.norm(x, axis=1) + np.linalg.norm(centroids, axis=1).max()) / 2
    finite = np.isfinite(util.screen_error(norm, norm, 8))
    assert finite.any() and not finite.all()
    assert_assign_exact(x, centroids)


def reference_lloyd(x, cfg):
    """`kmeans_fit` as a plain Lloyd loop whose assignment step is the
    exhaustive einsum scan, from the same seeding, respawns, `objective`
    and `label_sums`. Returns the result and the number of passes that
    respawned a cluster."""
    centroids = _init_centroids(x, cfg)
    trace, respawns = [], 0
    for _ in range(cfg.max_iters):
        labels = einsum_scan(x, centroids)
        counts = np.bincount(labels, minlength=cfg.k)
        respawns += int((counts == 0).any())
        _respawn_empty(x, centroids, labels, counts)
        trace.append(objective(x, centroids, labels))
        if len(trace) >= 2:
            if trace[-2] <= 0.0 or (trace[-2] - trace[-1]) / trace[-2] < cfg.tol:
                break
        elif trace[-1] == 0.0:
            break
        centroids = label_sums(x, labels, cfg.k) / counts[:, None]
    return ClusterResult(centroids, labels, trace, len(trace)), respawns


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=ROW_COUNTS, distinct=st.integers(2, 12), d=st.integers(1, 24),
       scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e4, 1e150] + FLOAT32_EDGES),
       k=st.integers(1, 16))
def test_kmeans_fit_matches_reference_lloyd_loop(seed, n, distinct, d, scale, k):
    # Points on or halfway between rows of the near-tie palette, so every
    # point has duplicates once n exceeds the distinct values, and a k
    # above them leaves clusters empty on every pass. The fit checks and
    # casts its points once for all passes; the reference starts each
    # pass from the float64 points alone.
    rng = np.random.default_rng(seed)
    rows = near_tie_rows(rng, distinct, d, scale)
    a = rows[rng.integers(0, distinct, size=n)]
    b = rows[rng.integers(0, distinct, size=n)]
    x = np.where(rng.random((n, 1)) < 0.5, a, (a + b) / 2)
    cfg = KMeansConfig(k=min(k, n), max_iters=5, tol=0.0, seed=seed)
    want, respawns = reference_lloyd(x, cfg)
    if cfg.k > len(np.unique(x, axis=0)):
        assert respawns == want.iterations_run
    for threads in (1, 3):
        got = kmeans_fit(x, cfg, threads=threads)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.assignments.tobytes() == want.assignments.tobytes()
        assert np.array(got.objective_trace).tobytes() == np.array(want.objective_trace).tobytes()
        assert got.iterations_run == want.iterations_run


TIE_VALUES = [-np.inf, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]


@st.composite
def wide_tied_sims(draw):
    """Up to 600 columns of TIE_VALUES under skewed weights, wide enough
    for `_top_k` to take its cut from column-group maxima."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(31, 600)))
    rng = np.random.default_rng(draw(SEEDS))
    return rng.choice(TIE_VALUES, size=shape, p=rng.dirichlet(np.full(len(TIE_VALUES), 0.3)))


TIED_SIMS = st.one_of(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 30)),
        elements=st.sampled_from(TIE_VALUES),
    ),
    wide_tied_sims(),
)


@settings(max_examples=300, deadline=None)
@given(sims=TIED_SIMS, data=st.data())
def test_top_k_is_a_stable_full_sort_prefix(sims, data):
    # Small depths often, so that the column groups hold several columns.
    # The screen moves each finite score by a multiple of delta / 4 up to
    # delta, exactly, so close screens reorder against the scores; the
    # result must follow the scores. With delta 0 screen and scores agree.
    n = sims.shape[1]
    depth = data.draw(st.one_of(st.integers(1, max(1, n // 8)), st.integers(1, n)))
    delta = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    rng = np.random.default_rng(data.draw(SEEDS))
    screen = sims + rng.integers(-4, 5, size=sims.shape) * (delta / 4)
    screen = screen.astype(data.draw(st.sampled_from([np.float32, np.float64])))
    want = np.argsort(-sims, axis=1, kind="stable")[:, :depth]
    np.testing.assert_array_equal(_top_k(screen, depth, delta, lambda r, c: sims[r, c]), want)


def exact_unit_vectors(rng, n):
    """Rows from a palette of 24 exactly unit 4-d vectors (signed basis
    vectors and all (+-1/2)^4), so every cosine is one of 0, +-1/2, +-1,
    computed without rounding in any order."""
    basis = np.concatenate([np.eye(4), -np.eye(4)])
    halves = 0.5 * np.array(np.meshgrid(*[[-1, 1]] * 4)).reshape(4, -1).T
    palette = np.concatenate([basis, halves])
    return palette[rng.integers(0, len(palette), size=n)].astype(np.float32)


def labeled(vectors, labels, prefix="i"):
    return EmbeddingSet(vectors, [f"{prefix}{j}" for j in range(len(vectors))], labels)


def full_sort_recall(embeddings, k):
    """Recall@k from a full stable argsort of the whole similarity matrix."""
    v = unit_rows(embeddings.vectors.astype(np.float64))
    sims = v @ v.T
    np.fill_diagonal(sims, -np.inf)
    ranking = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    same = embeddings.labels[ranking] == embeddings.labels[:, None]
    return float(int(same.any(axis=1).sum()) / embeddings.count)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n=ROW_COUNTS.filter(lambda n: n >= 4), classes=st.integers(1, 5),
       ks=st.lists(st.integers(1, 12), min_size=1, max_size=3))
def test_recall_on_tied_cosines(seed, n, classes, ks):
    rng = np.random.default_rng(seed)
    s = labeled(exact_unit_vectors(rng, n), np.arange(n) % min(classes, n // 2))
    want = {k: full_sort_recall(s, k) for k in ks}
    if n <= 40:
        assert want == {k: brute_force_recall(s, k) for k in ks}
    for threads in (1, 3):
        assert retrieval_report(s, ks, threads=threads).recall_at == want
        assert recall_at_k(s, ks[0], threads=threads) == want[ks[0]]


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, q=ROW_COUNTS.filter(lambda q: q <= BLOCK_ROWS + 1),
       g=st.integers(1, 130), classes=st.integers(1, 6))
def test_map_at_100_matches_oracle_on_tied_cosines(seed, q, g, classes):
    rng = np.random.default_rng(seed)
    queries = labeled(exact_unit_vectors(rng, q), np.arange(q) % classes, "q")
    gallery = labeled(exact_unit_vectors(rng, g), np.arange(g) % classes, "g")
    want = brute_force_map100(queries, gallery)
    for threads in (1, 3):
        assert map_at_100(queries, gallery, threads=threads) == want


def einsum_ranking(queries, gallery, depth):
    """Each query's `depth` nearest gallery rows from a stable sort of the
    exact cosines einsum("ij,ij->i") of every pair of float64 unit rows;
    a gallery of None ranks the queries against each other, self excluded."""
    g = queries if gallery is None else gallery
    i, j = np.divmod(np.arange(len(queries) * len(g)), len(g))
    cos = np.einsum("ij,ij->i", queries[i], g[j]).reshape(len(queries), len(g))
    if gallery is None:
        np.fill_diagonal(cos, -np.inf)
    return np.argsort(-cos, axis=1, kind="stable")[:, :depth]


def einsum_recall(s, ks):
    v = unit_rows(s.vectors.astype(np.float64))
    same = s.labels[einsum_ranking(v, None, min(max(ks), s.count - 1))] == s.labels[:, None]
    return {k: float(int(same[:, :k].any(axis=1).sum()) / s.count) for k in ks}


def einsum_map100(queries, gallery):
    qv = unit_rows(queries.vectors.astype(np.float64))
    gv = unit_rows(gallery.vectors.astype(np.float64))
    tops = einsum_ranking(qv, gv, min(100, gallery.count))
    aps = []
    for q, top in enumerate(tops):
        relevant = int(np.sum(gallery.labels == queries.labels[q]))
        if relevant:
            rel = gallery.labels[top] == queries.labels[q]
            hits = np.cumsum(rel)
            aps.append(math.fsum(hits[r] / (r + 1) for r in np.flatnonzero(rel)) / min(relevant, 100))
    return math.fsum(aps) / len(aps) if aps else None


@st.composite
def near_tie_embeddings(draw):
    """Float32 rows with injected near-ties: each row is kept, or replaced
    by a duplicate of another row, that row one float32 ulp up in every
    coordinate, twice that row (the same unit row), or the midpoint of two
    rows. Few dimensions make exact ties common too."""
    n, d = draw(st.sampled_from([2, 3, 8, 40, 101, 150])), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(SEEDS))
    base = rng.standard_normal((n, d)).astype(np.float32)
    src, other = rng.integers(0, n, size=(2, n))
    derived = [base, base[src], np.nextafter(base[src], np.float32(np.inf)), base[src] * 2,
               (base[src] + base[other]) / 2]
    kind = rng.integers(0, len(derived), size=n)
    vectors = np.choose(kind[:, None], derived)
    keep = np.linalg.norm(vectors, axis=1) > 0
    vectors, n = vectors[keep], int(keep.sum())
    classes = max(1, min(draw(st.integers(1, 5)), n // 2))
    return labeled(vectors, rng.permutation(np.arange(n) % classes))


@settings(max_examples=40, deadline=None)
@given(s=near_tie_embeddings(), ks=st.lists(st.integers(1, 160), min_size=1, max_size=3))
def test_ranking_is_exact_whatever_the_blocks_and_threads(s, ks):
    assume(s.count >= 2)
    is_query = np.arange(s.count) % 3 == 0
    queries, gallery = (
        labeled(s.vectors[m], s.labels[m], prefix) for m, prefix in ((is_query, "q"), (~is_query, "g"))
    )
    v = unit_rows(s.vectors.astype(np.float64))
    depth = min(max(ks), s.count - 1)
    want_recall, want_map = einsum_recall(s, ks), einsum_map100(queries, gallery)
    want_tops = einsum_ranking(v, None, depth)
    blocks = [(b, h) for b in (1, 7, RANK_ROWS, s.count) for h in sorted({1, 7, b}) if h <= b]
    for block, slab in blocks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "RANK_ROWS", block)
            mp.setattr(evaluation, "SLAB_ROWS", slab)
            for threads in (1, 3):
                np.testing.assert_array_equal(_ranking(s.vectors, None, depth, threads), want_tops)
                assert retrieval_report(s, ks, threads=threads).recall_at == want_recall
                if want_map is None:
                    with pytest.raises(ValidationError):
                        map_at_100(queries, gallery, threads=threads)
                else:
                    assert map_at_100(queries, gallery, threads=threads) == want_map


def column_major_update(cols, st_, lr, grad_sub, subset, mask):
    """The sparse prototype update on (d, k) columns and (d, k) optimizer
    state, as it was before prototypes were stored class-major, with the
    AdamW step grouped as lr * (mh / den), like the encoder's, with
    per-class step counts, and with the masked
    sub-vector rescaled by norms summed over C-ordered (|S|, |mask|) rows."""
    mask_idx = np.flatnonzero(mask)
    ix = np.ix_(mask_idx, subset)
    sub = cols[ix]
    g = grad_sub[:, mask_idx].T  # (|mask|, |S|)
    st_["t"][subset] += 1
    t = st_["t"][subset]
    st_["m"][ix] = _ADAM_BETA1 * st_["m"][ix] + (1 - _ADAM_BETA1) * g
    st_["v"][ix] = _ADAM_BETA2 * st_["v"][ix] + (1 - _ADAM_BETA2) * g * g
    mh = st_["m"][ix] / (1 - _ADAM_BETA1**t)[None, :]
    vh = st_["v"][ix] / (1 - _ADAM_BETA2**t)[None, :]
    sub = sub - lr * (mh / (np.sqrt(vh) + _ADAM_EPS))

    old, new = np.ascontiguousarray(cols[ix].T), np.ascontiguousarray(sub.T)  # (|S|, |mask|)
    target = np.sqrt(np.add.reduce(old * old, axis=1))
    cur = np.sqrt(np.add.reduce(new * new, axis=1))
    if np.any(cur < 1e-12):
        raise DegenerateVectorError("prototype update collapsed a masked sub-vector")
    cols[ix] = (new / cur[:, None] * target[:, None]).T


def _raised(fn, *args):
    try:
        fn(*args)
    except DegenerateVectorError:
        return True
    return False


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, k=st.integers(2, 40), d=st.integers(1, 20),
       r2=st.sampled_from([0.3, 0.5, 0.8, 1.0]), steps=st.integers(1, 4),
       fortran=st.booleans())
def test_class_major_update_matches_column_major(seed, k, d, r2, steps, fortran):
    rng = np.random.default_rng(seed)
    init = rng.standard_normal((k, d))
    # Rows are normalized in C order, whatever the memory order given.
    protos = PrototypeMatrix(np.asfortranarray(init) if fortran else init)
    assert protos.rows.tobytes() == (init / np.linalg.norm(init, axis=1)[:, None]).tobytes()
    cols = protos.rows.T.copy()

    lr = 0.05
    cfg = TrainConfig(lr=lr)
    trainer = Trainer(LinearEncoder.identity(d), protos, cfg)
    names = ["m", "v"]
    ref = {name: np.zeros((d, k)) for name in names}
    ref["t"] = np.zeros(k, dtype=np.int64)
    for _ in range(steps):
        subset = np.sort(rng.choice(k, size=rng.integers(1, k + 1), replace=False))
        keep = max(1, ratio_count(d, r2))
        mask = np.zeros(d, dtype=bool)
        mask[rng.choice(d, size=keep, replace=False)] = True
        grad = rng.standard_normal((subset.size, d)) * mask
        before = {"rows": protos.rows.copy()}
        before.update({n: a.copy() for n, a in zip(names, trainer._proto_moments)})

        ref_raised = _raised(column_major_update, cols, ref, lr, grad, subset, mask)
        assert _raised(trainer._update_prototypes, grad, subset, mask) == ref_raised

        assert protos.rows.T.tobytes() == cols.tobytes()
        for name, got in zip(names, trainer._proto_moments):
            assert got.T.tobytes() == ref[name].tobytes()
        assert trainer._proto_steps.tobytes() == ref["t"].tobytes()
        # Rows outside the subset and coordinates outside the mask keep
        # their exact bits, in the prototypes and in every moment.
        outside = np.setdiff1d(np.arange(k), subset)
        after = {"rows": protos.rows}
        after.update(zip(names, trainer._proto_moments))
        for name, array in after.items():
            assert array[outside].tobytes() == before[name][outside].tobytes()
            assert array[np.ix_(subset, ~mask)].tobytes() == before[name][np.ix_(subset, ~mask)].tobytes()
        if ref_raised:
            break


def setdiff_sample_classes(labels, num_classes, r1, seed, step):
    """The class sampler as it was: a uniform draw from the explicit
    O(k) list of non-positive classes."""
    positives = np.unique(np.asarray(labels, dtype=np.int64))
    target = max(ratio_count(num_classes, r1), positives.size)
    need = target - positives.size
    if need == 0:
        return positives
    negatives = np.setdiff1d(np.arange(num_classes, dtype=np.int64), positives)
    rng = stream_rng(seed, "class-sample", step)
    sampled = rng.choice(negatives, size=need, replace=False)
    return np.sort(np.concatenate([positives, sampled]))


def drawn_feature_mask(dim, r2, seed, step):
    """The feature mask as it was: always drawn, also when it keeps every
    coordinate."""
    mask = np.zeros(dim, dtype=bool)
    rng = stream_rng(seed, "feature-mask", step)
    mask[rng.choice(dim, size=ratio_count(dim, r2), replace=False)] = True
    return mask


# Beyond 10,000 classes numpy's choice switches from Floyd's algorithm to
# a partial shuffle once the draw is large enough.
@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, step=st.integers(0, 2**40),
       k=st.one_of(st.integers(2, 60), st.sampled_from([1000, 10001, 12000])),
       r1=st.sampled_from([1e-6, 0.02, 0.1, 0.5, 0.97, 1.0]),
       batch=st.integers(1, 64), crowded=st.booleans())
def test_sample_classes_matches_setdiff_sampler(seed, step, k, r1, batch, crowded):
    rng = np.random.default_rng(seed)
    # Crowded batches draw their labels from a few classes near the ends
    # of the range, so positives cluster there.
    pool = np.r_[0:3, k - 3:k] % k if crowded else np.arange(k)
    labels = rng.choice(pool, size=batch)
    got = sample_classes(labels, k, r1, seed, step)
    want = setdiff_sample_classes(labels, k, r1, seed, step)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_sample_classes_edge_cases_match_setdiff_sampler():
    # need == 0: the positives alone already reach the target.
    labels = np.array([0, 3, 5, 5])
    np.testing.assert_array_equal(sample_classes(labels, 10, 0.1, 1, 2), [0, 3, 5])
    # r1 = 1 selects every class without a draw.
    for k, labels in ((10, np.array([9])), (10, np.arange(10)), (2, np.array([1]))):
        got = sample_classes(labels, k, 1.0, 4, 7)
        np.testing.assert_array_equal(got, np.arange(k))
        np.testing.assert_array_equal(got, setdiff_sample_classes(labels, k, 1.0, 4, 7))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, step=st.integers(0, 2**40), dim=st.integers(1, 300),
       r2=st.sampled_from([0.25, 0.5, 0.999, 1.0]))
def test_sample_feature_mask_matches_drawn_mask(seed, step, dim, r2):
    if ratio_count(dim, r2) < 1:
        return
    got = sample_feature_mask(dim, r2, seed, step)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, drawn_feature_mask(dim, r2, seed, step))


SUM_PALETTE = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.0, -1.0, 1 / 3, 1e16, -1e16, 1e308]
SUM_VALUES = st.sampled_from(SUM_PALETTE)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=st.integers(0, 40), d=st.integers(1, 6), k=st.integers(1, 12),
       palette=st.booleans(), tall=st.booleans(),
       dtype=st.sampled_from([np.float64, np.float32]), data=st.data())
def test_label_sums_match_add_at(seed, n, d, k, palette, tall, dtype, data):
    rng = np.random.default_rng(seed)
    if tall:
        # More than LABEL_SUM_ENTRIES // d rows, so at d >= 2 the columns
        # are summed in blocks narrower than d, the last one narrower still.
        n += LABEL_SUM_ENTRIES // d + 1
        d = max(d, 2)
    if palette and not tall:
        # Signed zeros, subnormals, cancellation and overflow to inf.
        x = np.array(data.draw(st.lists(SUM_VALUES, min_size=n * d, max_size=n * d))).reshape(n, d)
    elif palette:
        x = np.array(SUM_PALETTE)[rng.integers(0, len(SUM_PALETTE), size=(n, d))]
    else:
        x = rng.standard_normal((n, d))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        x = x.astype(dtype)
        # Labels below k // 2 + 1 only, so the upper classes stay empty.
        labels = rng.integers(0, k // 2 + 1, size=n)
        want = np.zeros((k, d))
        np.add.at(want, labels, x.astype(np.float64))
        got = label_sums(x, labels, k)
    assert got.shape == (k, d)
    assert got.tobytes() == want.tobytes()


def whole_array_synth(spec):
    """synth_conflict_dataset as it was before it streamed blocks of rows:
    the whole float64 sample array at once, and one scan of all labels per
    conflicted class."""
    c, m, d = spec.true_classes, spec.per_class, spec.dim
    n = c * m
    centers = unit_rows(stream_rng(spec.seed, "synth-centers").standard_normal((c, d)))
    truth = np.repeat(np.arange(c, dtype=np.int64), m)
    noise_rng = stream_rng(spec.seed, "synth-noise")
    samples = centers[truth]
    if spec.intra_noise > 0:
        samples = samples + spec.intra_noise * noise_rng.standard_normal((n, d))
    samples = unit_rows(samples)
    pseudo = truth.copy()
    n_conflict = ratio_count(c, spec.conflict_ratio)
    if n_conflict > 0:
        conflict_rng = stream_rng(spec.seed, "synth-conflict")
        chosen = np.sort(conflict_rng.choice(c, size=n_conflict, replace=False))
        for j, cls in enumerate(chosen):
            members = np.flatnonzero(truth == cls)
            shuffled = conflict_rng.permutation(members)
            pseudo[shuffled[len(members) // 2 :]] = c + j
    ids = [f"sample-{i:08d}" for i in range(n)]
    return samples.astype(np.float32), pseudo, truth, ids


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS,
       rows=st.sampled_from([4, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 5]),
       per_class=st.integers(2, 7), dim=st.sampled_from([1, 2, 3, 8, 9, 17, 128]),
       noise=st.sampled_from([0.0, 0.1, 0.7]), conflict=st.sampled_from([0.0, 0.3, 1.0]))
@example(seed=0, rows=BLOCK_ROWS, per_class=2, dim=9, noise=0.1, conflict=0.3)  # n at a block edge
@example(seed=0, rows=2 * BLOCK_ROWS, per_class=2, dim=3, noise=0.0, conflict=1.0)
@example(seed=0, rows=BLOCK_ROWS + 1, per_class=3, dim=17, noise=0.7, conflict=1.0)  # n = 513
@example(seed=1, rows=4, per_class=BLOCK_ROWS + 1, dim=2, noise=0.1, conflict=1.0)  # a class a block
def test_streamed_synth_matches_whole_array_synth(seed, rows, per_class, dim, noise, conflict):
    spec = SyntheticSpec(
        true_classes=max(2, rows // per_class), per_class=per_class, dim=dim,
        intra_noise=noise, conflict_ratio=conflict, seed=seed,
    )
    samples, truth = synth_conflict_dataset(spec)
    vectors, pseudo, want_truth, ids = whole_array_synth(spec)
    assert samples.vectors.tobytes() == vectors.tobytes()
    assert samples.labels.tobytes() == pseudo.tobytes()
    assert truth.tobytes() == want_truth.tobytes()
    assert samples.ids == ids


@st.composite
def uceb_files(draw):
    """The bytes of a small valid UCEB file, with or without labels."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    vectors = draw(hnp.arrays(np.float32, (n, d), elements=st.floats(-2, 2, width=32)))
    ids = draw(st.lists(st.text(max_size=6), min_size=n, max_size=n, unique=True))
    labels = draw(st.none() | st.lists(st.integers(0, 5), min_size=n, max_size=n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.uceb"
        save_embeddings(EmbeddingSet(vectors, ids, labels), path)
        return path.read_bytes()


@st.composite
def corrupt_uceb(draw):
    """A valid file cut short, with a few bytes overwritten, with a junk
    tail after a valid prefix, or plain random bytes."""
    blob = bytearray(draw(uceb_files()))
    kind = draw(st.sampled_from(["truncate", "mutate", "tail", "random"]))
    if kind == "truncate":
        return bytes(blob[: draw(st.integers(0, len(blob) - 1))])
    if kind == "mutate":
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        return bytes(blob)
    if kind == "tail":
        return bytes(blob[: draw(st.integers(0, len(blob)))]) + draw(st.binary(min_size=1, max_size=40))
    return draw(st.binary(max_size=80))


@settings(max_examples=400, deadline=None)
@given(blob=corrupt_uceb())
def test_corrupt_uceb_raises_only_documented_errors(blob):
    # A corrupt file is a format error. A well-formed file may still break
    # an EmbeddingSet rule (non-finite vector, negative label, repeated id).
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.uceb"
        path.write_bytes(blob)
        try:
            loaded = load_embeddings(path)
        except (UcebFormatError, ValidationError, DuplicateIdError):
            return
    assert isinstance(loaded, EmbeddingSet)


class ReferenceTrainer:
    """The training step as it was before it was rewritten with in-place
    arithmetic and fewer numpy calls: `Trainer.step` and everything under
    it, copied verbatim apart from the names and the prototype AdamW step,
    which is grouped as lr * (mh / den), like the encoder's, since both
    share one optimizer step, the per-class step counts, and the rescale of each masked sub-vector to its old norm.
    It still applies dropout outside the loss, on `full_plan`, and reports
    the gradient chained through the keep mask as `grad_embeddings`.
    Every output of the current step must equal this one's bit for bit."""

    def __init__(self, encoder, prototypes, cfg):
        self.encoder, self.prototypes, self.cfg = encoder, prototypes, cfg
        self.step_count = 0
        w, rows = encoder.weights, prototypes.rows
        self._enc_state = {"m": np.zeros_like(w), "v": np.zeros_like(w), "t": 0}
        self._proto_state = {
            "m": np.zeros_like(rows),
            "v": np.zeros_like(rows),
            "t": np.zeros(prototypes.classes, dtype=np.int64),
        }

    @staticmethod
    def _encode_cache(weights, inputs):
        x = np.asarray(inputs, dtype=np.float64)
        z = x @ weights
        norms = np.linalg.norm(z, axis=1)
        if np.any(norms < 1e-12):
            raise DegenerateVectorError("encoder produced a zero-norm projection row")
        return z, norms, z / norms[:, None]

    @staticmethod
    def _masked_unit(vectors):
        norms = np.sqrt(np.add.reduce(vectors * vectors, axis=1))
        if np.any(norms < 1e-12):
            raise DegenerateVectorError("zero-norm masked sub-vector")
        return norms, vectors / norms[:, None]

    def _selection_loss(self, embeddings, labels, plan, cfg):
        e = np.asarray(embeddings, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        b, d = e.shape
        mask = np.asarray(plan.feature_mask, dtype=bool)
        subset = np.asarray(plan.class_subset, dtype=np.int64)
        pos_idx = np.searchsorted(subset, labels)
        if np.any(pos_idx >= subset.size) or np.any(subset[np.minimum(pos_idx, subset.size - 1)] != labels):
            raise ValidationError("a batch label is outside the selected class subset")

        u = e * mask
        u_norm, u_hat = self._masked_unit(u)
        v = self.prototypes.rows[subset] * mask
        v_norm, v_hat = self._masked_unit(v)

        cos = u_hat @ v_hat.T
        cos = np.clip(cos, -1.0, 1.0)
        logits = cfg.scale * cos
        rows = np.arange(b)

        margin_factor = None
        if cfg.margin > 0.0:
            cos_m, sin_m = math.cos(cfg.margin), math.sin(cfg.margin)
            boundary = math.cos(math.pi - cfg.margin)
            c_pos = cos[rows, pos_idx]
            sin_pos = np.sqrt(np.clip(1.0 - c_pos * c_pos, 0.0, None))
            in_range = c_pos > boundary
            phi = np.where(
                in_range,
                c_pos * cos_m - sin_pos * sin_m,
                c_pos - cfg.margin * sin_m,
            )
            logits[rows, pos_idx] = cfg.scale * phi
            safe_sin = np.maximum(sin_pos, 1e-12)
            margin_factor = np.where(in_range, cos_m + sin_m * c_pos / safe_sin, 1.0)

        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        denom = exp.sum(axis=1)
        probs = exp / denom[:, None]
        loss = float(np.mean(np.log(denom) - shifted[rows, pos_idx]))

        dlogits = probs.copy()
        dlogits[rows, pos_idx] -= 1.0
        dlogits /= b
        dcos = dlogits * cfg.scale
        if margin_factor is not None:
            dcos[rows, pos_idx] *= margin_factor

        g_u_hat = dcos @ v_hat
        grad_e = (g_u_hat - np.sum(g_u_hat * u_hat, axis=1, keepdims=True) * u_hat) / u_norm[:, None]
        g_v_hat = dcos.T @ u_hat
        grad_w = (g_v_hat - np.sum(g_v_hat * v_hat, axis=1, keepdims=True) * v_hat) / v_norm[:, None]
        return LossOutput(loss=loss, probs=probs, grad_embeddings=grad_e, grad_prototypes=grad_w)

    def _backward(self, inputs, labels, plan):
        z, norms, e = self._encode_cache(self.encoder.weights, inputs)
        r3 = self.cfg.loss.r3
        if r3 is None:
            out = self._selection_loss(e, labels, plan, self.cfg.loss)
            g = out.grad_embeddings
        else:
            keep = feature_dropout_mask(e.shape, r3, self.cfg.loss.seed, self.step_count)
            out = self._selection_loss(e * keep / (1.0 - r3), labels, plan, self.cfg.loss)
            g = out.grad_embeddings = out.grad_embeddings * keep / (1.0 - r3)
        grad_z = (g - np.sum(g * e, axis=1, keepdims=True) * e) / norms[:, None]
        grad_w = np.asarray(inputs, dtype=np.float64).T @ grad_z
        return out, grad_w

    def _update_encoder(self, grad):
        cfg, st = self.cfg, self._enc_state
        w = self.encoder.weights
        st["t"] += 1
        st["m"] = _ADAM_BETA1 * st["m"] + (1 - _ADAM_BETA1) * grad
        st["v"] = _ADAM_BETA2 * st["v"] + (1 - _ADAM_BETA2) * grad * grad
        mh = st["m"] / (1 - _ADAM_BETA1 ** st["t"])
        vh = st["v"] / (1 - _ADAM_BETA2 ** st["t"])
        w -= cfg.lr * (mh / (np.sqrt(vh) + _ADAM_EPS) + cfg.weight_decay * w)

    def _update_prototypes(self, grad_sub, subset, mask):
        cfg, st = self.cfg, self._proto_state
        mask_idx = np.flatnonzero(mask)
        flat = (subset[:, None] * self.prototypes.dim + mask_idx).ravel()

        def update(array, fn):
            entries = array.reshape(-1)
            new = fn(entries[flat].reshape(subset.size, mask_idx.size))
            entries[flat] = new.ravel()
            return new

        g = np.take(grad_sub, mask_idx, axis=1)
        st["t"][subset] += 1
        t = st["t"][subset][:, None]
        m = update(st["m"], lambda old: _ADAM_BETA1 * old + (1 - _ADAM_BETA1) * g)
        v = update(st["v"], lambda old: _ADAM_BETA2 * old + (1 - _ADAM_BETA2) * g * g)
        mh = m / (1 - _ADAM_BETA1**t)
        vh = v / (1 - _ADAM_BETA2**t)
        delta = cfg.lr * (mh / (np.sqrt(vh) + _ADAM_EPS))

        def rescaled(old):
            sub = old - delta
            target = np.sqrt(np.add.reduce(old * old, axis=1))
            cur = np.sqrt(np.add.reduce(sub * sub, axis=1))
            if np.any(cur < 1e-12):
                raise DegenerateVectorError("prototype update collapsed a masked sub-vector")
            return sub / cur[:, None] * target[:, None]

        update(self.prototypes.rows, rescaled)

    def step(self, inputs, labels, plan=None):
        labels = np.asarray(labels, dtype=np.int64)
        if self.cfg.loss.r3 is not None:
            plan = full_plan(self.prototypes.classes, self.prototypes.dim)
        elif plan is None:
            plan = make_selection_plan(
                labels, self.prototypes.classes, self.prototypes.dim,
                self.cfg.loss, self.step_count,
            )
        out, grad_enc = self._backward(inputs, labels, plan)
        if not np.isfinite(out.loss):
            raise NonFiniteLossError(f"step {self.step_count} produced a non-finite loss {out.loss}")
        if self.cfg.lr > 0:
            self._update_encoder(grad_enc)
            self._update_prototypes(out.grad_prototypes, plan.class_subset, plan.feature_mask)
        self.step_count += 1
        return out.loss


def recorded_step(trainer, x, labels):
    """Run trainer.step and return everything it produced and holds, as
    bytes: the loss, the loss output, the encoder gradient, the
    parameters and every optimizer-state array."""
    seen = []
    backward = trainer._backward

    def recording(*args):
        result = backward(*args)
        seen.append(result)
        return result

    trainer._backward = recording
    try:
        loss = trainer.step(x, labels)
    except (DegenerateVectorError, NonFiniteLossError) as exc:
        return type(exc)
    finally:
        del trainer._backward
    (out, grad_w), = seen
    arrays = [out.probs, out.grad_embeddings, out.grad_prototypes, grad_w,
              trainer.encoder.weights, trainer.prototypes.rows]
    if isinstance(trainer, ReferenceTrainer):
        arrays += [np.asarray(st[n]) for st in (trainer._enc_state, trainer._proto_state)
                   for n in ("m", "v", "t")]
    else:
        arrays += [*trainer._enc_moments, np.int64(trainer._enc_steps),
                   *trainer._proto_moments, trainer._proto_steps]
    return [np.float64(loss).tobytes(), trainer.step_count] + [
        (a.shape, a.dtype.str, a.tobytes()) for a in arrays
    ]


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, k=st.integers(2, 12), d=st.integers(1, 9), d_in=st.integers(1, 7),
       b=st.integers(1, 9),
       margin=st.sampled_from([0.0, 0.3, 3.0]), r1=st.sampled_from([0.3, 0.5, 1.0]),
       r2=st.sampled_from([0.5, 0.8, 1.0]), r3=st.sampled_from([None, 0.3]),
       lr=st.sampled_from([0.0, 0.01, 0.3]), weight_decay=st.sampled_from([0.0, 0.05]),
       fortran=st.booleans(), steps=st.integers(1, 4))
def test_lean_step_matches_reference_step(seed, k, d, d_in, b, margin, r1, r2, r3,
                                          lr, weight_decay, fortran, steps):
    if ratio_count(d, r2) < 1:
        return
    rng = np.random.default_rng(seed)
    init = rng.standard_normal((k, d))
    weights = rng.standard_normal((d_in, d))
    cfg = TrainConfig(lr=lr, weight_decay=weight_decay,
                      loss=LossConfig(margin=margin, scale=8.0, r1=r1, r2=r2, r3=r3, seed=seed % 97))
    trainer = Trainer(LinearEncoder(weights), PrototypeMatrix(init), cfg)
    reference = ReferenceTrainer(LinearEncoder(weights), PrototypeMatrix(init), cfg)
    for _ in range(steps):
        x = rng.standard_normal((b, d_in))
        x = np.asfortranarray(x) if fortran else x
        labels = rng.integers(0, k, size=b)
        want = recorded_step(reference, x, labels)
        assert recorded_step(trainer, x, labels) == want
        if not isinstance(want, list):
            break


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
@pytest.mark.parametrize("r1", [0.5, 1.0])
@pytest.mark.parametrize("r2", [0.5, 1.0])
def test_blocked_prototype_step_matches_reference_step(weight_decay, r1, r2):
    # 1,250 or 2,500 selected rows of 8 or 16 masked entries are several
    # blocks of the prototype step, against one in the property above.
    # Full masks move whole rows, half masks flat positions; at r1 = 0.5
    # the classes of one block differ in their step counts.
    rng = np.random.default_rng(5)
    k, d, b = 2500, 16, 64
    init = rng.standard_normal((k, d))
    weights = rng.standard_normal((d, d))
    cfg = TrainConfig(lr=0.01, weight_decay=weight_decay,
                      loss=LossConfig(r1=r1, r2=r2, seed=3))
    trainer = Trainer(LinearEncoder(weights), PrototypeMatrix(init), cfg)
    reference = ReferenceTrainer(LinearEncoder(weights), PrototypeMatrix(init), cfg)
    for _ in range(3):
        x = rng.standard_normal((b, d))
        labels = rng.integers(0, k, size=b)
        want = recorded_step(reference, x, labels)
        assert isinstance(want, list)
        assert recorded_step(trainer, x, labels) == want
