"""Central finite-difference verification of the analytic gradients.

Used both by the test suite and the `gradcheck` CLI command. The checker
perturbs every embedding coordinate and every selected prototype
coordinate of random loss instances and compares the numeric slope with
the analytic gradient at a configurable relative tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .losses import LossConfig, PrototypeMatrix, make_selection_plan, selection_backward
from .util import unit_rows

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-5


def finite_difference(f, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f at x, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    base = x.copy()
    for i in range(base.size):
        orig = base.reshape(-1)[i]
        base.reshape(-1)[i] = orig + step
        hi = f(base)
        base.reshape(-1)[i] = orig - step
        lo = f(base)
        base.reshape(-1)[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max over coordinates of |a - n| / max(1, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(n))))


@dataclass
class GradCheckReport:
    trials: int
    tolerance: float
    max_error: float = 0.0
    failures: int = 0

    @property
    def passed(self) -> bool:
        return self.failures == 0


def random_instance(rng: np.random.Generator):
    """A random small loss instance: margin, subset and mask, or dropout."""
    b = int(rng.integers(1, 5))
    d = int(rng.integers(6, 17))
    k = int(rng.integers(4, 33))
    embeddings = unit_rows(rng.standard_normal((b, d)))
    labels = rng.integers(0, k, size=b)
    prototypes = PrototypeMatrix(rng.standard_normal((k, d)))
    cfg = LossConfig(
        margin=float(rng.uniform(0.1, 0.5)),
        scale=float(rng.uniform(1.0, 8.0)),
        r1=float(rng.uniform(0.3, 1.0)),
        r2=float(rng.uniform(0.5, 1.0)),
        seed=int(rng.integers(0, 2**31)),
        r3=float(rng.uniform(0.1, 0.5)) if rng.random() < 0.5 else None,
    )
    step = int(rng.integers(0, 1000))
    plan = make_selection_plan(labels, k, d, cfg, step)
    return embeddings, labels, prototypes, plan, cfg


def check_selection_gradients(
    trials: int = 100,
    tolerance: float = DEFAULT_TOL,
    seed: int = 0,
    fd_step: float = DEFAULT_STEP,
) -> GradCheckReport:
    """Compare analytic selection-loss gradients against finite differences."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValidationError("tolerance must be finite and >= 0")
    if not (math.isfinite(fd_step) and fd_step > 0):
        raise ValidationError("fd_step must be finite and > 0")
    rng = np.random.default_rng(seed)
    report = GradCheckReport(trials=trials, tolerance=tolerance)
    for _ in range(trials):
        embeddings, labels, prototypes, plan, cfg = random_instance(rng)
        out = selection_backward(embeddings, labels, prototypes, plan, cfg)

        def loss_of_embeddings(e):
            return selection_backward(e, labels, prototypes, plan, cfg).loss

        def loss_of_selected(w_sub, subset=plan.class_subset):
            # The loss renormalizes masked sub-vectors, so it is invariant
            # to the row rescaling done by the PrototypeMatrix ctor.
            rows = prototypes.rows.copy()
            rows[subset] = w_sub
            return selection_backward(embeddings, labels, PrototypeMatrix(rows), plan, cfg).loss

        num_e = finite_difference(loss_of_embeddings, embeddings, fd_step)
        w_sub = prototypes.rows[plan.class_subset]
        num_w = finite_difference(loss_of_selected, w_sub, fd_step)

        err = max(
            max_relative_error(out.grad_embeddings, num_e),
            max_relative_error(out.grad_prototypes, num_w),
        )
        report.max_error = max(report.max_error, err)
        if not err <= tolerance:  # a NaN error fails too
            report.failures += 1
    return report
