"""Differentiable transferability and target-embedding optimization.

The f-otce pipeline (cost -> fixed number of Sinkhorn updates -> plan ->
joint label distribution -> negative conditional entropy) is replayed
with a fixed iteration count K and no early stopping, and its exact
reverse-mode derivative with respect to the target embeddings is
accumulated by walking the same K updates backwards. The Sinkhorn part
is :func:`otce.ot.unrolled_sinkhorn`, which drives the solver's own
update rule, so the value equals ``f_otce`` evaluated with exactly K
iterations; this module adds the entropy's adjoint and the chain rule
from cost to target embeddings. Everything runs in float64.

Gradient ascent on that value moves raw target embeddings (source
embeddings stay frozen) toward configurations where target labels are
more predictable from source labels. A nearest-centroid probe stands in
for downstream classifier accuracy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import FeatureSet
from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    IoFailure,
    MissingClass,
    NonFiniteGradient,
    NonFiniteValue,
    NumericalOverflow,
)
from .metrics import _aggregate_joint, _class_counts, _entropy_and_adjoint
from .ot import SinkhornConfig, _check_integer, squared_euclidean_cost, unrolled_sinkhorn

__all__ = [
    "GradConfig",
    "OptimizationResult",
    "f_otce_value_and_grad",
    "optimize_target_embeddings",
    "nearest_centroid_probe",
    "write_trace",
]

# A step counts as divergent when the traced score drops by more than
# this; this many in a row aborts the run.
_DIVERGENCE_DROP = 0.1
_DIVERGENCE_RUN = 10


@dataclass(frozen=True)
class GradConfig:
    """Optimization knobs.

    unroll_iterations is the fixed Sinkhorn iteration count K inside the
    differentiated pipeline (the sinkhorn config's own iteration cap and
    tolerance do not apply there; there is no early stopping to keep the
    computational graph fixed). Batches are drawn without replacement
    per epoch from the seeded stream.
    """

    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    unroll_iterations: int = 100
    learning_rate: float = 0.01
    steps: int = 100
    source_batch: int = 256
    target_batch: int = 25
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("unroll_iterations", self.unroll_iterations, 1)
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        _check_integer("steps", self.steps, 0)
        _check_integer("source_batch", self.source_batch, 1)
        _check_integer("target_batch", self.target_batch, 1)
        _check_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class OptimizationResult:
    """Optimized target embeddings plus the per-step ascent trace.

    trace has one row per step: (step index, batch f-otce value, L2 norm
    of the batch gradient).
    """

    target: FeatureSet
    trace: np.ndarray


def f_otce_value_and_grad(
    xs: np.ndarray,
    ys: np.ndarray,
    xt: np.ndarray,
    yt: np.ndarray,
    config: GradConfig | None = None,
) -> tuple[float, np.ndarray]:
    """f-otce through exactly K Sinkhorn iterations, and d(value)/d(xt).

    The gradient is the exact reverse-mode derivative of the unrolled
    K-iteration graph; source embeddings are treated as constants.

    Raises:
        DimensionMismatch: features are not 2-D, differ in dimension or
            are empty, or the labels do not fit them.
        LabelOutOfRange: labels are not integers or are negative.
        NonFiniteValue: a feature is NaN or infinite.
        NonFiniteGradient: the pipeline produced NaN/inf (plain-scaling
            iterations with a lambda too small for the instance; retry
            with log_domain=True).
    """
    config = config or GradConfig()
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    ys = np.asarray(ys)
    yt = np.asarray(yt)
    if not (np.isfinite(xs).all() and np.isfinite(xt).all()):
        raise NonFiniteValue("features must be finite")
    cost = squared_euclidean_cost(xs, xt)
    if not cost.size:
        raise DimensionMismatch(f"need at least one sample on each side, got cost {cost.shape}")
    cs, ct = _class_counts(ys, yt, cost.shape)
    lam = config.sinkhorn.lam
    try:
        plan, pullback = unrolled_sinkhorn(cost, config.sinkhorn, config.unroll_iterations)
    except NumericalOverflow as exc:
        raise NonFiniteGradient(str(exc)) from exc
    value, djoint = _entropy_and_adjoint(_aggregate_joint(plan, ys, yt, cs, ct))
    # Through the label aggregation, each sample pair takes the adjoint
    # of its label cell.
    dcost = pullback(djoint[ys][:, yt])

    # cost[i, j] = ||xs_i - xt_j||^2  =>  d cost / d xt_j = 2 (xt_j - xs_i)
    grad = 2.0 * (dcost.sum(axis=0)[:, None] * xt - dcost.T @ xs)
    if not np.isfinite(grad).all() or not np.isfinite(value):
        raise NonFiniteGradient(
            f"non-finite gradient (lam={lam!r}); retry with log_domain=True"
        )
    return value, grad


def optimize_target_embeddings(
    src: FeatureSet, tgt: FeatureSet, config: GradConfig
) -> OptimizationResult:
    """Gradient ascent of f-otce over the target embedding matrix.

    Source embeddings are frozen. Each step draws one source and one
    target mini-batch (without replacement within an epoch, reshuffling
    between epochs from the seeded stream), evaluates the batch value
    and gradient through K unrolled iterations, and updates the batch's
    target rows in place. Labels are untouched.

    Raises:
        DivergenceDetected: the traced batch score fell by more than 0.1
            on each of 10 consecutive steps.
        NonFiniteGradient: propagated from the gradient pipeline.
    """
    if src.dim != tgt.dim:
        raise DimensionMismatch(
            f"feature dimensions differ: source {src.dim} vs target {tgt.dim}"
        )
    rng = np.random.Generator(np.random.Philox(config.seed))
    xt = tgt.features.copy()
    xs = src.features
    trace = np.empty((config.steps, 3))
    src_queue: list[int] = []
    tgt_queue: list[int] = []
    previous = None
    drop_run = 0
    for step in range(config.steps):
        if not tgt_queue:
            tgt_queue = list(rng.permutation(tgt.n))
        if not src_queue:
            src_queue = list(rng.permutation(src.n))
        take_t = min(config.target_batch, len(tgt_queue))
        take_s = min(config.source_batch, len(src_queue))
        # Sorted batch indices keep reductions order-stable, so a batch
        # covering the whole set scores identically every step.
        batch_t = np.sort(np.array(tgt_queue[:take_t], dtype=np.intp))
        batch_s = np.sort(np.array(src_queue[:take_s], dtype=np.intp))
        del tgt_queue[:take_t], src_queue[:take_s]

        value, grad = f_otce_value_and_grad(
            xs[batch_s], src.labels[batch_s], xt[batch_t], tgt.labels[batch_t], config
        )
        xt[batch_t] += config.learning_rate * grad
        trace[step] = (step, value, float(np.linalg.norm(grad)))

        if previous is not None and value < previous - _DIVERGENCE_DROP:
            drop_run += 1
            if drop_run >= _DIVERGENCE_RUN:
                raise DivergenceDetected(
                    f"score fell by > {_DIVERGENCE_DROP} for "
                    f"{_DIVERGENCE_RUN} consecutive steps (step {step})"
                )
        else:
            drop_run = 0
        previous = value

    return OptimizationResult(target=tgt.with_features(xt), trace=trace)


def nearest_centroid_probe(train: FeatureSet, test: FeatureSet) -> float:
    """Accuracy of nearest-class-centroid classification on ``test``.

    Centroids come from ``train``; every class present in ``test`` must
    have at least one training sample. Distance ties resolve to the
    smaller class index. Deterministic.
    """
    if train.dim != test.dim:
        raise DimensionMismatch(
            f"feature dimensions differ: train {train.dim} vs test {test.dim}"
        )
    train_classes = train.present_classes
    missing = np.setdiff1d(test.present_classes, train_classes)
    if missing.size:
        raise MissingClass(f"test classes {missing.tolist()} have no training samples")
    centroids = np.stack(
        [train.features[train.labels == c].mean(axis=0) for c in train_classes]
    )
    distances = squared_euclidean_cost(test.features, centroids)
    predictions = train_classes[np.argmin(distances, axis=1)]
    return float((predictions == test.labels).mean())


def write_trace(trace: np.ndarray, path: str | Path) -> None:
    """Write an optimization trace as CSV: step, f_otce, grad_norm."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "f_otce", "grad_norm"])
            for step, value, norm in trace:
                writer.writerow([int(step), repr(float(value)), repr(float(norm))])
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
