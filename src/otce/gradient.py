"""Differentiable transferability and target-embedding optimization.

The f-otce pipeline (cost -> fixed number of Sinkhorn updates -> plan ->
joint label distribution -> negative conditional entropy) is replayed
with a fixed iteration count K and no early stopping, and its exact
reverse-mode derivative with respect to the target embeddings is
accumulated by walking the same K updates backwards. The Sinkhorn part
is :func:`otce.ot.unrolled_sinkhorn`, which drives the solver's own
update rule, so the value equals ``f_otce`` evaluated with exactly K
iterations; this module adds the entropy's adjoint and the chain rule
from cost to target embeddings. Everything runs in float64. The steps
of a target epoch are one stacked unrolled solve (see
:func:`optimize_target_embeddings`); a single evaluation is a stack of
one problem.

Gradient ascent on that value moves raw target embeddings (source
embeddings stay frozen) toward configurations where target labels are
more predictable from source labels. A nearest-centroid probe stands in
for downstream classifier accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import FeatureSet, _check_integer, _check_real
from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    MissingClass,
    NonFiniteGradient,
    NonFiniteValue,
    NumericalOverflow,
)
from .metrics import _aggregate_joint, _class_counts, _entropy_and_adjoint
from .fileio import _write_csv
from .ot import SinkhornConfig, _check_features, squared_euclidean_cost, unrolled_sinkhorn

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

# At most this many steps of a target epoch are evaluated as one stacked
# unrolled solve, which also bounds its tape on large target sets. On
# 60x25 problems at K = 100 (2 vCPUs), the time per problem fell from
# 4.2 ms alone to 2.1 ms in stacks of 4 and 1.6 ms in stacks of 8, and
# stayed at 1.45-1.6 ms up to 64.
_STACK = 8


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
        _check_real("learning_rate", self.learning_rate, 0.0)
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
        NonFiniteGradient: the value, the gradient or the gradient's norm
            is not finite: -cost/lam overflows (a lambda too small for the
            cost) or the gradient overflows.
    """
    config = config or GradConfig()
    xs = np.asarray(xs, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    if not (np.isfinite(xs).all() and np.isfinite(xt).all()):
        raise NonFiniteValue("features must be finite")
    xs, xt = _check_features(xs, xt)
    if not (len(xs) and len(xt)):
        raise DimensionMismatch(
            f"need at least one sample on each side, got cost {(len(xs), len(xt))}"
        )
    (result,) = _values_and_grads([(xs, np.asarray(ys), xt, np.asarray(yt))], config)
    if isinstance(result, NonFiniteGradient):
        raise result
    return result[:2]


def _values_and_grads(problems: list, config: GradConfig) -> list:
    """f-otce through exactly K Sinkhorn iterations and its gradient, for
    each problem (xs, ys, xt, yt) of a list, in one stacked unrolled solve.

    Each problem's result is (value, d(value)/d(xt), the gradient's L2
    norm), equal to the bit to that of a list of it alone; or, where the
    pipeline produced NaN/inf, the NonFiniteGradient to raise for it. If
    the stacked solve raises NumericalOverflow, each problem is solved
    alone, which names the ones that overflow.
    """
    costs = [squared_euclidean_cost(xs, xt) for xs, _, xt, _ in problems]
    counts = [_class_counts(ys, yt, cost.shape) for cost, (_, ys, _, yt) in zip(costs, problems)]
    try:
        plans, pullback = unrolled_sinkhorn(costs, config.sinkhorn, config.unroll_iterations)
    except NumericalOverflow as exc:
        if len(problems) > 1:
            return [
                result for problem in problems for result in _values_and_grads([problem], config)
            ]
        error = NonFiniteGradient(str(exc))
        error.__cause__ = exc
        return [error]
    values, dplans = [], []
    for plan, (_, ys, _, yt), (cs, ct) in zip(plans, problems, counts):
        value, djoint = _entropy_and_adjoint(_aggregate_joint(plan, ys, yt, cs, ct))
        values.append(value)
        # Through the label aggregation, each sample pair takes the
        # adjoint of its label cell.
        dplans.append(djoint[ys][:, yt])
    results = []
    for value, dcost, (xs, _, xt, _) in zip(values, pullback(dplans), problems):
        # Formed where overflow and inf - inf raise no warning, so a
        # gradient or norm that overflows is reported by the test below.
        with np.errstate(over="ignore", invalid="ignore"):
            # cost[i, j] = ||xs_i - xt_j||^2  =>  d cost / d xt_j = 2 (xt_j - xs_i)
            grad = 2.0 * (dcost.sum(axis=0)[:, None] * xt - dcost.T @ xs)
            norm = float(np.linalg.norm(grad))
        # The norm is finite only if every entry of the gradient is.
        if math.isfinite(value) and math.isfinite(norm):
            results.append((value, grad, norm))
        else:
            results.append(NonFiniteGradient(f"non-finite gradient (lam={config.sinkhorn.lam!r})"))
    return results


def optimize_target_embeddings(
    src: FeatureSet, tgt: FeatureSet, config: GradConfig
) -> OptimizationResult:
    """Gradient ascent of f-otce over the target embedding matrix.

    Source embeddings are frozen. Each step draws one source and one
    target mini-batch (without replacement within an epoch, reshuffling
    between epochs from the seeded stream), evaluates the batch value
    and gradient through K unrolled iterations, and updates the batch's
    target rows in place. Labels are untouched.

    The target batches of an epoch are disjoint, so each of its steps
    reads the target rows as they stood when the epoch began, and its
    steps are evaluated together, up to _STACK at a time, as one stacked
    unrolled solve (:func:`_values_and_grads`). Their updates, trace rows
    and the divergence test then run in step order, so every step, and
    the step that raises, are those of a run that evaluates one step at a
    time. A target batch that covers the whole target set makes every
    epoch one step, which nothing stacks.

    Raises:
        DivergenceDetected: the traced batch score fell by more than 0.1
            on each of 10 consecutive steps.
        NonFiniteGradient: propagated from the gradient pipeline.
    """
    _check_features(src.features, tgt.features)
    rng = np.random.Generator(np.random.Philox(config.seed))
    xt = tgt.features.copy()
    xs = src.features
    trace = np.empty((config.steps, 3))
    src_queue: list[int] = []
    tgt_queue: list[int] = []
    previous = None
    drop_run = 0
    step = 0
    while step < config.steps:
        # The next steps of this target epoch, drawn in step order: a new
        # epoch's first step draws its target order first.
        batches = []
        while step + len(batches) < config.steps and len(batches) < _STACK:
            if not tgt_queue:
                if batches:
                    break
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
            batches.append((batch_s, batch_t))

        results = _values_and_grads(
            [(xs[s], src.labels[s], xt[t], tgt.labels[t]) for s, t in batches], config
        )
        for (_, batch_t), result in zip(batches, results):
            if isinstance(result, NonFiniteGradient):
                raise result
            value, grad, norm = result
            xt[batch_t] += config.learning_rate * grad
            trace[step] = (step, value, norm)

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
            step += 1

    return OptimizationResult(target=tgt.with_features(xt), trace=trace)


def nearest_centroid_probe(train: FeatureSet, test: FeatureSet) -> float:
    """Accuracy of nearest-class-centroid classification on ``test``.

    Centroids come from ``train``; every class present in ``test`` must
    have at least one training sample. Distance ties resolve to the
    smaller class index. Deterministic.
    """
    _check_features(train.features, test.features)
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
    _write_csv(path, [
        ["step", "f_otce", "grad_norm"],
        *([int(step), repr(float(value)), repr(float(norm))] for step, value, norm in trace),
    ])
