"""Transferability metrics from pre-extracted embeddings.

Pipeline shared by all metrics: a ground cost between source and target
samples, an entropic transport plan on uniform marginals, the joint
label distribution induced by that plan, and finally the negative
conditional entropy of target labels given source labels. The three
metrics differ only in the cost:

  f-otce   squared Euclidean distance between embeddings
  jc-otce  gamma * squared distance + (1 - gamma) * label distance,
           where the label distance is the Wasserstein distance between
           class-conditional feature clouds, class pairs (blocks of
           the sample cost) of similar size solved as one batched solve
  nce      no transport at all; the identity pairing of equal-length
           label sequences
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Coupling, FeatureSet, MetricId, TransferabilityScore, _check_real
from .errors import DimensionMismatch, LabelOutOfRange, LengthMismatch
from .ot import (
    BatchResult,
    SinkhornConfig,
    _check_features,
    batched_sinkhorn,
    sinkhorn,
    squared_euclidean_cost,
    uniform_marginal,
)

__all__ = [
    "MetricConfig",
    "joint_label_distribution",
    "negative_conditional_entropy",
    "f_otce",
    "jc_otce",
    "nce_paired",
    "label_distance_matrix",
]


@dataclass(frozen=True)
class MetricConfig:
    """Shared metric knobs.

    gamma weights the sample distance against the label distance inside
    the jc-otce ground cost; 0.5 by default. standardize_features, off
    by default, standardizes each feature dimension using statistics
    pooled over both tasks before any cost is computed.
    """

    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    gamma: float = 0.5
    standardize_features: bool = False

    def __post_init__(self) -> None:
        _check_real("gamma", self.gamma, 0.0, 1.0)


def joint_label_distribution(
    coupling: Coupling | np.ndarray,
    ys: np.ndarray,
    yt: np.ndarray,
    source_classes: int,
    target_classes: int,
) -> np.ndarray:
    """Aggregate plan mass into an empirical P(ys, yt) of shape (Cs, Ct).

    Entry (a, b) collects the plan mass of every sample pair whose
    source label is a and target label is b; rows summed give the
    source-label marginal. Absent classes yield zero rows/columns.
    """
    plan = coupling.values if isinstance(coupling, Coupling) else np.asarray(coupling)
    ys = np.asarray(ys)
    yt = np.asarray(yt)
    _class_counts(ys, yt, plan.shape, source_classes, target_classes)
    return _aggregate_joint(plan, ys, yt, source_classes, target_classes)


def _class_counts(ys, yt, shape, source_classes=None, target_classes=None) -> tuple[int, int]:
    """The class counts of labels ``ys``, ``yt`` of a plan of ``shape``, checked.

    Each must be an integer vector with one label per row (ys) or column
    (yt), each label in [0, count); a count left None is one past the
    largest label.
    """
    if ys.shape != (shape[0],) or yt.shape != (shape[1],):
        raise DimensionMismatch(f"labels {ys.shape}/{yt.shape} do not fit plan {shape}")
    # An empty side has no label range to check.
    if not ys.size or not yt.size:
        raise DimensionMismatch(f"plan {shape} has no rows or no columns")
    counts = []
    for name, labels, count in (("ys", ys, source_classes), ("yt", yt, target_classes)):
        if not np.issubdtype(labels.dtype, np.integer):
            raise LabelOutOfRange(f"{name} must be integers, got dtype {labels.dtype}")
        count = int(labels.max()) + 1 if count is None else count
        if labels.min() < 0 or labels.max() >= count:
            raise LabelOutOfRange(f"{name} contains labels outside [0, {count})")
        counts.append(count)
    return counts[0], counts[1]


def _aggregate_joint(
    plan: np.ndarray, ys: np.ndarray, yt: np.ndarray, cs: int, ct: int, support=None
) -> np.ndarray:
    """The (cs, ct) sums of the plan's entries per (ys, yt) label pair.

    One sequential ``np.bincount`` over the entries in row-major order,
    not a BLAS product, so its bits do not depend on the thread count.
    Given a ``support`` (rows, cols), row-major, outside which the plan is
    zero, it runs over those entries alone: the zeros it skips add
    nothing, and the rest come in the same order, so the bits are the same.
    """
    ys, yt = ys.astype(np.intp), yt.astype(np.intp)
    if support is None:
        cells, weights = ((ys * ct)[:, None] + yt).ravel(), plan.ravel()
    else:
        rows, cols = support
        cells, weights = ys[rows] * ct + yt[cols], plan[rows, cols]
    return np.bincount(cells, weights=weights, minlength=cs * ct).reshape(cs, ct)


def negative_conditional_entropy(joint: np.ndarray) -> float:
    """-H(Yt | Ys) of a joint label distribution.

    Uses the 0 * log 0 = 0 convention; rows with zero source-label mass
    contribute nothing. The result lies in [-log(Ct), 0]: each term
    pairs a joint cell with its row sum, and no cell can exceed its row
    sum, so every summand is <= 0.
    """
    value, _ = _entropy_and_adjoint(np.asarray(joint, dtype=np.float64))
    return value


def _entropy_and_adjoint(joint: np.ndarray) -> tuple[float, np.ndarray]:
    """-H(Yt | Ys) and its derivative with respect to the joint.

    d value / d joint[a, b] = log(joint[a, b] / row[a]). Cells with zero
    mass carry zero adjoint (the 0 * log 0 branch is flat).
    """
    row = joint.sum(axis=1)
    mask = joint > 0.0
    log_joint = np.zeros_like(joint)
    np.log(joint, out=log_joint, where=mask)
    log_row = np.zeros_like(row)
    np.log(row, out=log_row, where=row > 0.0)
    log_ratio = np.where(mask, log_joint - log_row[:, None], 0.0)
    return float(np.where(mask, joint * log_ratio, 0.0).sum()), log_ratio


def _standardize_pooled(xs: np.ndarray, xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pooled = np.vstack([xs, xt])
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return (xs - mean) / std, (xt - mean) / std


def _sample_cost(src: FeatureSet, tgt: FeatureSet, config: MetricConfig) -> np.ndarray:
    xs, xt = _check_features(src.features, tgt.features)
    if config.standardize_features:
        xs, xt = _standardize_pooled(xs, xt)
    return squared_euclidean_cost(xs, xt)


def _score_from_cost(
    cost: np.ndarray,
    src: FeatureSet,
    tgt: FeatureSet,
    config: MetricConfig,
    metric_id: MetricId,
    gamma: float | None,
    **label_diagnostics,
) -> TransferabilityScore:
    result = sinkhorn(
        cost, uniform_marginal(src.n), uniform_marginal(tgt.n), config.sinkhorn
    )
    joint = _aggregate_joint(
        result.coupling.values, src.labels, tgt.labels, src.class_count, tgt.class_count,
        result._support,
    )
    return TransferabilityScore(
        metric_id=metric_id,
        value=negative_conditional_entropy(joint),
        lam=config.sinkhorn.lam,
        gamma=gamma,
        iterations_used=result.iterations,
        converged=result.converged,
        final_marginal_error=result.final_marginal_error,
        **label_diagnostics,
    )


def f_otce(src: FeatureSet, tgt: FeatureSet, config: MetricConfig | None = None) -> TransferabilityScore:
    """Transferability from the squared-distance transport plan.

    Deterministic for fixed inputs and config; higher (closer to 0)
    means target labels are more predictable from source labels under
    the optimal coupling.
    """
    config = config or MetricConfig()
    cost = _sample_cost(src, tgt, config)
    return _score_from_cost(cost, src, tgt, config, MetricId.F_OTCE, gamma=None)


def label_distance_matrix(
    src: FeatureSet, tgt: FeatureSet, config: MetricConfig | None = None
) -> np.ndarray:
    """(Cs, Ct) Wasserstein distances between class-conditional clouds.

    Entry (a, b) is the unregularized transport cost of the entropic
    plan between class-a source features and class-b target features
    under squared Euclidean cost: the pair's block of the sample cost.
    The pairs are solved in batches of similar size
    (:func:`otce.ot.batched_sinkhorn`), each as :func:`sinkhorn` would
    solve it alone. Rows/columns of absent classes are +inf sentinels; no
    sample carries those labels, so downstream lookups never read them.
    """
    config = config or MetricConfig()
    distances, _ = _label_distances(_sample_cost(src, tgt, config), src, tgt, config.sinkhorn)
    return distances


def _label_distances(
    cost: np.ndarray, src: FeatureSet, tgt: FeatureSet, config: SinkhornConfig
) -> tuple[np.ndarray, BatchResult]:
    """:func:`label_distance_matrix` from the sample cost, and each pair's outcome."""
    source_classes, source_counts = np.unique(src.labels, return_counts=True)
    target_classes, target_counts = np.unique(tgt.labels, return_counts=True)
    # Each class pair names its block of the sample cost by the samples of
    # its two classes, in ascending order. The solver gathers one block at
    # a time, straight into its batch's store: a class-ordered copy of the
    # whole cost would be the label stage's largest array, and would make
    # it jc-otce's peak.
    rows = np.split(np.argsort(src.labels, kind="stable"), np.cumsum(source_counts)[:-1])
    cols = np.split(np.argsort(tgt.labels, kind="stable"), np.cumsum(target_counts)[:-1])
    pairs = batched_sinkhorn([(r, c) for r in rows for c in cols], config, source=cost)
    distances = np.full((src.class_count, tgt.class_count), np.inf)
    distances[np.ix_(source_classes, target_classes)] = pairs.transport_cost.reshape(
        source_classes.size, target_classes.size
    )
    return distances, pairs


def jc_otce(src: FeatureSet, tgt: FeatureSet, config: MetricConfig | None = None) -> TransferabilityScore:
    """Transferability from the joint sample-and-label-distance plan.

    With gamma = 1 the label term vanishes and the cost reduces exactly
    to the f-otce cost, so the two metrics agree bit-for-bit; the label
    distance matrix is not even computed in that case.
    """
    config = config or MetricConfig()
    cost = _sample_cost(src, tgt, config)
    label_diagnostics = {}
    if config.gamma < 1.0:
        distances, pairs = _label_distances(cost, src, tgt, config.sinkhorn)
        label_diagnostics = {
            "label_unconverged": int(np.count_nonzero(~pairs.converged)),
            "label_marginal_error": float(pairs.final_marginal_error.max()),
        }
        # Per-pair lookup of the class-pair distance, mixed into the
        # sample cost in place; present labels never index an inf sentinel.
        cost *= config.gamma
        label_term = distances[src.labels][:, tgt.labels]
        label_term *= 1.0 - config.gamma
        cost += label_term
        del label_term
    return _score_from_cost(
        cost, src, tgt, config, MetricId.JC_OTCE, gamma=config.gamma, **label_diagnostics
    )


def nce_paired(ys: np.ndarray, yt: np.ndarray) -> float:
    """-H(Yt | Ys) of the empirical joint of paired label sequences.

    Equivalent to scoring the identity coupling pi[i, i] = 1/n, which is
    the degenerate case where source and target samples are the same
    instances.
    """
    ys = np.asarray(ys)
    yt = np.asarray(yt)
    if ys.ndim != 1 or yt.ndim != 1:
        raise DimensionMismatch("label sequences must be 1-D")
    if ys.shape[0] != yt.shape[0]:
        raise LengthMismatch(f"paired labels differ in length: {ys.shape[0]} vs {yt.shape[0]}")
    if ys.shape[0] == 0:
        raise LengthMismatch("paired labels must be non-empty")
    n = ys.shape[0]
    joint = np.zeros(_class_counts(ys, yt, (n, n)))
    np.add.at(joint, (ys, yt), 1.0 / n)
    return negative_conditional_entropy(joint)
