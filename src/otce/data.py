"""Core domain types shared by every module.

All types validate on construction and are immutable afterwards, so they
are safe to share read-only across concurrent workers. Validation is
total: a failed constructor never leaks a partially built object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    LabelOutOfRange,
    NonFiniteValue,
)

__all__ = ["FeatureSet", "Coupling", "MetricId", "TransferabilityScore"]

# Total-mass tolerance for couplings and joint label distributions.
MASS_TOLERANCE = 1e-9


def _frozen_f64(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FeatureSet:
    """Embedded samples of one task.

    Attributes:
        features: (n, d) matrix of finite embedding coordinates, float64.
        labels: length-n integer labels, each in [0, class_count).
        class_count: size of the label space. Classes may be absent from
            ``labels`` (few-shot batches can miss classes); the set of
            present classes is available via :attr:`present_classes`.
        name: opaque identifier used in reports and rankings.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    name: str = ""

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64, copy=True)
        if feats.ndim != 2:
            raise DimensionMismatch(
                f"features must be 2-D (n, d), got ndim={feats.ndim}"
            )
        n, d = feats.shape
        if n < 1 or d < 1:
            raise DimensionMismatch(f"need n >= 1 and d >= 1, got shape {feats.shape}")
        bad = ~np.isfinite(feats)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise NonFiniteValue(f"non-finite feature at record {i}, column {j}")

        labels = np.array(self.labels, copy=True)
        if labels.ndim != 1 or labels.shape[0] != n:
            raise DimensionMismatch(
                f"labels must be a length-{n} vector, got shape {labels.shape}"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise LabelOutOfRange(f"labels must be integers, got dtype {labels.dtype}")
        labels = labels.astype(np.int64)

        if int(self.class_count) < 1:
            raise LabelOutOfRange(f"class_count must be >= 1, got {self.class_count}")
        out = (labels < 0) | (labels >= self.class_count)
        if out.any():
            i = int(np.argmax(out))
            raise LabelOutOfRange(
                f"label {labels[i]} at record {i} outside [0, {self.class_count})"
            )

        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_count", int(self.class_count))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def present_classes(self) -> np.ndarray:
        """Sorted array of class indices that actually occur. Never empty."""
        return np.unique(self.labels)

    def with_features(self, features: np.ndarray, name: str | None = None) -> "FeatureSet":
        """Copy of this set with replaced features and identical labels."""
        return FeatureSet(
            features=features,
            labels=self.labels,
            class_count=self.class_count,
            name=self.name if name is None else name,
        )


@dataclass(frozen=True)
class Coupling:
    """Dense transport plan between m source and n target samples.

    Entries are non-negative and sum to 1 within ``MASS_TOLERANCE``. How
    closely the row/column sums match the prescribed marginals is a
    property of the solve (see ``SinkhornResult.final_marginal_error``),
    not of this container.
    """

    values: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self) -> None:
        vals = _frozen_f64(self.values)
        mu = _frozen_f64(self.row_marginal)
        nu = _frozen_f64(self.col_marginal)
        if vals.ndim != 2:
            raise DimensionMismatch(f"coupling must be 2-D, got ndim={vals.ndim}")
        m, n = vals.shape
        if mu.shape != (m,) or nu.shape != (n,):
            raise DimensionMismatch(
                f"marginals {mu.shape}/{nu.shape} do not fit coupling {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise NonFiniteValue("coupling contains non-finite entries")
        if (vals < 0).any():
            raise NonFiniteValue("coupling contains negative entries")
        total = float(vals.sum())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise NonFiniteValue(f"coupling mass {total!r} differs from 1 by > {MASS_TOLERANCE}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "row_marginal", mu)
        object.__setattr__(self, "col_marginal", nu)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def marginal_violation(self) -> float:
        """L-infinity violation of the prescribed marginals."""
        row = np.abs(self.values.sum(axis=1) - self.row_marginal).max()
        col = np.abs(self.values.sum(axis=0) - self.col_marginal).max()
        return float(max(row, col))


class MetricId(str, enum.Enum):
    F_OTCE = "f-otce"
    JC_OTCE = "jc-otce"
    NCE = "nce"


@dataclass(frozen=True)
class TransferabilityScore:
    """A metric value plus the solver provenance needed to reproduce it.

    ``value`` is a negative conditional entropy, so it is always <= 0 and
    >= -log(target class count). ``gamma`` is present exactly for JC-OTCE;
    ``lam`` is None for NCE, which involves no transport solve.
    ``final_marginal_error`` is the L-infinity marginal violation of the
    plan the value was computed from (0.0 for NCE). For JC-OTCE,
    ``label_unconverged`` counts the class-pair solves of the label
    distance that ended unconverged and ``label_marginal_error`` is the
    worst of their marginal violations (both 0 when no pair was solved,
    as with gamma = 1 and for the other metrics).
    """

    metric_id: MetricId
    value: float
    lam: float | None
    gamma: float | None
    iterations_used: int
    converged: bool
    final_marginal_error: float = 0.0
    label_unconverged: int = 0
    label_marginal_error: float = 0.0

    def __post_init__(self) -> None:
        if self.value > 0.0:
            raise ValueError(f"score must be <= 0, got {self.value!r}")
        if (self.gamma is not None) != (self.metric_id is MetricId.JC_OTCE):
            raise ValueError("gamma must be present exactly for JC-OTCE scores")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")
