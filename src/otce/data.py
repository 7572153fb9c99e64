"""Core domain types shared by every module.

All types validate on construction and are immutable afterwards, so they
are safe to share read-only across concurrent workers. Validation is
total: a failed constructor never leaks a partially built object.
"""

from __future__ import annotations

import enum
import math
import numbers
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


def _check_integer(name: str, value, least: int, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is an integer (a Python or numpy
    int, not a bool) of at least ``least``. A float count or seed would
    pass the bound and fail later, mid-run, as a TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value!r}")


def _check_real(name: str, value, low=-math.inf, high=math.inf, open_low=False) -> None:
    """Raise ValueError unless ``value`` is a finite real number (a Python
    or numpy int or float, not a bool) in [low, high], or in (low, high]
    with ``open_low``. A range test alone would pass NaN, which fails
    every comparison, and a bool, which compares as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not (low < value if open_low else low <= value) or value > high:
        left = "(" if open_low or low == -math.inf else "["
        right = "]" if high < math.inf else ")"
        raise ValueError(f"{name} must lie in {left}{low:g}, {high:g}{right}, got {value!r}")


def _marginal_error(plan: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """L-infinity violation of the marginals ``mu`` (rows) and ``nu``
    (columns) by ``plan``."""
    row = np.abs(plan.sum(axis=1) - mu).max()
    return float(max(row, np.abs(plan.sum(axis=0) - nu).max()))


def _adopt(cls, **fields):
    """An instance of the frozen dataclass ``cls`` that holds the arrays
    in ``fields`` themselves, frozen in place, where its constructor holds
    copies of the caller's.

    For arrays of the fields' dtypes that their maker has just made and
    hands over, such as a solver's plan or a reader's features: the copy
    would double their memory for a moment. Every check of the
    constructor runs (``cls._check``), and a failed one leaks no instance.
    """
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    instance._check()
    return instance


def _copy_fields(instance, names, dtype=None) -> None:
    """Replace each named field of a frozen dataclass ``instance`` by a
    copy of it, as an array of ``dtype`` if given: what its constructor
    holds instead of the caller's arrays."""
    for name in names:
        object.__setattr__(instance, name, np.array(getattr(instance, name), dtype=dtype, copy=True))


@dataclass(frozen=True)
class FeatureSet:
    """Embedded samples of one task.

    Attributes:
        features: (n, d) matrix of finite embedding coordinates, float64.
        labels: length-n integer labels, each in [0, class_count).
        class_count: size of the label space, an integer (not a bool)
            of at least 1, else LabelOutOfRange. Classes may be absent from
            ``labels`` (few-shot batches can miss classes); the set of
            present classes is available via :attr:`present_classes`.
        name: opaque identifier used in reports and rankings.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    name: str = ""

    def __post_init__(self) -> None:
        _copy_fields(self, ("features",), np.float64)
        _copy_fields(self, ("labels",))
        self._check()

    def _check(self) -> None:
        """Check the held fields and freeze the arrays in place."""
        feats = self.features
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

        labels = self.labels
        if labels.ndim != 1 or labels.shape[0] != n:
            raise DimensionMismatch(
                f"labels must be a length-{n} vector, got shape {labels.shape}"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise LabelOutOfRange(f"labels must be integers, got dtype {labels.dtype}")
        labels = labels.astype(np.int64, copy=False)

        _check_integer("class_count", self.class_count, 1, LabelOutOfRange)
        out = (labels < 0) | (labels >= self.class_count)
        if out.any():
            i = int(np.argmax(out))
            raise LabelOutOfRange(
                f"label {labels[i]} at record {i} outside [0, {self.class_count})"
            )

        feats.setflags(write=False)
        labels.setflags(write=False)
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

    The constructor holds read-only copies of the caller's arrays. The
    solver's plan is adopted instead (:func:`_adopt`): the coupling holds
    the array the solve wrote, frozen in place, so that no second m x n
    copy of it is made.
    """

    values: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self) -> None:
        _copy_fields(self, ("values", "row_marginal", "col_marginal"), np.float64)
        self._check()

    def _check(self) -> None:
        """Check the held fields and freeze the arrays in place."""
        vals, mu, nu = self.values, self.row_marginal, self.col_marginal
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
        for arr in (vals, mu, nu):
            arr.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def marginal_violation(self) -> float:
        """L-infinity violation of the prescribed marginals."""
        return _marginal_error(self.values, self.row_marginal, self.col_marginal)


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
        _check_real("value", self.value, high=0.0)
        if (self.gamma is not None) != (self.metric_id is MetricId.JC_OTCE):
            raise ValueError("gamma must be present exactly for JC-OTCE scores")
        if self.gamma is not None:
            _check_real("gamma", self.gamma, 0.0, 1.0)
