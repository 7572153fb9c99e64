"""Rank-correlation evaluation and source ranking.

Kendall's tau follows the sign-count definition literally (tau-a: tied
pairs contribute zero). Spearman's rho is the Pearson correlation of
average (fractional) ranks, which coincides with the classic
1 - 6*sum(d^2)/(n(n^2-1)) form whenever there are no ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, EmptyInput, LengthMismatch

__all__ = ["ScoredPair", "spearman_rho", "kendall_tau", "rank_sources"]


@dataclass(frozen=True)
class ScoredPair:
    """A task's predicted transferability and optional known accuracy."""

    task_id: str
    transferability: float
    accuracy: float | None = None

    def __post_init__(self) -> None:
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must lie in [0, 1], got {self.accuracy!r}")


def _paired(acc, trf) -> tuple[np.ndarray, np.ndarray]:
    acc = np.asarray(acc, dtype=np.float64)
    trf = np.asarray(trf, dtype=np.float64)
    if acc.ndim != 1 or trf.ndim != 1:
        raise LengthMismatch("inputs must be 1-D sequences")
    if acc.shape[0] != trf.shape[0]:
        raise LengthMismatch(f"lengths differ: {acc.shape[0]} vs {trf.shape[0]}")
    if acc.shape[0] < 2:
        raise DegenerateInput(f"need at least 2 pairs, got {acc.shape[0]}")
    return acc, trf


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ordinal ranks.

    Any NaN makes every rank NaN, as in ``scipy.stats.rankdata``.
    """
    if np.isnan(x).any():
        return np.full(x.shape[0], np.nan)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], x.shape[0]]
    # A run of ties at 0-based sorted positions first..last-1 holds the
    # ordinal ranks first+1..last, whose mean is (first + 1 + last) / 2.
    ranks = np.empty(x.shape[0])
    ranks[order] = np.repeat((first + 1 + last) / 2.0, last - first)
    return ranks


def spearman_rho(acc, trf) -> float:
    """Spearman rank correlation, in [-1, 1]."""
    acc, trf = _paired(acc, trf)
    ra = _average_ranks(acc)
    rt = _average_ranks(trf)
    if ra.std() == 0.0 or rt.std() == 0.0:
        raise DegenerateInput("zero rank variance; correlation undefined")
    return float(np.corrcoef(ra, rt)[0, 1])


def kendall_tau(acc, trf) -> float:
    """Kendall rank correlation (tau-a), in [-1, 1].

    (2 / (n(n-1))) * sum over i < j of
    sgn(acc_i - acc_j) * sgn(trf_i - trf_j).
    """
    acc, trf = _paired(acc, trf)
    n = acc.shape[0]
    sign_acc = np.sign(acc[:, None] - acc[None, :])
    sign_trf = np.sign(trf[:, None] - trf[None, :])
    upper = np.triu_indices(n, k=1)
    total = float((sign_acc[upper] * sign_trf[upper]).sum())
    return 2.0 * total / (n * (n - 1))


def rank_sources(pairs: list[ScoredPair]) -> list[ScoredPair]:
    """Order descending by transferability, ties broken by task_id."""
    if not pairs:
        raise EmptyInput("cannot rank an empty list of sources")
    return sorted(pairs, key=lambda p: (-p.transferability, p.task_id))
