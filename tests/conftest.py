import numpy as np
import pytest

from otce import FeatureSet, ot


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def absorptions(monkeypatch):
    """Records each absorption of the Sinkhorn rule; the log-domain start is one.

    Each entry is the absorbing problem's -cost/lam array, which tells
    the problems of a batch apart.
    """
    calls = []
    absorb = ot._Rule._absorb

    def counting(rule, f, g):
        calls.append(rule.kernel)
        absorb(rule, f, g)

    monkeypatch.setattr(ot._Rule, "_absorb", counting)
    return calls


def make_set(features, labels, classes=None, name="t"):
    labels = np.asarray(labels, dtype=np.int64)
    if classes is None:
        classes = int(labels.max()) + 1
    return FeatureSet(np.asarray(features, dtype=np.float64), labels, classes, name=name)


def well_separated_set(rng, n=30, d=4, classes=3, separation=8.0, name="t"):
    """Gaussian clusters far enough apart that couplings are unambiguous."""
    centers = np.zeros((classes, d))
    for c in range(classes):
        centers[c, c % d] = separation * (1 + c)
    labels = rng.integers(0, classes, size=n)
    feats = centers[labels] + 0.05 * rng.normal(size=(n, d))
    return make_set(feats, labels, classes, name=name)
