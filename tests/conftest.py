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


@pytest.fixture
def kernel_forms(monkeypatch):
    """Records the form each kernel rebuild leaves the rule's matvecs in:
    "sparse" (over the held pattern of nonzeros) or "dense"."""
    forms = []
    absorb = ot._Rule._absorb

    def recording(rule, f, g):
        absorb(rule, f, g)
        forms.append("dense" if rule.pattern is None else "sparse")

    monkeypatch.setattr(ot._Rule, "_absorb", recording)
    return forms


@pytest.fixture
def batch_forms(monkeypatch):
    """Records the form each stacked matvec of a batched solve ran in:
    "sparse" (one bincount over the stacked pattern) or "dense" (an
    einsum over the padded stack)."""
    forms = []
    matvec = ot._Batch._matvec

    def recording(batch, scaling, axis):
        product = matvec(batch, scaling, axis)
        forms.append("dense" if batch.pattern is None else "sparse")
        return product

    monkeypatch.setattr(ot._Batch, "_matvec", recording)
    return forms


@pytest.fixture
def stackless(monkeypatch):
    """Records, after each stacked matvec of a batched solve, whether the
    batch held no dense stack (``work is None``)."""
    held = []
    matvec = ot._Batch._matvec

    def recording(batch, scaling, axis):
        product = matvec(batch, scaling, axis)
        held.append(batch.work is None)
        return product

    monkeypatch.setattr(ot._Batch, "_matvec", recording)
    return held


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


def clustered_pair(noise, clusters=40, size=10, seed=0):
    """Source and target points in equal clusters 30 apart along one axis.

    At lam = 0.1 their kernel is nonzero only within clusters, 1/clusters
    of it, so the Sinkhorn rule steps it in the sparse form.
    """
    rng = np.random.default_rng(seed)
    centers = np.zeros((clusters, 4))
    centers[:, 0] = 30.0 * np.arange(clusters)
    labels = np.repeat(np.arange(clusters), size)
    xs = centers[labels] + noise * rng.normal(size=(labels.size, 4))
    xt = centers[labels] + noise * rng.normal(size=(labels.size, 4))
    return xs, xt
