import numpy as np
import pytest

from otce import FeatureSet, ot


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def absorptions(monkeypatch):
    """Records each absorption of the Sinkhorn rule, folded or redone. A
    solve's first row half is one, and its first column half another if
    out of range.

    Each entry is the absorbing problem's cost array, which tells the
    problems of a batch apart.
    """
    calls = []
    absorb = ot._Rule._absorb

    def counting(rule, f, g):
        calls.append(rule.cost)
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


@pytest.fixture
def redos(monkeypatch):
    """Records each half-step of the Sinkhorn rule redone in log-sum-exp
    form (a call of ``_Rule.lse``), as :func:`absorptions` records
    absorptions: by the redoing problem's cost array itself."""
    calls = []
    lse = ot._Rule.lse

    def counting(rule, potential, axis):
        calls.append(rule.cost)
        return lse(rule, potential, axis)

    monkeypatch.setattr(ot._Rule, "lse", counting)
    return calls


@pytest.fixture
def zeroed_row(monkeypatch):
    """Breaks one kernel rebuild mid-solve, to drive the redo path.

    ``zeroed_row(shape, at)`` arms it: the ``at``-th column half-step
    absorbed on a problem of ``shape``, folded or redone, absorbs as
    usual, and then row 0 of the kernel it built is zeroed. The next row
    product is zero there, so that scaling is infinite and the row half
    must be redone in log-sum-exp form, from the potentials alone.
    Returns a list that gets one True when that row half is redone.
    """
    absorb_col, lse = ot._Rule._absorb_col, ot._Rule.lse
    armed, redone = {}, []

    def zeroing(rule):
        absorb_col(rule)
        if rule.cost.shape != armed["shape"]:
            return
        armed["count"] += 1
        if armed["count"] == armed["at"]:
            armed["F"] = rule.F.copy()
            if rule.pattern is None:
                rule.work[0] = 0.0
            else:
                rows, _, data = rule.pattern
                data[rows == 0] = 0.0

    def watched(rule, potential, axis):
        # F changes only at an absorption, so the zeroed kernel is still
        # the problem's while its F is the one that absorption left.
        if axis == 0 and "F" in armed and np.array_equal(rule.F, armed["F"]):
            redone.append(True)
            del armed["F"]
        return lse(rule, potential, axis)

    def arm(shape, at):
        armed.clear()
        armed.update(shape=shape, at=at, count=0)
        redone.clear()
        monkeypatch.setattr(ot._Rule, "_absorb_col", zeroing)
        monkeypatch.setattr(ot._Rule, "lse", watched)
        return redone

    return arm


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
