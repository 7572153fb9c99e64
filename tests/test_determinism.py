"""README's determinism promise across BLAS thread counts.

The thread count is fixed per process before numpy is imported, so the
same job runs once in a child interpreter per setting and prints digests
of everything it computed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

JOB = """
import hashlib
import numpy as np
from otce import (
    FeatureSet, GradConfig, MetricConfig, SinkhornConfig, f_otce,
    f_otce_value_and_grad, joint_label_distribution, negative_conditional_entropy,
    sinkhorn, squared_euclidean_cost, uniform_marginal,
)
from otce import ot
from otce.ot import unrolled_sinkhorn

def digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()

rng = np.random.default_rng(11)
xs, xt = rng.normal(size=(400, 64)), rng.normal(size=(300, 64))
ys, yt = rng.integers(0, 10, size=400), rng.integers(0, 10, size=300)
mu, nu = uniform_marginal(400), uniform_marginal(300)
solver = SinkhornConfig(max_iterations=50)

# Solver level: a cost built without a BLAS matrix product (einsum
# without optimize= runs its own loops).
cost = np.abs(np.einsum("ik,jk->ij", xs, xt))
result = sinkhorn(cost, mu, nu, solver)
plan = result.coupling.values
score = negative_conditional_entropy(joint_label_distribution(plan, ys, yt, 10, 10))
print("solver", result.iterations, digest(plan), score.hex())

# Squared distances built the same BLAS-free way, at a shape where BLAS
# matrix-vector products round differently under 1 and 2 OpenBLAS threads.
ps, pt = rng.normal(size=(1200, 16)), rng.normal(size=(900, 16))
sq_s, sq_t = np.einsum("ik,ik->i", ps, ps), np.einsum("jk,jk->j", pt, pt)
squared = sq_s[:, None] + sq_t[None, :] - 2.0 * np.einsum("ik,jk->ij", ps, pt)
[unrolled], pullback = unrolled_sinkhorn([squared / 16.0], SinkhornConfig(lam=0.5), 20)
print("unrolled", digest(unrolled), digest(pullback([np.log(unrolled)])[0]))

# A default solve that absorbs.
absorbed = []
absorb = ot._Rule._absorb
ot._Rule._absorb = lambda rule, f, g: absorbed.append(1) or absorb(rule, f, g)
result = sinkhorn(
    squared, uniform_marginal(1200), uniform_marginal(900), SinkhornConfig(max_iterations=200)
)
ot._Rule._absorb = absorb
print("absorbing", len(absorbed), result.iterations, digest(result.coupling.values))

# A batched class-pair solve on blocks of the same cost, of unequal sizes.
rows, cols = [0, 1, 60, 160, 300], [0, 40, 41, 150, 230]
blocks = [
    squared[a:b, c:d] for a, b in zip(rows, rows[1:]) for c, d in zip(cols, cols[1:])
]
batch = ot.batched_sinkhorn(blocks, SinkhornConfig(max_iterations=200))
print("batch", batch.iterations.tolist(), digest(batch.transport_cost))

# A solve on clusters 30 apart, whose kernel is 1/40 nonzero after each
# rebuild, so its matvecs run as bincounts over the nonzeros; over 200
# iterations it absorbs after the start.
held = np.random.default_rng(12)
centers = np.zeros((40, 4))
centers[:, 0] = 30.0 * np.arange(40)
labels = np.repeat(np.arange(40), 10)
cs = centers[labels] + 3.0 * held.normal(size=(400, 4))
ct = centers[labels] + 3.0 * held.normal(size=(400, 4))
clustered = (
    np.einsum("ik,ik->i", cs, cs)[:, None] + np.einsum("jk,jk->j", ct, ct)[None, :]
    - 2.0 * np.einsum("ik,jk->ij", cs, ct)
)
sparse = []
ot._Rule._absorb = lambda rule, f, g: absorb(rule, f, g) or sparse.append(rule.pattern is not None)
result = sinkhorn(
    clustered, uniform_marginal(400), uniform_marginal(400), SinkhornConfig(max_iterations=200)
)
ot._Rule._absorb = absorb
print("sparse", sum(sparse), len(sparse), result.iterations, digest(result.coupling.values))

# A batched solve on blocks of the clustered cost, of unequal shapes,
# whose stacked matvecs run as one bincount over the stack's nonzeros.
stacked = []
matvec = ot._Batch._matvec
ot._Batch._matvec = lambda batch, scaling, axis: (
    matvec(batch, scaling, axis), stacked.append(batch.pattern is not None)
)[0]
batch = ot.batched_sinkhorn(
    [clustered[:200, :200], clustered[200:, 170:], clustered[:240, 100:300]], solver
)
ot._Batch._matvec = matvec
print(
    "stacked", sum(stacked), len(stacked), digest(batch.iterations),
    digest(batch.final_marginal_error), digest(batch.transport_cost),
)

# Pipeline level: f-otce and its gradient from raw embeddings.
value = f_otce(FeatureSet(xs, ys, 10), FeatureSet(xt, yt, 10), MetricConfig(sinkhorn=solver)).value
plan = sinkhorn(squared_euclidean_cost(xs, xt), mu, nu, solver).coupling.values
_, grad = f_otce_value_and_grad(xs, ys, xt, yt, GradConfig(unroll_iterations=20))
print("pipeline", value.hex(), digest(plan), digest(grad))
"""


def start_job(threads: int) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    return subprocess.Popen(
        [sys.executable, "-c", JOB], env=env, stdout=subprocess.PIPE, text=True
    )


def digests(job: subprocess.Popen) -> dict[str, list[list[str]]]:
    out, _ = job.communicate(timeout=60)
    assert job.returncode == 0
    found: dict[str, list[list[str]]] = {}
    for kind, *fields in (line.split() for line in out.splitlines()):
        found.setdefault(kind, []).append(fields)
    return found


@pytest.fixture(scope="module")
def runs():
    # Both interpreters start at once; each pins its own thread count.
    jobs = [start_job(1), start_job(2)]
    return [digests(job) for job in jobs]


def test_solver_bit_stable_across_blas_thread_counts(runs):
    single, double = runs
    assert len(single["unrolled"]) == 1
    assert single["solver"] == double["solver"]
    assert single["unrolled"] == double["unrolled"]
    [(count, _, _)] = single["absorbing"]
    assert int(count) >= 2  # the start plus at least one
    assert single["absorbing"] == double["absorbing"]
    assert single["batch"] == double["batch"]
    [(held, count, _, _)] = single["sparse"]
    assert int(held) == int(count) >= 2  # every rebuild held the pattern
    assert single["sparse"] == double["sparse"]
    [(held, count, *_)] = single["stacked"]
    assert int(held) == int(count) >= 2  # every stacked matvec ran sparse
    assert single["stacked"] == double["stacked"]


@pytest.mark.xfail(
    reason="the BLAS matrix products in squared_euclidean_cost and in the "
    "gradient's final d(cost) -> d(xt) step round differently under 1 and 2 "
    "OpenBLAS threads at this shape"
)
def test_pipeline_bit_stable_across_blas_thread_counts(runs):
    single, double = runs
    assert single["pipeline"] == double["pipeline"]
