"""Print the peak memory of the scoring stages, in m x n float64 arrays.

Runs the checkout's ``src/otce`` on perfbench's ``score_pair`` inputs of
seed 1 (``perfbench/inputs.py``: 1000 x 512 features on each side, 10
classes) with the config of perfbench's ``Score`` workloads (gamma 0.5,
default solver), and prints for each stage the peak of the memory that
tracemalloc sees it allocate, numpy's arrays included, over and above
what it is given, in units of m * n * 8 bytes (m, n the sample counts):

- ``squared_euclidean_cost`` above the two feature matrices;
- ``sinkhorn`` on uniform marginals above its cost, whose final kernel
  is sparse, and at lam = 10, where it is dense;
- ``batched_sinkhorn`` on the cost's class-pair blocks, passed as a list
  of arrays, above the blocks;
- ``f_otce``, ``jc_otce`` and ``label_distance_matrix`` above the two
  FeatureSets.

Run from anywhere: ``python3 tools/peak_memory.py``; about 5 s on 2
vCPUs.
"""

from __future__ import annotations

import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from otce import (  # noqa: E402
    MetricConfig,
    SinkhornConfig,
    f_otce,
    jc_otce,
    label_distance_matrix,
    read_feature_file,
    sinkhorn,
    squared_euclidean_cost,
    uniform_marginal,
)
from otce.ot import batched_sinkhorn  # noqa: E402

SEED = 1


def traced_peak(call) -> int:
    """The peak, in bytes, of what ``call()`` allocates and tracemalloc
    sees, its result included; memory allocated before it is not traced."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    config = MetricConfig(gamma=0.5)
    with tempfile.TemporaryDirectory() as work:
        inputs.score_pair(SEED, Path(work))
        src = read_feature_file(Path(work) / "source.ftrs")
        tgt = read_feature_file(Path(work) / "target.ftrs")
    cost = squared_euclidean_cost(src.features, tgt.features)
    mu, nu = uniform_marginal(src.n), uniform_marginal(tgt.n)
    rows = [np.flatnonzero(src.labels == a) for a in np.unique(src.labels)]
    cols = [np.flatnonzero(tgt.labels == b) for b in np.unique(tgt.labels)]
    blocks = [cost[np.ix_(r, c)] for r in rows for c in cols]
    unit = cost.nbytes
    stages = (
        ("squared_euclidean_cost", lambda: squared_euclidean_cost(src.features, tgt.features)),
        ("sinkhorn", lambda: sinkhorn(cost, mu, nu, config.sinkhorn)),
        ("sinkhorn dense", lambda: sinkhorn(cost, mu, nu, SinkhornConfig(lam=10.0))),
        ("batched_sinkhorn list", lambda: batched_sinkhorn(blocks, config.sinkhorn)),
        ("f_otce", lambda: f_otce(src, tgt, config)),
        ("jc_otce", lambda: jc_otce(src, tgt, config)),
        ("label_distance_matrix", lambda: label_distance_matrix(src, tgt, config)),
    )
    print(f"score_pair seed {SEED}: m = {src.n}, n = {tgt.n}, unit m*n*8 = {unit / 1e6:.2f} MB")
    for name, call in stages:
        print(f"{name:24} {traced_peak(call) / unit:.2f}")


if __name__ == "__main__":
    main()
