"""Print f-otce and jc-otce scores and their diagnostics, in hex.

Runs the checkout's ``src/otce`` on perfbench's inputs
(``perfbench/inputs.py``) and prints exact values, as ``float.hex``:

- for the ``score_pair`` inputs of seeds 1-3, with the config of
  perfbench's ``Score`` workloads (gamma 0.5, default solver): f-otce, its
  iterations and its final marginal error; jc-otce, its label-distance
  solves' worst marginal error and unconverged count, and its main
  solve's final marginal error; the transport cost of ``sinkhorn`` on
  f-otce's sample cost and uniform marginals; the SHA-256 of the
  transport costs and iterations of ``batched_sinkhorn`` on that cost's
  class-pair blocks, passed as a list of arrays; and the SHA-256 of the
  bytes of ``label_distance_matrix``;
- the f-otce, with the default config, of each source of the seed-1
  source zoo 0 against its target, and the transport cost and the
  SHA-256 of the plan of ``sinkhorn`` on their sample cost, whose final
  kernel is dense; and the same for a Fortran-ordered copy of the first
  source's cost.

Two checkouts whose lines are equal give bit-identical scores. Run from
anywhere: ``python3 tools/score_digest.py``; about 15 s on 2 vCPUs.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from otce import (  # noqa: E402
    MetricConfig,
    f_otce,
    jc_otce,
    label_distance_matrix,
    read_feature_file,
    sinkhorn,
    squared_euclidean_cost,
    uniform_marginal,
)
from otce.ot import batched_sinkhorn  # noqa: E402

SCORE_SEEDS = (1, 2, 3)
ZOO_SEED = 1


def sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(array.tobytes() for array in arrays)).hexdigest()


def class_blocks(cost, src, tgt) -> list:
    """The blocks of ``cost`` between each source class and each target
    class, as jc-otce's label stage names them."""
    rows = [np.flatnonzero(src.labels == a) for a in np.unique(src.labels)]
    cols = [np.flatnonzero(tgt.labels == b) for b in np.unique(tgt.labels)]
    return [cost[np.ix_(r, c)] for r in rows for c in cols]


def solve_line(cost, config) -> str:
    result = sinkhorn(cost, uniform_marginal(cost.shape[0]), uniform_marginal(cost.shape[1]), config)
    return (
        f"sinkhorn transport cost {result.transport_cost.hex()}"
        f" plan sha256 {sha256(result.coupling.values)}"
    )


def main() -> None:
    config = MetricConfig(gamma=0.5)
    with tempfile.TemporaryDirectory() as work:
        for seed in SCORE_SEEDS:
            out = Path(work) / f"score{seed}"
            out.mkdir()
            inputs.score_pair(seed, out)
            src = read_feature_file(out / "source.ftrs")
            tgt = read_feature_file(out / "target.ftrs")
            f = f_otce(src, tgt, config)
            print(
                f"score seed {seed} f-otce {f.value.hex()} iterations {f.iterations_used}"
                f" error {f.final_marginal_error.hex()}"
            )
            jc = jc_otce(src, tgt, config)
            print(
                f"score seed {seed} jc-otce {jc.value.hex()}"
                f" label error {jc.label_marginal_error.hex()}"
                f" label unconverged {jc.label_unconverged}"
                f" error {jc.final_marginal_error.hex()}"
            )
            cost = squared_euclidean_cost(src.features, tgt.features)
            solve = sinkhorn(cost, uniform_marginal(src.n), uniform_marginal(tgt.n), config.sinkhorn)
            print(f"score seed {seed} sinkhorn transport cost {solve.transport_cost.hex()}")
            pairs = batched_sinkhorn(class_blocks(cost, src, tgt), config.sinkhorn)
            print(
                f"score seed {seed} batched_sinkhorn list sha256"
                f" {sha256(pairs.transport_cost, pairs.iterations)}"
            )
            distances = label_distance_matrix(src, tgt, config)
            print(f"score seed {seed} label distances sha256 {sha256(distances)}")
        out = Path(work) / "zoo"
        names = inputs.source_zoo(ZOO_SEED, 0, out)
        tgt = read_feature_file(out / "target.ftrs")
        default = MetricConfig().sinkhorn
        for name in names:
            src = read_feature_file(out / "sources" / f"{name}.ftrs")
            print(f"zoo seed {ZOO_SEED} {name} f-otce {f_otce(src, tgt).value.hex()}")
            cost = squared_euclidean_cost(src.features, tgt.features)
            print(f"zoo seed {ZOO_SEED} {name} {solve_line(cost, default)}")
            if name == names[0]:
                fortran = np.asfortranarray(cost)
                print(f"zoo seed {ZOO_SEED} {name} F-order {solve_line(fortran, default)}")


if __name__ == "__main__":
    main()
