"""Print f-otce and jc-otce scores and their diagnostics, in hex.

Runs the checkout's ``src/otce`` on perfbench's inputs
(``perfbench/inputs.py``) and prints exact values, as ``float.hex``:

- for the ``score_pair`` inputs of seeds 1-3, with the config of
  perfbench's ``Score`` workloads (gamma 0.5, default solver): f-otce, its
  iterations and its final marginal error; jc-otce, its label-distance
  solves' worst marginal error and unconverged count, and its main
  solve's final marginal error; the transport cost of ``sinkhorn`` on
  f-otce's sample cost and uniform marginals; and the SHA-256 of the
  bytes of ``label_distance_matrix``;
- the f-otce, with the default config, of each source of the seed-1
  source zoo 0 against its target.

Two checkouts whose lines are equal give bit-identical scores. Run from
anywhere: ``python3 tools/score_digest.py``; about 10 s on 2 vCPUs.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

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

SCORE_SEEDS = (1, 2, 3)
ZOO_SEED = 1


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
            distances = label_distance_matrix(src, tgt, config)
            digest = hashlib.sha256(distances.tobytes()).hexdigest()
            print(f"score seed {seed} label distances sha256 {digest}")
        out = Path(work) / "zoo"
        names = inputs.source_zoo(ZOO_SEED, 0, out)
        tgt = read_feature_file(out / "target.ftrs")
        for name in names:
            value = f_otce(read_feature_file(out / "sources" / f"{name}.ftrs"), tgt).value
            print(f"zoo seed {ZOO_SEED} {name} f-otce {value.hex()}")


if __name__ == "__main__":
    main()
