"""Print SHA-256 digests of ``optimize_target_embeddings`` traces and final targets.

Runs the checkout's ``src/otce`` on two sets of tasks and prints, per
run, the digest of the trace's bytes and of the optimized target
features' bytes:

- perfbench's seed-1 guidance tasks 0-3 (``perfbench/inputs.py``), with
  the recipe of perfbench's ``Optimize.config``;
- the guidance acceptance test's (test_09) tasks, seeds 0-19.

Two checkouts whose lines are equal take bit-identical ascents. Run from
anywhere: ``python3 tools/optimize_digest.py``; about 30 s on 2 vCPUs.
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
    GradConfig,
    SyntheticTaskSpec,
    generate_task_pair,
    optimize_target_embeddings,
    read_feature_file,
)

PERFBENCH_SEED = 1
PERFBENCH_TASKS = 4


def digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def report(name: str, src, tgt, config: GradConfig) -> None:
    result = optimize_target_embeddings(src, tgt, config)
    print(f"{name}: trace {digest(result.trace)} target {digest(result.target.features)}")


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        for task in range(PERFBENCH_TASKS):
            out = Path(work) / f"task{task}"
            out.mkdir()
            inputs.guidance_task(PERFBENCH_SEED, task, out)
            config = GradConfig(
                steps=300, learning_rate=5.0, unroll_iterations=100, source_batch=60,
                target_batch=25, seed=PERFBENCH_SEED * PERFBENCH_TASKS + task,
            )
            report(
                f"perfbench seed {PERFBENCH_SEED} task {task}",
                read_feature_file(out / "source.ftrs"), read_feature_file(out / "target.ftrs"),
                config,
            )
    for seed in range(20):
        spec = SyntheticTaskSpec(
            classes=3, dim=2, samples_per_class=20, centroid_separation=4.0,
            domain_shift=2.0, label_permutation_fraction=0.3, seed=seed,
        )
        config = GradConfig(steps=300, learning_rate=5.0, unroll_iterations=100, seed=seed)
        report(f"test_09 seed {seed}", *generate_task_pair(spec), config)


if __name__ == "__main__":
    main()
