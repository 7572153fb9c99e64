"""The four workloads: set-up, the timed op, and the per-op checks.

An op is the part a user waits for; everything else (checks, probes,
reference values) runs outside its timed interval. Imported only after
``run.py`` has put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import tracing
from otce import (
    FeatureSet,
    GradConfig,
    MetricConfig,
    SinkhornConfig,
    f_otce,
    f_otce_value_and_grad,
    jc_otce,
    optimize_target_embeddings,
    read_feature_file,
)

BENCH_DIR = Path(__file__).resolve().parent

# f-otce must land on the class-matched score; 0.01 admits the drift a
# converged solve may show while any plan that mixes classes falls far
# outside (an independent plan scores about -log 10 = -2.30 against
# about -1.1 here).
SCORE_TOLERANCE = 0.01
# jc-otce's label term pulls relabelled targets toward their observed
# class, which can only raise the score; at this commit it sits 0.03 to
# 0.06 above the class-matched score.
JC_HEADROOM = 0.15


def _read(tracer, path: Path) -> FeatureSet:
    with tracer.span("fileio.read", bytes=path.stat().st_size if tracer.enabled else 0):
        return read_feature_file(path)


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    """Base: state lives in the work directory and on the instance."""

    call_sites = tracing.LIBRARY_CALL_SITES
    working_array_bytes = 0

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed

    def after_call(self, name, args, kwargs, result, span):
        """Hook run after each traced library call (outside its span)."""

    def converged(self, result) -> list[bool]:
        return []

    def traced_extras(self) -> tuple[dict, list[str], int]:
        """(metric overrides, errors, extra attempted ops) for a traced run."""
        return {}, [], 0

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)


class Score(Workload):
    working_array_bytes = 1000 * 1000 * 8

    def __init__(self, root, work, seed, metric):
        super().__init__(root, work, seed)
        self.metric = metric
        self.first_value = None

    def setup(self) -> None:
        self.info = inputs.score_pair(self.seed, self.work)
        self.source = self.work / "source.ftrs"
        self.target = self.work / "target.ftrs"
        src = read_feature_file(self.source)
        tgt = read_feature_file(self.target)
        # Warm the code path on a slice, with a few iterations, at no real cost.
        self._score(FeatureSet(src.features[::50], src.labels[::50], 10),
                    FeatureSet(tgt.features[::50], tgt.labels[::50], 10),
                    SinkhornConfig(max_iterations=5))

    def _score(self, src, tgt, sinkhorn=None):
        config = MetricConfig(sinkhorn=sinkhorn or SinkhornConfig(), gamma=0.5)
        if self.metric == "f":
            return f_otce(src, tgt, config)
        return jc_otce(src, tgt, config)

    def op(self, i, tracer):
        src = _read(tracer, self.source)
        tgt = _read(tracer, self.target)
        with tracer.span(f"metrics.{self.metric}_otce"):
            return self._score(src, tgt)

    def check(self, i, score) -> list[str]:
        value = score.value
        reference = self.info["reference"]
        upper = reference + (SCORE_TOLERANCE if self.metric == "f" else JC_HEADROOM)
        errors = []
        if not (math.isfinite(value) and -math.log(self.info["classes"]) <= value <= 0.0):
            errors.append(f"score {value!r} outside [-log Ct, 0]")
        if not reference - SCORE_TOLERANCE <= value <= upper:
            errors.append(f"score {value!r} not within [{reference - SCORE_TOLERANCE}, {upper}]")
        if self.first_value is None:
            self.first_value = value
        elif value != self.first_value:
            errors.append(f"score {value!r} differs from the first op's {self.first_value!r}")
        return errors

    def converged(self, score) -> list[bool]:
        return [score.converged]

    def traced_extras(self):
        """f-otce once more in a child pinned to one BLAS thread."""
        if self.metric != "f":
            return {}, [], 0
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "one_thread.py"), str(self.source), str(self.target)],
            cwd=self.root, env=env, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            return {}, [f"one-thread child failed: {proc.stderr.strip()[-300:]}"], 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        errors = []
        if float.fromhex(out["value"]) != self.first_value:
            errors.append(f"one-thread value {out['value']} differs from {self.first_value!r}")
        return {"ot.sinkhorn_1thread_ms": out["sinkhorn_ms"]}, errors, 1


class Optimize(Workload):
    """The guidance acceptance test's recipe; ops cycle over four tasks."""

    TASKS = 4
    working_array_bytes = 60 * 25 * 8

    def setup(self) -> None:
        self.tasks = []
        for t in range(self.TASKS):
            out = self.work / f"task{t}"
            out.mkdir(parents=True, exist_ok=True)
            inputs.guidance_task(self.seed, t, out)
            src = read_feature_file(out / "source.ftrs")
            tgt = read_feature_file(out / "target.ftrs")
            self.tasks.append((src, tgt, f_otce(src, tgt).value))
        self.first = {}
        self.mismatches = []
        src, tgt, _ = self.tasks[0]
        f_otce_value_and_grad(src.features, src.labels, tgt.features, tgt.labels,
                              GradConfig(unroll_iterations=2))

    def config(self, task):
        return GradConfig(steps=300, learning_rate=5.0, unroll_iterations=100,
                          source_batch=60, target_batch=25, seed=self.seed * self.TASKS + task)

    def op(self, i, tracer):
        src, tgt, _ = self.tasks[i % self.TASKS]
        with tracer.span("gradient.optimize"):
            return optimize_target_embeddings(src, tgt, self.config(i % self.TASKS))

    def after_call(self, name, args, kwargs, result, span):
        """Score the traced batch with f-otce at exactly K iterations: the forward time."""
        if name != "gradient.value_and_grad":
            return
        xs, ys, xt, yt = args[:4]
        config = args[4] if len(args) > 4 else kwargs.get("config") or GradConfig()
        src = FeatureSet(xs, ys, int(ys.max()) + 1)
        tgt = FeatureSet(xt, yt, int(yt.max()) + 1)
        forward = MetricConfig(sinkhorn=SinkhornConfig(
            lam=config.sinkhorn.lam, max_iterations=config.unroll_iterations,
            marginal_tolerance=1e-300, log_domain=config.sinkhorn.log_domain))
        start = time.perf_counter_ns()
        value = f_otce(src, tgt, forward).value
        span.attrs["forward_ns"] = time.perf_counter_ns() - start
        if value != result[0]:
            self.mismatches.append((value, result[0]))

    def check(self, i, result) -> list[str]:
        task = i % self.TASKS
        src, _, before = self.tasks[task]
        errors = []
        if self.mismatches:
            forward, value = self.mismatches[0]
            errors.append(f"{len(self.mismatches)} traced batches: forward value differs from "
                          f"value_and_grad (first: {forward!r} != {value!r})")
            self.mismatches = []
        after = f_otce(src, result.target).value
        if not after > before:
            errors.append(f"task {task}: f-otce {after!r} not above {before!r}")
        if task not in self.first:
            self.first[task] = result.trace
        elif not np.array_equal(result.trace, self.first[task]):
            errors.append(f"task {task}: trace differs from the task's first op")
        return errors


_TIMING = re.compile(rb'"timing_ms": \{[^}]*\}')


class RankCli(Workload):
    """``otce rank`` subprocesses; ops cycle over four source zoos."""

    ZOOS = 4
    call_sites = tracing.LIBRARY_CALL_SITES + tracing.CLI_CALL_SITES
    working_array_bytes = 500 * 500 * 8

    def setup(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.zoos = []
        for z in range(self.ZOOS):
            out = self.work / f"zoo{z}"
            names = inputs.source_zoo(self.seed, z, out)
            rel = out.relative_to(self.root)
            self.zoos.append((names, ["rank", "--target", str(rel / "target.ftrs"),
                                      "--sources", str(rel / "sources"), "--metric", "f-otce"]))
        self.first = {}
        subprocess.run([sys.executable, "-m", "otce.cli", "--version"], cwd=self.root,
                       env=self.env, capture_output=True, check=True, timeout=150)

    def op(self, i, tracer):
        _, argv = self.zoos[i % self.ZOOS]
        if not tracer.enabled:
            return subprocess.run([sys.executable, "-m", "otce.cli", *argv], cwd=self.root,
                                  env=self.env, capture_output=True, timeout=150)
        spans_file = self.work / "cli_spans.json"
        with tracer.span("cli.process") as span:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "cli_trace.py"), str(spans_file), *argv],
                cwd=self.root, env=self.env, capture_output=True, timeout=150)
        tracer.adopt(json.loads(spans_file.read_text()), parent=span.index)
        if proc.returncode == 0:
            timing = json.loads(proc.stdout)["timing_ms"]
            span.attrs.update(load_ms=timing["load"], compute_ms=timing["compute"])
        return proc

    def check(self, i, proc) -> list[str]:
        zoo = i % self.ZOOS
        if proc.returncode != 0:
            return [f"zoo {zoo}: exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"]
        errors = []
        ranking = [entry["task_id"] for entry in json.loads(proc.stdout)["results"]["ranking"]]
        if ranking != self.zoos[zoo][0]:
            errors.append(f"zoo {zoo}: ranking {ranking} is not the noise order")
        report = _TIMING.sub(b'"timing_ms": {}', proc.stdout)
        if self.first.setdefault(zoo, report) != report:
            errors.append(f"zoo {zoo}: report differs from the zoo's first op beyond timing_ms")
        return errors

    def converged(self, proc) -> list[bool]:
        if proc.returncode != 0:
            return []
        return [entry["converged"] for entry in json.loads(proc.stdout)["results"]["ranking"]]

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_CHILDREN)


def make(name: str, root: Path, work: Path, seed: int) -> Workload:
    if name == "score_f":
        return Score(root, work, seed, "f")
    if name == "score_jc":
        return Score(root, work, seed, "jc")
    if name == "optimize":
        return Optimize(root, work, seed)
    return RankCli(root, work, seed)
