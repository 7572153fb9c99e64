"""Command-line surface: score, rank, corr, optimize, synth, convert.

Every command prints one self-describing JSON report to stdout (the
config echo makes the run reproducible) and uses a stable exit-code
contract: 0 success, 2 invalid input, 3 numerical failure. Reports are
byte-identical across runs for the same inputs and flags, except for
the timing fields.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .data import FeatureSet, MetricId, TransferabilityScore
from .errors import (
    DegenerateInput,
    EmptyInput,
    InputError,
    IoFailure,
    MissingClass,
    NonNumericField,
    NumericalError,
)
from .fileio import _is_float, read_csv, read_feature_file, write_feature_file
from .gradient import (
    GradConfig,
    nearest_centroid_probe,
    optimize_target_embeddings,
    write_trace,
)
from .metrics import MetricConfig, f_otce, jc_otce, nce_paired
from .ot import SinkhornConfig
from .rank import ScoredPair, kendall_tau, rank_sources, spearman_rho
from .synth import SyntheticTaskSpec, generate_task_pair

EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)

    return wrapper


def _emit(command: str, config: dict, results: dict, timing_ms: dict) -> None:
    report = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "results": results,
        "timing_ms": {k: int(v) for k, v in timing_ms.items()},
    }
    click.echo(json.dumps(report, indent=2))


@contextlib.contextmanager
def _as_input_errors():
    """Report an option value that a config rejects as invalid input (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise InputError(f"invalid option: {exc}") from exc


def _metric_config(lam, gamma, max_iter, standardize, log_domain) -> MetricConfig:
    with _as_input_errors():
        return MetricConfig(
            sinkhorn=SinkhornConfig(
                lam=lam, max_iterations=max_iter, log_domain=log_domain
            ),
            gamma=gamma,
            standardize_features=standardize,
        )


def _score_payload(score) -> dict:
    payload = {
        "metric": score.metric_id.value,
        "value": score.value,
        "lambda": score.lam,
        "gamma": score.gamma,
        "iterations": score.iterations_used,
        "converged": score.converged,
        "marginal_error": score.final_marginal_error,
    }
    if score.metric_id is MetricId.JC_OTCE:
        payload["label_unconverged"] = score.label_unconverged
        payload["label_marginal_error"] = score.label_marginal_error
    return payload


_metric_options = [
    click.option("--lambda", "lam", type=float, default=0.1, show_default=True,
                 help="Entropic regularization weight."),
    click.option("--gamma", type=float, default=0.5, show_default=True,
                 help="jc-otce mix weight between sample and label distance."),
    click.option("--max-iter", type=int, default=1000, show_default=True,
                 help="Sinkhorn iteration cap."),
    click.option("--standardize", is_flag=True,
                 help="Standardize each feature dimension on pooled statistics."),
    click.option("--log-domain/--no-log-domain", default=True, show_default=True,
                 help="Stabilized scaling with log-domain absorption vs plain "
                      "scaling."),
]


def _with_metric_options(fn):
    for opt in reversed(_metric_options):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(__version__, prog_name="otce")
def main() -> None:
    """Transferability estimation from embedding files."""


@main.command("score")
@click.option("--metric", type=click.Choice([m.value for m in MetricId]), required=True)
@click.option("--source", "source_path", required=True, help="Source FTRS file.")
@click.option("--target", "target_path", required=True, help="Target FTRS file.")
@_with_metric_options
@_cli_errors
def cmd_score(metric, source_path, target_path, lam, gamma, max_iter, standardize, log_domain):
    """Score one source/target pair with f-otce, jc-otce, or nce."""
    t0 = time.perf_counter()
    src = read_feature_file(source_path)
    tgt = read_feature_file(target_path)
    t1 = time.perf_counter()
    if metric == MetricId.NCE.value:
        score = TransferabilityScore(
            metric_id=MetricId.NCE,
            value=nce_paired(src.labels, tgt.labels),
            lam=None,
            gamma=None,
            iterations_used=0,
            converged=True,
        )
    else:
        config = _metric_config(lam, gamma, max_iter, standardize, log_domain)
        compute = f_otce if metric == MetricId.F_OTCE.value else jc_otce
        score = compute(src, tgt, config)
    results = _score_payload(score)
    t2 = time.perf_counter()
    _emit(
        "score",
        {
            "metric": metric,
            "source": str(source_path),
            "target": str(target_path),
            "lambda": lam,
            "gamma": gamma,
            "max_iter": max_iter,
            "standardize": standardize,
            "log_domain": log_domain,
        },
        results,
        {"load": (t1 - t0) * 1e3, "compute": (t2 - t1) * 1e3},
    )


@main.command("rank")
@click.option("--target", "target_path", required=True, help="Target FTRS file.")
@click.option("--sources", "sources_dir", required=True,
              help="Directory of candidate source FTRS files.")
@click.option("--metric", type=click.Choice(["f-otce", "jc-otce"]), default="f-otce",
              show_default=True)
@_with_metric_options
@_cli_errors
def cmd_rank(target_path, sources_dir, metric, lam, gamma, max_iter, standardize, log_domain):
    """Rank every source in a directory against one target."""
    t0 = time.perf_counter()
    directory = Path(sources_dir)
    if not directory.is_dir():
        raise InputError(f"{directory} is not a directory")
    files = sorted(directory.glob("*.ftrs"))
    if not files:
        raise EmptyInput(f"no .ftrs files in {directory}")
    tgt = read_feature_file(target_path)
    config = _metric_config(lam, gamma, max_iter, standardize, log_domain)
    compute = f_otce if metric == "f-otce" else jc_otce
    t1 = time.perf_counter()
    details = {}
    pairs = []
    for path in files:
        src = read_feature_file(path)
        score = compute(src, tgt, config)
        pairs.append(ScoredPair(task_id=src.name, transferability=score.value))
        details[src.name] = _score_payload(score)
    ranking = [
        {"rank": i + 1, "task_id": p.task_id, **details[p.task_id]}
        for i, p in enumerate(rank_sources(pairs))
    ]
    t2 = time.perf_counter()
    _emit(
        "rank",
        {
            "metric": metric,
            "target": str(target_path),
            "sources": str(sources_dir),
            "lambda": lam,
            "gamma": gamma,
            "max_iter": max_iter,
            "standardize": standardize,
            "log_domain": log_domain,
        },
        {"ranking": ranking},
        {"load": (t1 - t0) * 1e3, "compute": (t2 - t1) * 1e3},
    )


@main.command("corr")
@click.option("--pairs", "pairs_path", required=True,
              help="CSV with columns task_id, score, accuracy.")
@click.option("--method", type=click.Choice(["spearman", "kendall", "both"]),
              default="both", show_default=True)
@_cli_errors
def cmd_corr(pairs_path, method):
    """Rank correlation between scores and known transfer accuracies."""
    t0 = time.perf_counter()
    pairs = _read_pairs_csv(Path(pairs_path))
    if len(pairs) < 2:
        raise DegenerateInput(f"{pairs_path}: need at least 2 rows, got {len(pairs)}")
    acc = np.array([p.accuracy for p in pairs])
    trf = np.array([p.transferability for p in pairs])
    results: dict = {"n": len(pairs)}
    if method in ("spearman", "both"):
        results["spearman_rho"] = spearman_rho(acc, trf)
    if method in ("kendall", "both"):
        results["kendall_tau"] = kendall_tau(acc, trf)
    t1 = time.perf_counter()
    _emit(
        "corr",
        {"pairs": str(pairs_path), "method": method},
        results,
        {"compute": (t1 - t0) * 1e3},
    )


def _read_pairs_csv(path: Path) -> list[ScoredPair]:
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    out: list[ScoredPair] = []
    with fh:
        for idx, row in enumerate(csv.reader(fh)):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise NonNumericField(
                    f"{path}: row {idx} has {len(row)} fields, expected "
                    "task_id, score, accuracy"
                )
            if idx == 0 and not _is_float(row[1]):
                continue  # header line
            try:
                score = float(row[1])
                # NaN would print as bare NaN, which is not JSON.
                if not np.isfinite(score):
                    raise ValueError(f"score must be finite, got {row[1]!r}")
                out.append(
                    ScoredPair(task_id=row[0], transferability=score, accuracy=float(row[2]))
                )
            except ValueError as exc:
                raise NonNumericField(f"{path}: row {idx}: {exc}") from exc
    return out


@main.command("optimize")
@click.option("--source", "source_path", required=True, help="Source FTRS file.")
@click.option("--target", "target_path", required=True, help="Target FTRS file.")
@click.option("--out", "out_path", required=True, help="Optimized target FTRS file.")
@click.option("--steps", type=int, required=True, help="Gradient-ascent steps.")
@click.option("--lr", type=float, default=0.01, show_default=True)
@click.option("--unroll", type=int, default=100, show_default=True,
              help="Fixed Sinkhorn iterations inside the differentiated pipeline.")
@click.option("--lambda", "lam", type=float, default=0.1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--source-batch", type=int, default=256, show_default=True)
@click.option("--target-batch", type=int, default=25, show_default=True)
@click.option("--trace", "trace_path", default=None,
              help="Optional per-step CSV trace (step, f_otce, grad_norm).")
@_cli_errors
def cmd_optimize(source_path, target_path, out_path, steps, lr, unroll, lam, seed,
                 source_batch, target_batch, trace_path):
    """Gradient-ascend target embeddings to raise f-otce."""
    t0 = time.perf_counter()
    src = read_feature_file(source_path)
    tgt = read_feature_file(target_path)
    with _as_input_errors():
        config = GradConfig(
            sinkhorn=SinkhornConfig(lam=lam),
            unroll_iterations=unroll,
            learning_rate=lr,
            steps=steps,
            source_batch=source_batch,
            target_batch=target_batch,
            seed=seed,
        )
    t1 = time.perf_counter()
    result = optimize_target_embeddings(src, tgt, config)
    t2 = time.perf_counter()
    write_feature_file(result.target, out_path)
    if trace_path is not None:
        write_trace(result.trace, trace_path)

    metric_config = MetricConfig(sinkhorn=SinkhornConfig(lam=lam))
    results = {
        "initial_f_otce": f_otce(src, tgt, metric_config).value,
        "final_f_otce": f_otce(src, result.target, metric_config).value,
        "initial_probe_accuracy": _half_split_probe(tgt),
        "final_probe_accuracy": _half_split_probe(result.target),
        "steps": steps,
        "output": str(out_path),
        "trace": None if trace_path is None else str(trace_path),
    }
    t3 = time.perf_counter()
    _emit(
        "optimize",
        {
            "source": str(source_path),
            "target": str(target_path),
            "out": str(out_path),
            "steps": steps,
            "lr": lr,
            "unroll": unroll,
            "lambda": lam,
            "seed": seed,
            "source_batch": source_batch,
            "target_batch": target_batch,
        },
        results,
        {
            "load": (t1 - t0) * 1e3,
            "optimize": (t2 - t1) * 1e3,
            "evaluate": (t3 - t2) * 1e3,
        },
    )


def _half_split_probe(featureset: FeatureSet) -> float | None:
    """Even/odd nearest-centroid probe; None when a split lacks a class."""
    even = np.arange(0, featureset.n, 2)
    odd = np.arange(1, featureset.n, 2)
    if even.size == 0 or odd.size == 0:
        return None
    train = FeatureSet(
        featureset.features[even], featureset.labels[even],
        featureset.class_count, name=f"{featureset.name}-even",
    )
    test = FeatureSet(
        featureset.features[odd], featureset.labels[odd],
        featureset.class_count, name=f"{featureset.name}-odd",
    )
    try:
        return nearest_centroid_probe(train, test)
    except MissingClass:
        return None


@main.command("synth")
@click.option("--spec", "spec_path", required=True, help="JSON task-pair spec.")
@click.option("--out", "out_dir", required=True, help="Output directory.")
@_cli_errors
def cmd_synth(spec_path, out_dir):
    """Generate a seeded synthetic source/target FTRS pair."""
    t0 = time.perf_counter()
    try:
        raw = json.loads(Path(spec_path).read_text())
    except OSError as exc:
        raise InputError(f"{spec_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{spec_path}: malformed JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{spec_path}: spec must be a JSON object")
    try:
        spec = SyntheticTaskSpec(**raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{spec_path}: {exc}") from exc
    src, tgt = generate_task_pair(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"source": out / "source.ftrs", "target": out / "target.ftrs"}
    write_feature_file(src, paths["source"])
    write_feature_file(tgt, paths["target"])
    t1 = time.perf_counter()
    _emit(
        "synth",
        {"spec": str(spec_path), "out": str(out_dir), **raw},
        {
            "source": str(paths["source"]),
            "target": str(paths["target"]),
            "sha256": {
                role: hashlib.sha256(path.read_bytes()).hexdigest()
                for role, path in paths.items()
            },
        },
        {"generate": (t1 - t0) * 1e3},
    )


@main.command("convert")
@click.option("--csv", "csv_path", required=True, help="Input CSV (label first column).")
@click.option("--out", "out_path", required=True, help="Output FTRS file.")
@click.option("--has-header", is_flag=True, help="Skip the first CSV line.")
@_cli_errors
def cmd_convert(csv_path, out_path, has_header):
    """Convert a labeled CSV into an FTRS file."""
    t0 = time.perf_counter()
    featureset = read_csv(csv_path, has_header=has_header)
    write_feature_file(featureset, out_path)
    t1 = time.perf_counter()
    _emit(
        "convert",
        {"csv": str(csv_path), "out": str(out_path), "has_header": has_header},
        {
            "output": str(out_path),
            "samples": featureset.n,
            "dim": featureset.dim,
            "classes": featureset.class_count,
        },
        {"convert": (t1 - t0) * 1e3},
    )


if __name__ == "__main__":
    main()
