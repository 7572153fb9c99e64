"""Per-layer metrics from the spans of a traced run.

Every metric is computed per traced op and then reported as the median
over the run's traced ops. Times are totals per op in milliseconds.
Metrics of a layer the workload never reaches are 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import self_times

# name -> unit; BENCHMARK.json lists the same names in the same order.
PER_LAYER = {
    "fail_ratio": "ratio",
    "converged_ratio": "ratio",
    "ot.sinkhorn_ms": "ms",
    "ot.sinkhorn_iters": "count",
    "ot.sinkhorn_ms_per_iter": "ms",
    "ot.sinkhorn_converged": "count",
    "ot.sinkhorn_marginal_err": "1",
    "ot.sinkhorn_gbps_computed": "GB/s",
    "ot.sinkhorn_mb_per_iter_computed": "MB",
    "ot.sinkhorn_mexp_per_iter_computed": "Mexp",
    "ot.sinkhorn_1thread_ms": "ms",
    "ot.cost_ms": "ms",
    "ot.cost_gflop_computed": "GFLOP",
    "metrics.label_distance_ms": "ms",
    "metrics.label_distance_self_ms": "ms",
    "metrics.label_distance_solves": "count",
    "metrics.label_distance_iters": "count",
    "metrics.label_distance_converged": "count",
    "metrics.label_distance_marginal_err_max": "1",
    "metrics.score_self_ms": "ms",
    "metrics.entropy_ms": "ms",
    "gradient.steps": "count",
    "gradient.value_and_grad_ms": "ms",
    "gradient.forward_ms": "ms",
    "gradient.backward_ms": "ms",
    "gradient.optimize_self_ms": "ms",
    "fileio.read_ms": "ms",
    "fileio.read_mb_per_s": "MB/s",
    "rank.rank_sources_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.load_ms": "ms",
    "cli.compute_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.unattributed_ms": "ms",
}

SCORE_SPANS = ("metrics.f_otce", "metrics.jc_otce", "metrics.score")

# One log-domain half update streams the m x n work array through add,
# max, subtract, clamp, exp and sum: 10 passes of 8 bytes per entry.
_BYTES_PER_ENTRY_PER_ITER = 2 * 10 * 8
_EXPS_PER_ENTRY_PER_ITER = 2


def _op_values(spans, own, indices) -> dict:
    v = defaultdict(float)
    main_bytes = 0.0
    worst_err = 0.0
    inner_worst = 0.0
    for i in indices:
        span = spans[i]
        name, attrs = span.name, span.attrs
        dur = (span.end - span.start) / 1e6
        parent = spans[span.parent].name if span.parent is not None else None
        if name == "ot.sinkhorn":
            entries = attrs["m"] * attrs["n"]
            if parent == "metrics.label_distance":
                v["metrics.label_distance_solves"] += 1
                v["metrics.label_distance_iters"] += attrs["iterations"]
                v["metrics.label_distance_converged"] += attrs["converged"]
                inner_worst = max(inner_worst, attrs["marginal_error"])
            else:
                v["ot.sinkhorn_ms"] += dur
                v["ot.sinkhorn_iters"] += attrs["iterations"]
                v["ot.sinkhorn_converged"] += attrs["converged"]
                worst_err = max(worst_err, attrs["marginal_error"])
                main_bytes += _BYTES_PER_ENTRY_PER_ITER * entries * attrs["iterations"]
                v["ot.sinkhorn_mb_per_iter_computed"] = _BYTES_PER_ENTRY_PER_ITER * entries / 1e6
                v["ot.sinkhorn_mexp_per_iter_computed"] = _EXPS_PER_ENTRY_PER_ITER * entries / 1e6
        elif name == "ot.cost":
            m, n, d = attrs["m"], attrs["n"], attrs["d"]
            v["ot.cost_ms"] += dur
            v["ot.cost_gflop_computed"] += (2 * m * n * d + 2 * (m + n) * d + 3 * m * n) / 1e9
        elif name == "metrics.label_distance":
            v["metrics.label_distance_ms"] += dur
            v["metrics.label_distance_self_ms"] += own[i] / 1e6
        elif name in SCORE_SPANS:
            v["metrics.score_self_ms"] += own[i] / 1e6
        elif name == "metrics.entropy":
            v["metrics.entropy_ms"] += dur
        elif name == "gradient.value_and_grad":
            v["gradient.steps"] += 1
            v["gradient.value_and_grad_ms"] += dur
            v["gradient.forward_ms"] += attrs.get("forward_ns", 0) / 1e6
        elif name == "gradient.optimize":
            v["gradient.optimize_self_ms"] += own[i] / 1e6
        elif name == "fileio.read":
            v["fileio.read_ms"] += dur
            v["_read_bytes"] += attrs["bytes"]
        elif name == "rank.rank_sources":
            v["rank.rank_sources_ms"] += dur
        elif name == "cli.process":
            v["cli.load_ms"] += attrs.get("load_ms", 0)
            v["cli.compute_ms"] += attrs.get("compute_ms", 0)
        elif name == "cli.import":
            v["cli.startup_ms"] += (span.end - spans[span.parent].start) / 1e6
        elif name == "op":
            v["trace.unattributed_ms"] += own[i] / 1e6
    # The forward probes ran inside the optimize span but are not part of the op.
    v["gradient.optimize_self_ms"] -= v["gradient.forward_ms"]
    v["gradient.backward_ms"] = v["gradient.value_and_grad_ms"] - v["gradient.forward_ms"]
    if v["ot.sinkhorn_iters"]:
        v["ot.sinkhorn_ms_per_iter"] = v["ot.sinkhorn_ms"] / v["ot.sinkhorn_iters"]
        v["ot.sinkhorn_gbps_computed"] = main_bytes / (v["ot.sinkhorn_ms"] * 1e6)
    v["ot.sinkhorn_marginal_err"] = worst_err
    v["metrics.label_distance_marginal_err_max"] = inner_worst
    if v["fileio.read_ms"]:
        v["fileio.read_mb_per_s"] = v["_read_bytes"] / 1e3 / v["fileio.read_ms"]
    return v


def layer_metrics(spans, op_ids) -> dict:
    """Median over the traced ops of every per-layer metric except the run-level ones."""
    own = self_times(spans)
    by_op = defaultdict(list)
    for i, span in enumerate(spans):
        by_op[span.op].append(i)
    per_op = [_op_values(spans, own, by_op[op]) for op in op_ids]
    return {
        name: statistics.median(values.get(name, 0.0) for values in per_op) if per_op else 0.0
        for name in PER_LAYER
    }


def probe_ms(spans, op_id) -> float:
    """Time the forward probes added to one traced op (ms)."""
    return sum(s.attrs.get("forward_ns", 0) for s in spans if s.op == op_id) / 1e6
