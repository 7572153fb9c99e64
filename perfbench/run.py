"""otce benchmark: one closed-loop client, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A run sets up its inputs from ``--seed`` (several times, to time set-up),
then runs ops back to back for ``--seconds``: an op starts only while the
previous one would still fit in the window, and at least one op always
runs. Every op is checked outside its timed interval. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced ops and reports the per-layer metrics. The last stdout line is
one JSON object: correct, attempted, failed, metrics. ``--all`` runs
every workload both ways in child processes and prints every metric.
A record of each run is written to ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
END_TO_END = {"op_s_p50": "s", "op_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}
NAMES = ["score_f", "score_jc", "optimize", "rank_cli"]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with at
    least 10 samples beyond it, or the maximum while that would not lie
    above the median (fewer than 21 samples)."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k + 1 > len(ordered) / 2:
        return ordered[k], 100.0 * (k + 1) / len(ordered), 10
    return ordered[-1], 100.0, 0


def run(name: str, seed: int, seconds: float, traced: bool, root: Path) -> dict:
    import layers
    import tracing
    import workloads
    from machine import machine_block

    work = root / ".perfbench" / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.make(name, root, work, seed)
    machine = machine_block(root, workload.working_array_bytes)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)

    tracer = tracing.Tracer()
    untraced_s, traced_s, traced_ops, errors, converged = [], [], [], [], []
    attempted = failed = 0

    def one(i: int, trace_it: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        undo = None
        if trace_it:
            tracer.op, tracer.enabled = i, True
            undo = tracing.install(tracer, workload.call_sites, workload.after_call)
        elapsed = None
        try:
            try:
                start = time.perf_counter()
                with tracer.span("op"):
                    result = workload.op(i, tracer)
                elapsed = time.perf_counter() - start
            finally:
                tracer.enabled = False
                if undo is not None:
                    undo()
            problems = workload.check(i, result)
            converged.extend(workload.converged(result))
        except Exception as exc:  # a failed op is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            errors.extend(f"op {i}: {p}" for p in problems)
        if elapsed is None:
            return
        if trace_it:
            traced_s.append(elapsed - layers.probe_ms(tracer.spans, i) / 1e3)
            traced_ops.append(i)
        else:
            untraced_s.append(elapsed)

    window = time.perf_counter()
    i = 0
    while True:
        cycle = time.perf_counter()
        one(i, False)
        i += 1
        if traced:
            one(i, True)
            i += 1
        now = time.perf_counter()
        if now - window + (now - cycle) > seconds:
            break

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "machine": machine, "setup_s": setup_s, "untraced_op_s": untraced_s,
              "traced_op_s": traced_s, "errors": errors}
    if traced:
        metrics = layers.layer_metrics(tracer.spans, traced_ops)
        overrides, extra_errors, extra_ops = workload.traced_extras()
        metrics.update(overrides)
        attempted += extra_ops
        failed += min(extra_ops, len(extra_errors))
        errors.extend(extra_errors)
        metrics["fail_ratio"] = failed / attempted
        metrics["converged_ratio"] = sum(converged) / len(converged) if converged else 0.0
        if traced_s and untraced_s:
            metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced_s) - statistics.median(untraced_s))
        units = layers.PER_LAYER
        record["spans"] = [span.to_json() for span in tracer.spans]
        own = tracing.self_times(tracer.spans)
        record["blocking_self_s"] = [
            sum(own[s.index] for s in tracer.spans if s.op == op) / 1e9
            - layers.probe_ms(tracer.spans, op) / 1e3
            for op in traced_ops
        ]
    else:
        value, percentile, beyond = tail(untraced_s) if untraced_s else (0.0, 0.0, 0)
        metrics = {
            "op_s_p50": statistics.median(untraced_s) if untraced_s else 0.0,
            "op_s_tail": value,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        record["op_s_tail_percentile"] = percentile
        record["op_s_tail_beyond"] = beyond
        units = END_TO_END
    machine["loadavg_after"] = os.getloadavg()
    record["metrics"] = metrics
    records = root / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record))

    print(f"workload {name}  seed {seed}  trace {int(traced)}  window {seconds} s")
    print("machine " + json.dumps(machine))
    samples = traced_s if traced else untraced_s
    print(f"ops {attempted} attempted, {failed} failed; {len(samples)} timed samples")
    if traced and traced_s and untraced_s:
        print(f"self times of all spans of a traced op sum to "
              f"{statistics.median(record['blocking_self_s']):.4f} s (median); untraced op median "
              f"{statistics.median(untraced_s):.4f} s; difference = trace.overhead_ms")
    if not traced:
        print(f"op_s_tail is p{percentile:g} with {beyond} samples beyond it")
    for line in errors:
        print("error " + line)
    for key, unit in units.items():
        print(f"{key:40s} {metrics[key]!r} {unit}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def run_all(seed: int, seconds: float, root: Path) -> int:
    """Every workload untraced and traced, in child processes; one table."""
    ok = True
    rows = []
    for name in NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=root, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for line in lines:
                if line.startswith("error "):
                    print(f"{name}: {line}")
            rows.append((name, "correct", result["correct"], f"{result['failed']}/{result['attempted']} failed"))
            rows.extend((name, key, m["value"], m["unit"]) for key, m in result["metrics"].items())
    for name, key, value, unit in rows:
        print(f"{name:9s} {key:40s} {value!r} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; pass another for a held-out check")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    root = Path.cwd()
    if not (root / "src" / "otce" / "__init__.py").is_file():
        print(f"error: {root} has no src/otce; run from the root of an otce checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, root)
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    import layers
    import otce

    declared = json.loads((root / "BENCHMARK.json").read_text())
    if ([m["name"] for m in declared["end_to_end"]] != list(END_TO_END)
            or [m["name"] for m in declared["per_layer"]] != list(layers.PER_LAYER)):
        print("error: BENCHMARK.json and perfbench name different metrics", file=sys.stderr)
        return 2

    if Path(otce.__file__).resolve().parent != (root / "src" / "otce").resolve():
        print(f"error: imported otce from {otce.__file__}, not from this checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
