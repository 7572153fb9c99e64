"""Outside-in layer tracing: spans recorded around calls into otce.

The benchmark swaps a timing wrapper onto public names at the modules
that call them (``otce.metrics.sinkhorn`` rather than ``otce.ot.sinkhorn``),
so the library itself is never edited. Each span keeps its name, start
and end (``perf_counter_ns``, which is CLOCK_MONOTONIC and therefore
comparable across processes), parent span, op id and a few attributes.
A wrapped name that no longer exists, or is never called, simply yields
no spans: the layer reports zero and the run goes on.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name) triples; the module is where the call is made.
LIBRARY_CALL_SITES = [
    ("otce.metrics", "squared_euclidean_cost", "ot.cost"),
    ("otce.metrics", "sinkhorn", "ot.sinkhorn"),
    ("otce.metrics", "label_distance_matrix", "metrics.label_distance"),
    ("otce.metrics", "negative_conditional_entropy", "metrics.entropy"),
    ("otce.gradient", "f_otce_value_and_grad", "gradient.value_and_grad"),
]
CLI_CALL_SITES = [
    ("otce.cli", "read_feature_file", "fileio.read"),
    ("otce.cli", "f_otce", "metrics.score"),
    ("otce.cli", "jc_otce", "metrics.score"),
    ("otce.cli", "rank_sources", "rank.rank_sources"),
]


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, index, name, start, parent, op):
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = {}

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.attrs]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        self.enabled = False

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        record = Span(index, name, 0, self.stack[-1] if self.stack else None, self.op)
        record.attrs.update(attrs)
        self.spans.append(record)
        self.stack.append(index)
        record.start = time.perf_counter_ns()
        try:
            yield record
        finally:
            record.end = time.perf_counter_ns()
            self.stack.pop()

    @contextmanager
    def suspended(self):
        """Run work the op would not do (probes, checks) without spans."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def adopt(self, records: list, parent: int | None) -> None:
        """Append spans recorded by a child process under ``parent``."""
        offset = len(self.spans)
        for name, start, end, rec_parent, _, attrs in records:
            rec_parent = parent if rec_parent is None else rec_parent + offset
            span = Span(len(self.spans), name, start, rec_parent, self.op)
            span.end = end
            span.attrs = attrs
            self.spans.append(span)


def _annotate(name: str, args, result) -> dict:
    if name == "ot.sinkhorn":
        m, n = args[0].shape
        return {
            "m": m,
            "n": n,
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
            "marginal_error": float(result.final_marginal_error),
        }
    if name == "ot.cost":
        (m, d), n = args[0].shape, args[1].shape[0]
        return {"m": m, "n": n, "d": d}
    if name == "metrics.score":
        return {"converged": bool(result.converged)}
    if name == "fileio.read":
        return {"bytes": 32 + result.n * (4 + 4 * result.dim)}
    return {}


def install(tracer: Tracer, call_sites, after=None):
    """Wrap every call site that exists; returns a function that restores them.

    ``after(name, args, kwargs, result, span)`` runs once the span has
    closed, so whatever it does is not charged to the wrapped call.
    """
    restore = []
    for module_name, attr, name in call_sites:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            continue

        def traced(*args, _original=original, _name=name, **kwargs):
            with tracer.span(_name) as span:
                result = _original(*args, **kwargs)
            if span is not None:
                span.attrs.update(_annotate(_name, args, result))
                if after is not None:
                    with tracer.suspended():
                        after(_name, args, kwargs, result, span)
            return result

        setattr(module, attr, traced)
        restore.append((module, attr, original))

    def undo():
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)

    return undo


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
