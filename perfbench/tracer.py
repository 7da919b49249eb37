"""Outside-in tracing of minfeat's layers.

The tracer replaces each layer's public functions with timing wrappers
from outside the package. A ``from .knapsack import solve_dp`` copies the
reference into the importing module, so every minfeat module that holds
the original function gets the wrapper; methods are wrapped on their
class. Each wrapped call records one span (name, start, end, parent span,
thread id); spans stay in memory until the caller writes them out.

Spans carry wall-clock stamps for the timeline and per-thread CPU stamps
for the metrics. The CLI's six pool threads share the interpreter lock,
so most of a span's wall time is spent waiting for it; its thread CPU
time is the work it did. busy_s and self_s are CPU times.

A few call boundaries also yield counts read from their arguments and
results (knapsack table cells, perturbation pairs, report bytes), so
ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple

# (layer module, public function or Class.method); the metric prefix is
# "<layer>.<function>".
TARGETS = (
    ("model", "Model.forward"),
    ("model", "Model.input_gradient"),
    ("model", "train_toy"),
    ("model", "load_model"),
    ("attribution", "cooperative_integrated_gradients"),
    ("attribution", "integrated_gradients"),
    ("pipeline", "refine"),
    ("pipeline", "sample_perturbations"),
    ("pipeline", "perturbed_upper_bound"),
    ("pipeline", "cidr_without_refinement"),
    ("knapsack", "quantize"),
    ("knapsack", "solve_dp"),
    ("metrics", "comprehensiveness"),
    ("metrics", "log_odds"),
    ("metrics", "fms_pairs"),
    ("metrics", "fms_words"),
    ("evaluation", "evaluate_methods"),
    ("evaluation", "single_instance_metrics"),
    ("reports", "write_reports"),
    ("corpus", "load_corpus"),
    ("cli", "run_train"),
    ("cli", "run_explain"),
    ("cli", "run_evaluate"),
)

SPAN_NAMES = tuple(f"{layer}.{target.split('.')[-1]}" for layer, target in TARGETS)


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    parent: int | None
    thread: int


def _count_solve_dp(args: tuple) -> dict[str, float]:
    instance = args[0]
    items = len(instance.items)
    return {
        "knapsack.solve_dp.cells": items * (instance.capacity + 1),
        "knapsack.solve_dp.items": items,
        "knapsack.solve_dp.trivial": int(sum(instance.weights) <= instance.capacity),
    }


def _count_pairs(args: tuple) -> dict[str, float]:
    return {"pipeline.sample_perturbations.pairs": len(args[0])}


def _count_report_bytes(args: tuple) -> dict[str, float]:
    return {"reports.bytes": os.path.getsize(args[1])}


# Counts read from a call's arguments once it has returned.
COUNTERS: dict[str, Callable[[tuple], dict[str, float]]] = {
    "knapsack.solve_dp": _count_solve_dp,
    "pipeline.sample_perturbations": _count_pairs,
    "reports.write_reports": _count_report_bytes,
}


class Tracer:
    """Records spans and counts while installed (use as a context manager).

    Spans opened inside ``parallel_map`` workers take the span that called
    ``parallel_map`` as their parent, so the causal tree crosses threads
    while self time is still computed per thread.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add_counts(self, counts: dict[str, float]) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] += value

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        cpu_clock = time.thread_time
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            cpu_start = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu_end = cpu_clock()
                end = clock()
                stack.pop()
                spans.append(
                    Span(span_id, name, start, end, cpu_start, cpu_end, parent, get_ident())
                )
            if counter is not None:
                self._add_counts(counter(args))
            return result

        return traced

    def _wrap_parallel_map(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced_parallel_map(work, items, *args, **kwargs):
            caller_stack = self._stack()
            parent = caller_stack[-1] if caller_stack else None

            def adopted(item):
                stack = self._stack()
                stack.append(parent)
                try:
                    return work(item)
                finally:
                    stack.pop()

            return fn(adopted, items, *args, **kwargs)

        return traced_parallel_map

    def _patch_everywhere(self, original: Any, replacement: Any) -> None:
        modules = [m for n, m in sys.modules.items() if n == "minfeat" or n.startswith("minfeat.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for layer, target in TARGETS:
            home = importlib.import_module(f"minfeat.{layer}")
            name = f"{layer}.{target.split('.')[-1]}"
            if "." in target:
                cls_name, method = target.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original, COUNTERS.get(name)))
            else:
                original = getattr(home, target)
                self._patch_everywhere(original, self.wrap(name, original, COUNTERS.get(name)))
        evaluation = importlib.import_module("minfeat.evaluation")
        self._patch_everywhere(
            evaluation.parallel_map, self._wrap_parallel_map(evaluation.parallel_map)
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def cpu_time(span: Span) -> float:
    return span.cpu_end - span.cpu_start


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span CPU time minus the CPU time of its children on the same thread.

    A child on another thread runs concurrently with its parent, so it
    does not reduce the parent's self time. Children on one thread are
    nested and sequential, so their times add without overlap.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            covered[s.parent] += cpu_time(s)
    return {s.span_id: cpu_time(s) - covered[s.span_id] for s in spans}


def function_stats(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """calls, busy_s (CPU time inside the call) and self_s per span name.

    Both times are summed over threads, so with several threads on
    several cores they can exceed wall time.
    """
    spans = list(spans)
    own = self_times(spans)
    stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for s in spans:
        entry = stats[s.name]
        entry["calls"] += 1
        entry["busy_s"] += cpu_time(s)
        entry["self_s"] += own[s.span_id]
    return stats


def spans_to_json(run_id: str, spans: Iterable[Span]) -> dict[str, Any]:
    return {
        "run_id": run_id,
        "fields": list(Span._fields),
        "spans": [list(s) for s in spans],
    }
