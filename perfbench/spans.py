"""Spans recorded from the benchmark's side of each layer boundary.

The program carries no instrumentation of its own yet, so the traced run
replaces public functions and methods with thin wrappers that record a
span (name, start, end, parent) around each call; only the traced
processes install them. Spans stay in memory; :meth:`Tracer.summary` turns them into
per-name self time and call counts, where self time is a span's duration
minus the time its direct children cover (children on one thread run
one after another, so their durations add up).

The layer table is data: ``(span name, module, attribute path)``. An
entry whose module or attribute does not exist is skipped, so a traced
run keeps working when the program drops a function (the population
kernel, for one).
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from functools import wraps
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: The layers every workload crosses, reported by the traced run. Times
#: are self milliseconds per design (library) or per request (serve).
LAYER_TIMES = ("workloads.resolve", "runtime.fingerprint", "runtime.cache", "core.build",
               "core.parallelism", "core.cost")

#: The calls behind each of ``LAYER_TIMES``, wrapped in the library
#: workers and (through ``launch_server.py``) in the server worker. Time
#: outside them is reported as ``other_ms``.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.resolve", "repro.workloads", "REGISTRY.model"),
    ("workloads.resolve", "repro.workloads", "REGISTRY.board"),
    ("runtime.fingerprint", "repro.runtime.batch", "BatchEvaluator.key_for"),
    ("runtime.fingerprint", "repro.runtime.batch", "context_fingerprint"),
    ("runtime.fingerprint", "repro.service.handlers", "context_fingerprint"),
    ("runtime.cache", "repro.runtime.cache", "LRUCache.get"),
    ("runtime.cache", "repro.runtime.cache", "LRUCache.put"),
    ("runtime.cache", "repro.runtime.cache", "DiskCache.get"),
    ("runtime.cache", "repro.runtime.cache", "DiskCache.put"),
    ("core.build", "repro.core.builder", "MultipleCEBuilder.build"),
    ("core.parallelism", "repro.core.parallelism", "choose_parallelism"),
    ("core.parallelism", "repro.core.engine", "choose_parallelism"),
    ("core.parallelism", "repro.runtime.segcache", "choose_parallelism"),
    ("core.cost", "repro.core.cost.model", "MCCM.evaluate"),
    ("core.cost", "repro.core.cost.vector", "PopulationKernel.evaluate"),
)


class Tracer:
    """Records spans from any thread; each thread keeps its own stack."""

    def __init__(self) -> None:
        #: (name, start_ns, end_ns, parent index or -1)
        self.spans: List[Tuple[str, int, int, int]] = []
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()

    # --- recording -------------------------------------------------------------
    def call(self, name: str, func: Callable, args: tuple, kwargs: dict):
        if not self.enabled:
            return func(*args, **kwargs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0, 0, stack[-1] if stack else -1))
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans[index] = (name, start, end, self.spans[index][3])

    def span(self, name: str, func: Callable) -> Callable:
        """``func`` wrapped so each call records a span called ``name``."""
        @wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, func, args, kwargs)

        return traced

    # --- installation ----------------------------------------------------------
    def install(self, layers: Sequence[Tuple[str, str, str]]) -> None:
        """Wrap every resolvable ``(name, module, attribute)``."""
        for name, module_name, path in layers:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            *owner_path, attr = path.split(".")
            owner: Any = module
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = (
                    owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                )
            except (AttributeError, KeyError):
                continue
            setattr(owner, attr, self.span(name, original))

    def patch_route(self, table: Dict[str, Any], key: str, name: str) -> None:
        """Wrap the handler of a ``(parser, handler)`` route-table entry."""
        parser, handler = table[key]
        table[key] = (parser, self.span(name, handler))

    # --- results ---------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"self_ms": total self time, "calls": count}}``."""
        with self._lock:
            spans = list(self.spans)
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(spans):
            entry = totals.setdefault(name, {"self_ms": 0.0, "calls": 0})
            entry["self_ms"] += (end - start - child_ns[index]) / 1e6
            entry["calls"] += 1
        return totals


def dump(summary: Dict[str, Dict[str, float]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)


def covered_ms(summary: Dict[str, Dict[str, float]]) -> float:
    """Time inside any span: the self times of all spans add up to it."""
    return sum(entry["self_ms"] for entry in summary.values())


def self_ms(summary: Dict[str, Dict[str, float]], name: str, per: float) -> float:
    """A layer's self time divided over ``per`` operations (0 when unseen)."""
    entry = summary.get(name)
    return entry["self_ms"] / per if entry else 0.0

