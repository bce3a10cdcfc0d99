"""In-memory spans around the program's layer entry points.

The benchmark records spans from its own files: :func:`install` replaces a
public function (or method) with a wrapper that opens a span, calls the
original, and closes the span.  A layer's *self time* is its spans'
duration minus the time their child spans cover, so the self times of all
layers add up exactly to the time covered by top-level spans, and whatever
a timed region spends outside every span is reported as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

#: (module, attribute, span name) for the synthesis layers.  An attribute
#: ``Class.method`` wraps the method on the class and on every loaded
#: subclass that overrides it.
SUITE_SPANS = (
    ("repro.ir.parser", "parse", "parse"),
    ("repro.symexec.engine", "symbolic_execute", "symbolic_execute"),
    ("repro.synth.library", "build_library", "build_library"),
    ("repro.synth.search", "dfs", "dfs"),
    ("repro.synth.search", "_match_base_case", "base_match"),
    ("repro.synth.search", "SearchContext.solve_all", "solve_all"),
    ("repro.synth.superoptimizer", "verify_candidate", "verify_candidate"),
    ("repro.cost.base", "CostModel.program_cost", "program_cost"),
    ("repro.synth.cache", "PersistentCache._read_file", "cache.load"),
    ("repro.synth.cache", "PersistentCache.save", "cache.save"),
)

#: Daemon-side layers, recorded by the benchmark's daemon launcher.
DAEMON_SPANS = (
    ("repro.pipeline", "ModuleOptimizer.try_rule_cache", "rule_cache"),
    ("repro.serve.store", "ContentStore.get", "store.get"),
    ("repro.serve.store", "ContentStore.put", "store.put"),
    ("repro.serve.daemon", "RequestLog.record_request", "log.record"),
    ("repro.serve.daemon", "RequestLog.record_result", "log.record"),
)


class SpanRecorder:
    """Per-thread span stacks folded into per-name self time and calls."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.entries = 0
        self.top_level_s = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self._stack().append([name, self._clock(), 0.0])

    def exit(self) -> None:
        stack = self._stack()
        name, start, children = stack.pop()
        duration = self._clock() - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        with self._lock:
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
            # A span nested directly in one of its own name (recursion, or a
            # caching model delegating to its inner model) is the same call.
            if parent is None or parent[0] != name:
                self.calls[name] = self.calls.get(name, 0) + 1
            self.entries += 1
            if parent is None:
                self.top_level_s += duration

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "entries": self.entries,
                "top_level_s": self.top_level_s,
            }


def wrapper_cost_s(calls: int = 50_000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op.

    Multiplied by a traced run's span ``entries`` it estimates the time the
    tracing itself added to that run.
    """

    def noop():
        return None

    traced = SpanRecorder().wrap("noop", noop)
    timings = []
    for fn in (noop, traced, noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - start)
    bare, wrapped = min(timings[0::2]), min(timings[1::2])
    return max(wrapped - bare, 0.0) / calls


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install(recorder: SpanRecorder, targets) -> list[str]:
    """Wrap every target; returns the targets that do not exist (skipped)."""
    missing = []
    for module_name, attr, span in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            continue
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(module, class_name, None)
            owners = [c for c in _subclasses(cls) if method in vars(c)] if cls else []
            if not owners:
                missing.append(f"{module_name}.{attr}")
            for owner in owners:
                setattr(owner, method, recorder.wrap(span, vars(owner)[method]))
            continue
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        traced = recorder.wrap(span, original)
        # Rebind every imported alias too (``from x import f`` copies the name).
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, traced)
    return missing
