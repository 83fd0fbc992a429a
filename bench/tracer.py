"""Span tracer for the benchmark's traced run.

Wraps every public function of the finslercurv modules in a span and
rebinds the wrapper under each name that refers to the original in any
finslercurv module (the package uses ``from .x import y``, so a name can
be bound in several modules). Nothing in the package is edited on disk;
``uninstall`` restores every binding.

A span's self time is its duration minus the union of the intervals its
child spans cover. Spans opened on a worker thread with an empty stack
(the CLI's thread pool) are children of the innermost span open on the
thread that installed the tracer, so a parent's self time excludes the
wall time its pool workers covered, not their summed time.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "metrics", "autodiff", "numkernel", "hypersurface", "indicatrix")

SAMPLING_SPAN = "indicatrix.sample_indicatrix"


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.children = []


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """In-memory span aggregates per function: calls, total and self seconds."""

    def __init__(self, package):
        self.package = package
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.grad_hess_slots = 0
        self.draws = 0
        self.accepted = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = None
        self._saved = []

    def _stack(self):
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack, frame, end):
        stack.pop()
        dur = end - frame.start
        own = dur - _covered(frame.children, frame.start, end)
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        if parent is not None:
            parent.children.append((frame.start, end))
        with self._lock:
            self.calls[frame.name] += 1
            self.total_s[frame.name] += dur
            self.self_s[frame.name] += own

    def _wrap(self, name, func):
        tracer = self
        clock = time.perf_counter
        count_slots = name == "autodiff.grad_hess"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(name, clock())
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(stack, frame, clock())
                if count_slots:
                    n = args[0].dim
                    with tracer._lock:
                        tracer.grad_hess_slots += n * (n + 1) // 2

        return wrapper

    def _wrap_guard(self, guard):
        tracer = self

        def counted_guard(fund, y):
            ok = guard(fund, y)
            stack = tracer._stack()
            if stack and stack[-1].name == SAMPLING_SPAN:
                with tracer._lock:
                    tracer.draws += 1
                    tracer.accepted += bool(ok)
            return ok

        return counted_guard

    def _rebind(self, module, name, value):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self):
        """Wrap the public functions of every layer module; call once."""
        pkg = self.package
        self._main_thread = threading.current_thread()
        modules = [pkg] + [m for m in vars(pkg).values() if inspect.ismodule(m)
                           and m.__name__.startswith(pkg.__name__ + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, attr, wrappers[obj])
        fund_cls = pkg.metrics.FundamentalFunction
        self._rebind(fund_cls, "guard", self._wrap_guard(fund_cls.guard))

    def uninstall(self):
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)

    def count_snapshot(self) -> dict:
        """Exact work counts; these must repeat for a given seed."""
        out = {f"{name}.calls": n for name, n in sorted(self.calls.items())}
        out["autodiff.grad_hess.slots"] = self.grad_hess_slots
        out["indicatrix.sample.draws"] = self.draws
        out["indicatrix.sample.accepted"] = self.accepted
        return out
