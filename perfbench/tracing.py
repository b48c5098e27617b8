"""Spans around the program's layers, recorded from the benchmark's side.

The tracer wraps public functions (each strategy class's
``guesses_batch``, the verify and solve entry points) for the length of
a traced phase and restores them afterwards; nothing under ``src/`` is
edited.  Spans are kept in memory as ``[name, start, end, parent,
thread]`` and written out when the run ends.  A layer's self time is its
spans' durations minus the parts their child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

STRATEGY_KINDS = ("clique-arith", "cone", "product", "majorize-adapter",
                  "k5minus-trap", "table")
# Public entry points the workloads call, and the layer each one opens.
ENTRY_POINTS = {"verify_exhaustive": "verifier", "verify_sampled": "verifier",
                "solve_exact": "solver"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, threading.get_ident()]
            with self._lock:
                self.spans.append(record)
                stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            seconds[name] = seconds.get(name, 0.0) + (end - start) - covered[i]
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls


def strategy_classes(base) -> dict[str, list]:
    """Every subclass of ``base`` that defines ``guesses_batch``, found at
    run time and keyed by its ``kind``."""
    found: dict[str, list] = {}
    todo = [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if "guesses_batch" in vars(sub):
                found.setdefault(sub.kind, []).append(sub)
    return found


class TracedAPI:
    """The ``hats`` package as the workloads see it, with the entry points
    in ENTRY_POINTS traced."""

    def __init__(self, hats, tracer: Tracer):
        self._hats = hats
        self._tracer = tracer

    def __getattr__(self, name):
        value = getattr(self._hats, name)
        layer = ENTRY_POINTS.get(name)
        return self._tracer.wrap(value, layer) if layer else value


@contextmanager
def instrument(tracer: Tracer, hats):
    """Trace every strategy kind's ``guesses_batch`` while the block runs.

    Yields the kinds found and the traced API to call the program
    through.  A kind missing after a refactor is simply absent, and its
    metrics are reported missing.
    """
    base = getattr(getattr(hats, "strategy", None), "Strategy", None)
    classes = strategy_classes(base) if base is not None else {}
    saved = []
    for kind, group in classes.items():
        for cls in group:
            original = vars(cls)["guesses_batch"]
            saved.append((cls, original))
            setattr(cls, "guesses_batch", tracer.wrap(original, f"strategy.{kind}"))
    try:
        yield set(classes), TracedAPI(hats, tracer)
    finally:
        for cls, original in saved:
            setattr(cls, "guesses_batch", original)
