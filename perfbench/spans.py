"""In-memory span recorder for the benchmark's traced runs.

A span is opened by benchmark-owned code around a call into one layer's
public entry point.  Every thread keeps its own span stack, so a span's
*self* time is its duration minus the time its child spans on the same
thread cover.  A thread may also enter a *scope*: spans opened inside it
are filed under ``<scope>/<name>``, which keeps a layer's calls on one
request path apart from its calls on another.  Spans are folded into
per-name aggregates as they close; nothing leaves memory until
:meth:`Recorder.snapshot` is called.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class Recorder:
    """Per-name span aggregates (count, total, self) plus plain counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans = {}
        self._counters = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def scope(self, prefix: str):
        """File the spans and counters opened inside under ``prefix/``."""
        outer = getattr(self._local, "prefix", "")
        self._local.prefix = f"{outer}{prefix}/"
        try:
            yield
        finally:
            self._local.prefix = outer

    def _name(self, name: str) -> str:
        return getattr(self._local, "prefix", "") + name

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span named ``name``."""
        stack = self._stack()
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self.record(name, duration, duration - children[0])

    def record(self, name: str, duration: float, self_s: float = None) -> None:
        """Add a finished span; it counts as a child of the open span."""
        stack = self._stack()
        if stack:
            stack[-1][0] += duration
        name = self._name(name)
        with self._lock:
            entry = self._spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration if self_s is None else self_s

    def add(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name``."""
        name = self._name(name)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def snapshot(self, reset: bool = False) -> dict:
        """``{"spans": {name: {count, total_s, self_s}}, "counters": {...}}``,
        optionally starting afresh in the same atomic step."""
        with self._lock:
            spans, counters = self._spans, self._counters
            if reset:
                self._spans, self._counters = {}, {}
            return {
                "spans": {
                    name: {"count": c, "total_s": t, "self_s": s}
                    for name, (c, t, s) in spans.items()
                },
                "counters": dict(counters),
            }


def wrap(recorder: Recorder, owner, attr: str, name=None, after=None):
    """Replace ``owner.attr`` by a wrapper that records a span around it.

    ``name=None`` records no span (the wrapper only feeds ``after``).
    ``after(args, result)`` runs once the call has returned, outside the
    span.
    """
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        if name is None:
            result = original(*args, **kwargs)
        else:
            with recorder.span(name):
                result = original(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attr, wrapper)


def counter(snapshot: dict, name: str) -> float:
    return snapshot["counters"].get(name, 0.0)
