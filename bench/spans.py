"""Span recording for the traced pass.

A span is (name, start, end, parent).  Spans are kept in memory and written
once, when the traced process ends.  Wrappers are installed from outside the
program, by attribute, so a callable that no longer exists is reported as
absent instead of failing the pass.

Work the benchmark itself does around a wrapped call (correctness checks,
counting) runs inside a ``bench.check`` span, so it is subtracted from the
self time of the span that encloses it and shows up as tracing overhead.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

CHECK_SPAN = "bench.check"


class Tracer:
    """Nested spans on one call stack.  Spans from more than one thread
    would interleave, so the traced pass runs the program single-threaded;
    a span that ends out of stack order sets ``interleaved``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.failed = {}         # span name -> calls that raised
        self.counters = {}       # free-form counts taken at span boundaries
        self.absent = []         # wrapped names that did not exist
        self.interleaved = False
        self._stack = []
        self._checking = False

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:
            self.interleaved = True
            if idx in self._stack:
                self._stack.remove(idx)

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    @contextmanager
    def check(self):
        """Benchmark-side work: timed as its own span; wrapped callables
        reached from inside it run untraced."""
        was = self._checking
        self._checking = True
        try:
            with self.span(CHECK_SPAN):
                yield
        finally:
            self._checking = was

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``before(args, kwargs)`` runs ahead of the call and may edit
        ``kwargs``; its return value is handed to ``after(args, kwargs,
        result, ctx)``.  Both run as benchmark checks.  Returns False (and
        records ``name`` as absent) when the attribute does not exist.
        """
        target = getattr(owner, attr, None)
        if not callable(target):
            self.absent.append(name)
            return False

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if self._checking:
                return target(*args, **kwargs)
            ctx = None
            if before is not None:
                with self.check():
                    ctx = before(args, kwargs)
            idx = self.begin(name)
            try:
                result = target(*args, **kwargs)
            except Exception:
                self.failed[name] = self.failed.get(name, 0) + 1
                raise
            finally:
                self.end(idx)
            if after is not None:
                with self.check():
                    after(args, kwargs, result, ctx)
            return result

        setattr(owner, attr, wrapper)
        return True

    def to_dict(self) -> dict:
        return {"spans": self.spans, "failed": self.failed,
                "counters": self.counters, "absent": self.absent,
                "interleaved": self.interleaved}


def self_times(spans) -> list:
    """Self time of each span: its duration minus the durations of its
    direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans) -> dict:
    """Per span name: call count, total (inclusive) time and self time."""
    own = self_times(spans)
    table = {}
    for (name, start, end, _), s in zip(spans, own):
        row = table.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += end - start
        row["self"] += s
    return table


def top_level_time(spans) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
