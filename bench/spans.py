"""Spans recorded from outside the program, and the self times derived from them.

Wrappers are installed on the module attributes through which the program
calls its public functions (``lue.simulation.solve_mivlue``, not
``lue.mivlue.solve_mivlue``), so a span starts and ends exactly where the
caller hands over control.  Per-element functions are never wrapped: the
wrapper's own cost would swamp them.
"""

from __future__ import annotations

import functools
import json
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

# Span in which an observer summarizes a wrapped call's result.  It is a child
# of the caller's span, so the caller's self time excludes it, and it belongs
# to no layer.
OBSERVE = "trace.observe"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 at the top
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded worker."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int):
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(result)`` returns counts for it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                with self.span(OBSERVE):
                    self.spans[index].counts = observe(result)
            return result

        return wrapper

    def install(self, bindings) -> Callable[[], None]:
        """Patch each ``(owner, attribute, span name, observer)``; returns the undo."""
        saved = []
        for owner, attr, name, observe in bindings:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observe))

        def uninstall():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return uninstall

    def dump(self, path: str):
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "parent": s.parent, "op": s.op, "counts": s.counts,
                }) + "\n")


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for index, s in enumerate(spans):
        covered, reach = 0, s.start_ns
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, s.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end_ns - s.start_ns - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: summed self time in seconds, call count, and summed/maxed counts."""
    totals: dict[str, dict] = {}
    for s, self_ns in zip(spans, self_times_ns(spans)):
        entry = totals.setdefault(s.name, {"self_s": 0.0, "calls": 0, "counts": {}, "max": {}})
        entry["self_s"] += self_ns / 1e9
        entry["calls"] += 1
        for key, value in s.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
            entry["max"][key] = max(entry["max"].get(key, value), value)
    return totals
