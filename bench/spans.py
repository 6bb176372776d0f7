"""Outside-in tracing: wrap the names a layer's callers look up, record spans.

A span is `(name, start, end, parent)`, with `parent` the index of the
enclosing span in the same list or -1 at the top.  Spans stay in memory for
one sample and are reduced to per-name totals when the sample ends.  The
program itself is never edited: `Tracer.patched` swaps attributes on modules
and classes for timing wrappers and restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

Span = tuple[str, float, float, int]

# Percentiles tried for the tail, highest first, in tenths of a percent so the
# "samples beyond" test is exact integer arithmetic.
_TAIL_PERMILLE = (999, 990, 950, 900, 500)
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `owner.attr` becomes a span named `span`.

    `count`, when set, is called as `count(tracer, args, result)` after each
    call so counters are taken where the work happens.
    """

    owner: Any
    attr: str
    span: str
    count: Callable[["Tracer", tuple, Any], None] | None = None


class Tracer:
    """Collects spans and counters for one sample."""

    def __init__(self) -> None:
        # A slot is None only while its call is running.
        self.spans: list[Span | None] = []
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets: list[Target]) -> Iterator[None]:
        """Install a wrapper on every target; restore every original on exit."""
        originals = []
        try:
            for t in targets:
                original = vars(t.owner)[t.attr]
                originals.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(t.span, original, t.count))
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children.  Calls are single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return totals


def durations(spans: list[Span], name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least TAIL_MIN_BEYOND of `n`
    samples beyond it; the median when none qualifies."""
    for permille in _TAIL_PERMILLE:
        if n * (1000 - permille) >= TAIL_MIN_BEYOND * 1000:
            return permille / 10
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]
