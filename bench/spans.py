"""Outside-in tracing for the benchmark: wrappers around public functions
record spans with their parents, and each span's self time is its duration
minus the part of that interval its children cover.

Spans are aggregated as they close, so memory stays flat however many a
run records. A span opened on a thread with no open span of its own (a
worker of ``run_experiment``'s pool) takes the innermost open span of the
thread that opened the root as its parent; its interval then overlaps its
siblings', which is why a parent subtracts the union of its children's
intervals rather than their sum.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class SpanStats:
    calls: int = 0
    nested_calls: int = 0  # calls made from inside a span of the same name
    total_s: float = 0.0
    self_s: float = 0.0
    durations: Optional[list] = None  # kept only for names asked for


@dataclass
class Snapshot:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())


class _Span:
    __slots__ = ("name", "parent", "start", "children")

    def __init__(self, name: str, parent: Optional["_Span"], start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.children: list[tuple[float, float]] = []


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _ThreadRecord:
    """One thread's open spans and what it recorded since the last take.
    Each thread writes only its own record, so spans take no lock."""

    __slots__ = ("stack", "stats", "counts", "generation")

    def __init__(self, stack: list, generation: int) -> None:
        self.stack = stack
        self.stats: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self.generation = generation


class Tracer:
    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep_durations: tuple[str, ...] = (),
    ) -> None:
        self.clock = clock
        self.keep_durations = set(keep_durations)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._records: list[_ThreadRecord] = []
        self._generation = 0
        self._root_stack: list[_Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _record(self) -> _ThreadRecord:
        record = getattr(self._local, "record", None)
        if record is None or record.generation != self._generation:
            stack = record.stack if record is not None else []
            record = self._local.record = _ThreadRecord(stack, self._generation)
            with self._lock:
                self._records.append(record)
        return record

    def enter(self, name: str) -> _Span:
        stack = self._record().stack
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
        span = _Span(name, parent, self.clock())
        stack.append(span)
        return span

    def exit(self, span: _Span) -> float:
        """Close ``span`` and return its duration."""
        end = self.clock()
        record = self._record()
        record.stack.pop()
        duration = end - span.start
        if span.parent is not None:
            span.parent.children.append((span.start, end))
        stats = record.stats.get(span.name)
        if stats is None:
            stats = record.stats[span.name] = SpanStats()
            if span.name in self.keep_durations:
                stats.durations = []
        stats.calls += 1
        if span.parent is not None and span.parent.name == span.name:
            stats.nested_calls += 1
        stats.total_s += duration
        stats.self_s += duration - covered_length(span.children)
        if stats.durations is not None:
            stats.durations.append(duration)
        return duration

    def count(self, name: str, n: int = 1) -> None:
        counts = self._record().counts
        counts[name] = counts.get(name, 0) + n

    def root(self, name: str) -> "_Root":
        """Context manager for the span that worker threads fall back to."""
        return _Root(self, name)

    def take(self) -> Snapshot:
        """Everything recorded since the last take, merged over threads.
        Call it when no span is open on another thread."""
        with self._lock:
            records, self._records = self._records, []
            self._generation += 1
        snapshot = Snapshot()
        for record in records:
            for name, stats in record.stats.items():
                merged = snapshot.stats.get(name)
                if merged is None:
                    merged = snapshot.stats[name] = SpanStats()
                    if stats.durations is not None:
                        merged.durations = []
                merged.calls += stats.calls
                merged.nested_calls += stats.nested_calls
                merged.total_s += stats.total_s
                merged.self_s += stats.self_s
                if stats.durations is not None:
                    merged.durations.extend(stats.durations)
            for name, n in record.counts.items():
                snapshot.counts[name] = snapshot.counts.get(name, 0) + n
        return snapshot

    # Wrapping

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod) by one
        that records a span named ``name`` around each call. ``uninstall``
        restores the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.exit(span)

        traced.__wrapped__ = function
        self.patch(owner, attr, classmethod(traced) if is_classmethod else traced)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr`` by ``replacement`` until ``uninstall``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _Root:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.span: Optional[_Span] = None
        self.wall_s = 0.0

    def __enter__(self) -> "_Root":
        self.tracer._root_stack = self.tracer._record().stack
        self.span = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = self.tracer.exit(self.span)
        self.tracer._root_stack = []
