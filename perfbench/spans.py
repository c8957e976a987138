"""In-memory spans for the benchmark's traced runs.

A span is one timed call: a name, a start and an end on the
``time.perf_counter`` clock, the span that was open on the same thread
when it started (its parent) and a dict of attributes (record counts,
bytes, store keys).  Spans are kept in a list and only analysed after the
measured window ends, so recording one costs two clock reads and an
append.

A span's *self time* is its duration minus the part of its interval that
its child spans cover; summing self times over a set of spans never
counts a nested interval twice, which is what lets the per-layer table
add up to the traced wall time.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence


@dataclass
class Span:
    """One timed call."""

    id: int
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans from any number of threads.

    Parents are tracked per thread: a span opened on a server handler
    thread or a pool worker becomes a root unless that thread already has
    an open span.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> Span:
        """Start a span on the calling thread; pair with :meth:`close`."""
        stack = self._stack()
        span = Span(next(self._ids), name,
                    parent=stack[-1].id if stack else None, attrs=attrs)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        self.spans.append(span)

    def discard(self, span: Span) -> None:
        """Close ``span`` without keeping it (an empty generator step)."""
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} discarded out of order")
        stack.pop()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        opened = self.open(name, **attrs)
        try:
            yield opened
        finally:
            self.close(opened)


class NullRecorder:
    """The untraced stand-in: ``span()`` times nothing and keeps nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        yield Span(0, name, attrs=attrs)


def covered_seconds(parent: Span, children: Iterable[Span]) -> float:
    """Length of the union of ``children``'s intervals inside ``parent``."""
    intervals = sorted((max(child.start, parent.start),
                        min(child.end, parent.end)) for child in children)
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end in intervals:
        if end <= start:
            continue
        if run_start is None or start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {span.id: span.duration - covered_seconds(
                span, children.get(span.id, ()))
            for span in spans}


def self_by_name(index: "SpanIndex", spans: Iterable[Span]
                 ) -> Dict[str, float]:
    """Summed self time of ``spans``, keyed by span name."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + index.self_time[span.id]
    return totals


class SpanIndex:
    """Parent links and self times of one finished recording."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.by_id = {span.id: span for span in self.spans}
        self.self_time = self_times(self.spans)
        self.children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def subtree(self, root: Span) -> Iterator[Span]:
        """``root`` and every span below it."""
        pending = [root]
        while pending:
            span = pending.pop()
            yield span
            pending.extend(self.children.get(span.id, ()))

    def ancestors(self, span: Span) -> Iterator[Span]:
        parent = span.parent
        while parent is not None:
            ancestor = self.by_id.get(parent)
            if ancestor is None:
                return
            yield ancestor
            parent = ancestor.parent

    def named(self, *names: str) -> List[Span]:
        wanted = set(names)
        return [span for span in self.spans if span.name in wanted]

    def self_sum(self, spans: Iterable[Span]) -> float:
        return sum((self.self_time[span.id] for span in spans), 0.0)
