"""Timing helpers for the efficiency study (paper Table III).

The paper reports the analysis cost of AutoCheck broken down into three
stages (pre-processing, dependency analysis, identification of variables),
with and without the OpenMP pre-processing optimization.  :class:`Stopwatch`
provides the low-level measurement, :class:`TimingBreakdown` accumulates the
named stages for a single pipeline run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


class Stopwatch:
    """A resettable stopwatch based on :func:`time.perf_counter`."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self._elapsed: float = 0.0

    def start(self) -> "Stopwatch":
        if self._start is None:
            self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is not None:
            self._elapsed += time.perf_counter() - self._start
            self._start = None
        return self._elapsed

    def reset(self) -> None:
        self._start = None
        self._elapsed = 0.0

    @property
    def elapsed(self) -> float:
        running = 0.0
        if self._start is not None:
            running = time.perf_counter() - self._start
        return self._elapsed + running


class Timer:
    """Context manager measuring a single interval.

    >>> with Timer() as t:
    ...     _ = sum(range(10))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._start


@dataclass
class TimingBreakdown:
    """Named stage timings for one AutoCheck pipeline run.

    The pipeline records ``preprocessing`` (opening the input),
    ``fused_analysis`` (the single-pass walk) and ``identify_variables``.
    A dotted name is a sub-stage nested in the stage its prefix names:
    the walk records ``walk.decode`` (waiting for the next decoded block),
    ``walk.scope`` (scope records), and ``walk.mli``, ``walk.dependency``,
    ``walk.rw`` and ``walk.probe`` (each pass) inside ``fused_analysis`` —
    the paper's Table III columns come from these.  ``total`` is the sum
    of the top-level (undotted) stages, so nested time counts once.

    Stages that walk trace records can additionally record how many records
    they processed (:meth:`add_count`), which gives per-stage throughput
    (:meth:`records_per_second`) — the walk's krec/s the efficiency study
    (``table3.py``) reports.
    """

    stages: Dict[str, float] = field(default_factory=dict)
    #: records processed per stage (only stages that walk records)
    counts: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def add_count(self, name: str, records: int) -> None:
        """Record that stage ``name`` processed ``records`` trace records."""
        self.counts[name] = self.counts.get(name, 0) + records

    def get(self, name: str) -> float:
        return self.stages.get(name, 0.0)

    def get_count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def records_per_second(self, name: str) -> Optional[float]:
        """Throughput of stage ``name``; None when it has no record count
        or no measurable elapsed time."""
        count = self.counts.get(name)
        seconds = self.stages.get(name, 0.0)
        if not count or seconds <= 0.0:
            return None
        return count / seconds

    @property
    def total(self) -> float:
        return sum(seconds for name, seconds in self.stages.items()
                   if "." not in name)

    def merge(self, other: "TimingBreakdown") -> "TimingBreakdown":
        merged = TimingBreakdown(dict(self.stages), dict(self.counts))
        for name, seconds in other.stages.items():
            merged.add(name, seconds)
        for name, count in other.counts.items():
            merged.add_count(name, count)
        return merged

    def as_dict(self) -> Dict[str, float]:
        out = dict(self.stages)
        out["total"] = self.total
        return out
