"""Timing helpers for the efficiency study (paper Table III).

The paper reports the analysis cost of AutoCheck broken down into three
stages (pre-processing, dependency analysis, identification of variables),
with and without the OpenMP pre-processing optimization.
:class:`TimingBreakdown` accumulates the named stages for a single
pipeline run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass
class TimingBreakdown:
    """Named stage timings for one AutoCheck pipeline run.

    The pipeline records ``preprocessing`` (opening the input),
    ``fused_analysis`` (the single-pass walk) and ``identify_variables``.
    A dotted name is a sub-stage nested in the stage its prefix names:
    the walk records ``walk.decode`` (waiting for the next decoded block),
    ``walk.scope`` (scope records), ``walk.resolve`` (the access tables),
    and ``walk.mli``, ``walk.dependency``, ``walk.rw`` and ``walk.probe``
    (each pass) inside ``fused_analysis`` —
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
