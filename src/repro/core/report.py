"""Result objects of the AutoCheck pipeline."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import MainLoopSpec
from repro.util.formatting import format_bytes, render_table
from repro.util.timing import TimingBreakdown


class DependencyType(enum.Enum):
    """The four dependency classes of paper Fig. 7."""

    WAR = "WAR"
    OUTCOME = "Outcome"
    RAPO = "RAPO"
    INDEX = "Index"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CriticalVariable:
    """One variable AutoCheck recommends checkpointing."""

    name: str
    dependency: DependencyType
    size_bytes: int = 0
    base_address: int = 0
    decl_line: int = 0
    is_array: bool = False
    is_global: bool = False

    def __str__(self) -> str:
        return f"{self.name} ({self.dependency.value})"


@dataclass
class TraceStats:
    """Shape of the analysed trace (Table II's size/record columns)."""

    record_count: int = 0
    before_count: int = 0
    inside_count: int = 0
    after_count: int = 0
    global_count: int = 0
    trace_bytes: Optional[int] = None


@dataclass(frozen=True)
class CacheInfo:
    """How the artifact store was involved in producing one report.

    Attached by the pipeline when caching is enabled
    (:attr:`repro.core.config.AutoCheckConfig.use_cache`): on a hit the
    report was deserialized from the store and the record walk was skipped
    entirely; on a miss it was computed and stored under ``key``.  This is
    *per-run provenance*, not analysis content — it is excluded from report
    equality and from the serialized form (a report loaded from the cache
    carries the hit's CacheInfo, not the original miss's).
    """

    #: True when the report came out of the store without a record walk.
    hit: bool
    #: Content-addressed store key (hex SHA-256 over trace digest, config
    #: fingerprint and schema version).
    key: str
    #: Digest of the analysed trace content.
    trace_digest: str
    #: On-disk entry path inside the store.
    path: Optional[str] = None


class Deferred:
    """A report section that is not decoded yet: ``decode(*args)`` builds
    it.  A report from a store hit holds its DDGs and R/W events this way
    (see :class:`_Section`)."""

    __slots__ = ("decode", "args")

    def __init__(self, decode: Callable[..., Any], *args: Any) -> None:
        self.decode = decode
        self.args = args


class _Section:
    """A report field that may hold a :class:`Deferred`: its first read
    decodes it and keeps the value.  Decoding is idempotent, so readers
    that race on the first read decode equal values, and one of them is
    kept."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, report: Any, owner: Optional[type] = None) -> Any:
        if report is None:
            return None  # the field's default
        value = report.__dict__[self.name]
        if value.__class__ is Deferred:
            value = report.__dict__[self.name] = value.decode(*value.args)
        return value

    def __set__(self, report: Any, value: Any) -> None:
        report.__dict__[self.name] = value


@dataclass
class AutoCheckReport:
    """Everything AutoCheck produces for one benchmark run."""

    main_loop: MainLoopSpec
    critical_variables: List[CriticalVariable] = field(default_factory=list)
    mli_variable_names: List[str] = field(default_factory=list)
    induction_variable: Optional[str] = None
    complete_ddg: Optional[object] = _Section()    # repro.core.ddg.DDG
    contracted_ddg: Optional[object] = _Section()  # repro.core.ddg.DDG
    #: repro.core.rwdeps.RWDependencies
    rw_sequence: Optional[object] = _Section()
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)
    trace_stats: TraceStats = field(default_factory=TraceStats)
    #: Artifact-store provenance (hit/miss, key) — per-run metadata, hence
    #: excluded from equality and from the serialized form.
    cache_info: Optional[CacheInfo] = field(default=None, compare=False,
                                            repr=False)

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        return [variable.name for variable in self.critical_variables]

    def find(self, name: str) -> Optional[CriticalVariable]:
        for variable in self.critical_variables:
            if variable.name == name:
                return variable
        return None

    def by_type(self) -> Dict[DependencyType, List[CriticalVariable]]:
        grouped: Dict[DependencyType, List[CriticalVariable]] = {}
        for variable in self.critical_variables:
            grouped.setdefault(variable.dependency, []).append(variable)
        return grouped

    def checkpoint_bytes(self) -> int:
        """Total bytes to checkpoint = sum of critical-variable sizes.

        This is the quantity compared against the BLCR whole-process image in
        paper Table IV.
        """
        return sum(variable.size_bytes for variable in self.critical_variables)

    def dependency_string(self) -> str:
        """Table II style listing, e.g. ``x (WAR), it (Index)``."""
        return ", ".join(f"{v.name} ({v.dependency.value})"
                         for v in self.critical_variables)

    def summary(self) -> str:
        """Human readable multi-line report."""
        lines = [
            f"Main computation loop: {self.main_loop.function} "
            f"lines {self.main_loop.mclr}",
            f"MLI variables ({len(self.mli_variable_names)}): "
            + ", ".join(self.mli_variable_names),
            f"Critical variables ({len(self.critical_variables)}):",
        ]
        rows = [(v.name, v.dependency.value, format_bytes(v.size_bytes),
                 v.decl_line or "-") for v in self.critical_variables]
        lines.append(render_table(("variable", "dependency", "size", "decl line"),
                                  rows))
        lines.append(f"Checkpoint size: {format_bytes(self.checkpoint_bytes())}")
        parts = []
        for name, seconds in self.timings.stages.items():
            part = f"{name}={seconds:.4f}s"
            rate = self.timings.records_per_second(name)
            if rate is not None:
                part += f" ({rate / 1000:.0f} krec/s)"
            parts.append(part)
        lines.append("Analysis time: " + ", ".join(parts)
                     + f", total={self.timings.total:.4f}s")
        if self.cache_info is not None:
            status = ("hit (record walk skipped; timings are the original "
                      "run's)" if self.cache_info.hit else "miss (stored)")
            lines.append(f"Artifact cache: {status}, "
                         f"key={self.cache_info.key[:16]}…, "
                         f"trace={self.cache_info.trace_digest[:16]}…")
        return "\n".join(lines)
