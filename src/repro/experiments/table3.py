"""Table III — efficiency study (analysis-time breakdown).

The paper reports, per benchmark, the time spent in pre-processing,
dependency analysis and critical variable identification.  Here every
stage up to identification runs as a pass of one single walk over the
binary trace, and the engine times each pass, so the harness reports, per
benchmark: the trace generation time, the walk (``fused_analysis``: MLI
collection, dependency analysis, R/W extraction and the induction probe
together, plus decoding and scope records), the paper's pre-processing
(``walk.mli``, the MLI-collection pass) and dependency-analysis
(``walk.dependency``, the DDG pass) shares of that walk, the identify stage
(contraction and classification), their total, and the walk's record
throughput.  Attributing memory accesses to their variables, which every
pass shares, is timed as ``walk.resolve`` and counted in neither share.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.apps.base import AppDefinition
from repro.apps.registry import all_apps, get_app
from repro.codegen.lowering import compile_source
from repro.core.config import AutoCheckConfig
from repro.core.pipeline import AutoCheck
from repro.tracer.driver import trace_to_file
from repro.util.formatting import render_table


@dataclass
class Table3Row:
    """One row of the regenerated Table III (times in seconds)."""

    name: str
    trace_bytes: int
    #: tracing interpreter run writing the binary trace
    trace_generation: float
    #: the single-pass walk (every pass up to identification)
    walk: float
    #: the walk's MLI-collection pass (the paper's pre-processing)
    preprocessing: float
    #: the walk's DDG pass (the paper's dependency analysis)
    dependency_analysis: float
    #: DDG contraction and critical-variable classification
    identify_variables: float
    #: records walked
    record_count: int = 0

    @property
    def total(self) -> float:
        return self.walk + self.identify_variables

    @property
    def records_per_second(self) -> float:
        if self.walk <= 0:
            return 0.0
        return self.record_count / self.walk


def run_table3(apps: Optional[Sequence[str]] = None,
               trace_dir: Optional[str] = None,
               params_override: Optional[Dict[str, Dict[str, int]]] = None,
               ) -> List[Table3Row]:
    """Regenerate Table III for the selected benchmarks (default: all 14)."""
    selected: List[AppDefinition]
    if apps is None:
        selected = all_apps()
    else:
        selected = [get_app(name) for name in apps]

    own_dir: Optional[tempfile.TemporaryDirectory] = None
    if trace_dir is None:
        own_dir = tempfile.TemporaryDirectory(prefix="autocheck-table3-")
        trace_dir = own_dir.name

    rows: List[Table3Row] = []
    try:
        for app in selected:
            params = (params_override or {}).get(app.name, {})
            source = app.source(**params)
            module = compile_source(source, module_name=app.name)
            spec = app.main_loop(source)
            trace_path = os.path.join(trace_dir, f"{app.name}.btrace")
            start = time.perf_counter()
            trace_bytes, _ = trace_to_file(module, trace_path,
                                           module_name=app.name, fmt="binary")
            generation = time.perf_counter() - start
            config = AutoCheckConfig(main_loop=spec, **app.autocheck_options)
            report = AutoCheck(config, trace_path=trace_path,
                               module=module).run()
            rows.append(Table3Row(
                name=app.title,
                trace_bytes=trace_bytes,
                trace_generation=generation,
                walk=report.timings.get("fused_analysis"),
                preprocessing=report.timings.get("walk.mli"),
                dependency_analysis=report.timings.get("walk.dependency"),
                identify_variables=report.timings.get("identify_variables"),
                record_count=report.trace_stats.record_count,
            ))
    finally:
        if own_dir is not None:
            own_dir.cleanup()
    return rows


def format_table3(rows: Sequence[Table3Row]) -> str:
    table_rows = []
    for row in rows:
        table_rows.append((
            row.name,
            f"{row.trace_generation:.3f}",
            f"{row.walk:.3f}",
            f"{row.preprocessing:.3f}",
            f"{row.dependency_analysis:.3f}",
            f"{row.identify_variables:.4f}",
            f"{row.total:.3f}",
            f"{row.records_per_second / 1000:.0f}",
        ))
    return render_table(
        ("Name", "Trace Generation (s)", "Walk (s)", "Pre-processing (s)",
         "Dependency Analysis (s)", "Identify Variables (s)",
         "Total Time (s)", "Walk (krec/s)"),
        table_rows)


def main() -> None:  # pragma: no cover - thin CLI wrapper
    rows = run_table3()
    print(format_table3(rows))


if __name__ == "__main__":  # pragma: no cover
    main()
