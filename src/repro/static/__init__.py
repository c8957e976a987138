"""Static IR dataflow subsystem.

The static complement of the dynamic trace pipeline: CFG / dominator /
natural-loop structure (reused from :mod:`repro.analysis`), def-use
chains, an alias-conservative interprocedural may-point-to analysis,
per-block variable liveness, a static MLI-candidate set and a static
DDG over-approximation — plus the three consumers built on top:

* :mod:`repro.static.check` — the static-vs-dynamic cross-check oracle
  (``analyze --static-check``);
* :mod:`repro.static.prefilter` — the engine's record skip filter
  (``static_prefilter`` config switch);
* :mod:`repro.static.textreport` — the ``static-report`` CLI verb.

See ``docs/static.md`` for the lattice and the soundness argument.
"""

from repro.static.check import (
    StaticCheckError,
    StaticDiagnostic,
    cross_check,
    require_clean,
)
from repro.static.dataflow import (
    TOP,
    DefUseChains,
    LivenessResult,
    PointerAnalysis,
    VarId,
    build_def_use,
    compute_liveness,
    global_id,
    local_id,
)
from repro.static.prefilter import StaticPrefilter, build_prefilter
from repro.static.summary import (
    FunctionSummary,
    StaticDDG,
    StaticModuleAnalysis,
    analyze_module,
)
from repro.static.textreport import render_static_report

__all__ = [
    "TOP",
    "DefUseChains",
    "FunctionSummary",
    "LivenessResult",
    "PointerAnalysis",
    "StaticCheckError",
    "StaticDDG",
    "StaticDiagnostic",
    "StaticModuleAnalysis",
    "StaticPrefilter",
    "VarId",
    "analyze_module",
    "build_def_use",
    "build_prefilter",
    "compute_liveness",
    "cross_check",
    "global_id",
    "local_id",
    "render_static_report",
    "require_clean",
]
