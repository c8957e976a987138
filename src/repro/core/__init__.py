"""``repro.core`` — the AutoCheck analytical model itself.

This package implements the three modules of the paper's design (Fig. 2):

1. **Pre-processing** (:mod:`repro.core.preprocessing`) — identify the
   Main-Loop-Input (MLI) variables by matching the variables accessed before
   and inside the main computation loop (Sec. IV-A, Fig. 3), with the
   address-based disambiguation of Challenges 1 and 2 (Sec. V-B/V-C).
2. **Data dependency analysis** (:mod:`repro.core.dependency`,
   :mod:`repro.core.ddg`, :mod:`repro.core.contraction`) — selectively
   iterate the dynamic instructions, build the complete DDG through the
   on-the-fly *reg-var map* (Sec. IV-B, Fig. 5; the *reg-reg map* is the
   DDG's register-to-register edges), and contract it to MLI variables
   only (Algorithm 1).
3. **Identification of critical variables** (:mod:`repro.core.rwdeps`,
   :mod:`repro.core.classify`) — convert the dependencies into an
   execution-time-ordered Read/Write sequence and apply the WAR / Outcome /
   RAPO / Index heuristics (Sec. IV-C, Fig. 7).

:class:`repro.core.pipeline.AutoCheck` ties the three modules together:
all three run as passes over one single-pass columnar walk
(:class:`repro.core.engine.AnalysisEngine`), which also partitions the
trace around the loop on the fly.
"""

from repro.core.config import AutoCheckConfig, MainLoopSpec
from repro.core.engine import (
    REGION_AFTER,
    REGION_BEFORE,
    REGION_INSIDE,
    AnalysisEngine,
    AnalysisPass,
    EngineWalk,
)
from repro.core.errors import AnalysisError
from repro.core.report import (
    AutoCheckReport,
    CacheInfo,
    CriticalVariable,
    DependencyType,
)
from repro.core.varmap import VariableInfo, VariableMap
from repro.core.preprocessing import (
    MLICollectionPass,
    MLIVariable,
    PreprocessingResult,
)
from repro.core.ddg import DDG, DDGNode, NodeKind
from repro.core.dependency import DependencyPass, DependencyResult
from repro.core.contraction import contract_ddg
from repro.core.rwdeps import AccessEvent, AccessKind, RWExtractionPass
from repro.core.classify import classify_variables
from repro.core.pipeline import (
    AutoCheck,
    InductionProbePass,
    PassWalk,
    analyze_trace,
)

__all__ = [
    "AutoCheckConfig",
    "MainLoopSpec",
    "AnalysisError",
    "AnalysisEngine",
    "AnalysisPass",
    "EngineWalk",
    "REGION_BEFORE",
    "REGION_INSIDE",
    "REGION_AFTER",
    "AutoCheckReport",
    "CacheInfo",
    "CriticalVariable",
    "DependencyType",
    "VariableInfo",
    "VariableMap",
    "MLICollectionPass",
    "MLIVariable",
    "PreprocessingResult",
    "DDG",
    "DDGNode",
    "NodeKind",
    "DependencyPass",
    "DependencyResult",
    "contract_ddg",
    "AccessEvent",
    "AccessKind",
    "RWExtractionPass",
    "classify_variables",
    "AutoCheck",
    "InductionProbePass",
    "PassWalk",
    "analyze_trace",
]
