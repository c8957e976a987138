"""``repro.checkpoint`` — Checkpoint/Restart substrate.

The paper validates AutoCheck's output by protecting the detected variables
with FTI (L1 local checkpoints), injecting a fail-stop failure inside the
main computation loop, restarting, and comparing the output against a
failure-free run; it also compares checkpoint storage cost against BLCR's
whole-process checkpoints (Table IV).  This package reproduces all of that
against the tracing interpreter:

* :mod:`repro.checkpoint.fti` — an FTI-like protect/checkpoint/recover API
  with pluggable storage;
* :mod:`repro.checkpoint.storage` — local (L1-style) checkpoint files;
* :mod:`repro.checkpoint.instrument` — inserts "read checkpoint before the
  main loop / write checkpoint each iteration" into interpreted runs, plus
  fail-stop fault injection;
* :mod:`repro.checkpoint.validate` — the restart-validation and per-variable
  necessity (false-positive) studies of Sec. VI-B;
* :mod:`repro.checkpoint.blcr` — the BLCR-style whole-process storage-cost
  baseline of Table IV.
"""

from repro.checkpoint.storage import (
    CheckpointData,
    CheckpointError,
    CheckpointStorage,
)
from repro.checkpoint.fti import FTI, FTIConfig, FTILevel, FTIError
from repro.checkpoint.instrument import CheckpointInstrumenter, InstrumentedRun
from repro.checkpoint.validate import (
    NecessityResult,
    RestartValidator,
    ValidationResult,
)
from repro.checkpoint.blcr import BLCRModel, StorageComparison, compare_storage_cost

__all__ = [
    "CheckpointData",
    "CheckpointError",
    "CheckpointStorage",
    "FTI",
    "FTIConfig",
    "FTILevel",
    "FTIError",
    "CheckpointInstrumenter",
    "InstrumentedRun",
    "NecessityResult",
    "RestartValidator",
    "ValidationResult",
    "BLCRModel",
    "StorageComparison",
    "compare_storage_cost",
]
