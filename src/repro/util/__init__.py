"""Utility helpers shared across the AutoCheck reproduction.

The utilities are intentionally small and dependency-free: deterministic
pseudo-random number generation (so traces are reproducible run to run),
wall-clock timing helpers used by the efficiency study (Table III), human
readable byte/size formatting used by the storage study (Table IV), and a
minimal table renderer used by the experiment harnesses.
"""

from repro.util.timing import TimingBreakdown
from repro.util.rng import DeterministicRNG
from repro.util.formatting import format_bytes, format_seconds, render_table
from repro.util.logging import get_logger

__all__ = [
    "TimingBreakdown",
    "DeterministicRNG",
    "format_bytes",
    "format_seconds",
    "render_table",
    "get_logger",
]
