"""Configuration objects for the AutoCheck pipeline.

Per the paper (Sec. VII, "Use of AutoCheck") the user supplies:

1. the dynamic execution trace of the target program,
2. the main computation loop's start and end line numbers, and
3. the name of the function containing the main computation loop.

:class:`MainLoopSpec` captures (2) and (3); :class:`AutoCheckConfig` adds the
optional global-variable workaround discussed for FT in Sec. V-B, a known
induction variable and the artifact store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from repro.core.varmap import VariableInfo


@dataclass(frozen=True)
class MainLoopSpec:
    """Location of the main computation loop in the source program.

    The paper's user-supplied input (Sec. VII): AutoCheck needs to know
    which function hosts the main computation loop and the loop's source
    line range (the MCLR of Table II).
    """

    #: Name of the function containing the main computation loop.
    function: str
    #: First source line of the loop (inclusive; the controlling line).
    start_line: int
    #: Last source line of the loop (inclusive).
    end_line: int

    def __post_init__(self) -> None:
        if self.start_line <= 0 or self.end_line < self.start_line:
            raise ValueError(
                f"invalid main computation loop range "
                f"[{self.start_line}, {self.end_line}]")

    def contains_line(self, line: int) -> bool:
        """True when ``line`` lies within the loop's source range."""
        return self.start_line <= line <= self.end_line

    def is_candidate(self, info: VariableInfo) -> bool:
        """True when ``info`` can be a main-loop variable: a global, or an
        allocation of the main-loop function (Challenge 2: a callee's
        same-named local must not pass for the loop's variable)."""
        return info.is_global or info.function == self.function

    @property
    def mclr(self) -> str:
        """Human readable MCLR string as used in paper Table II."""
        return f"{self.start_line}-{self.end_line}"


@dataclass
class AutoCheckConfig:
    """Tunable options of the analysis."""

    main_loop: MainLoopSpec
    #: Also collect global-variable accesses made inside function calls when
    #: gathering the before/inside variable sets.  The paper keeps this off
    #: and instead initializes such globals right before the main loop (the
    #: FT workaround of Sec. V-B); the switch exists to study that choice.
    include_global_accesses_in_calls: bool = False
    #: Name of the induction variable, if the caller already knows it (e.g.
    #: from the static loop analysis).  When ``None`` the pipeline falls back
    #: to its own detection.
    induction_variable: Optional[str] = None
    #: Consult the content-addressed artifact store (:mod:`repro.store`)
    #: before running the analysis, and publish the result into it after.
    #: A hit — same trace content digest, same semantic config fingerprint,
    #: same report schema — skips the record walk entirely and deserializes
    #: the stored report.  Off by default; the CLI exposes it as
    #: ``--cache`` / ``--no-cache``.
    use_cache: bool = False
    #: Root directory of the artifact store.  ``None`` uses
    #: ``$AUTOCHECK_CACHE_DIR`` or ``~/.cache/autocheck`` (see
    #: :func:`repro.store.cache.default_cache_dir`).
    cache_dir: Optional[str] = None
    #: Optional progress hook for long walks: called with the cumulative
    #: number of trace records consumed so far, once per decoded block of
    #: the engine walk.  The serve daemon points this at a job's progress
    #: counter so ``GET /jobs/<id>`` can stream live progress; it is per-run
    #: plumbing, not analysis semantics — excluded from equality, repr and
    #: the artifact-store fingerprint, and it must be picklable (or
    #: ``None``) if the config crosses process boundaries.
    progress_callback: Optional[Callable[[int], None]] = field(
        default=None, compare=False, repr=False)
