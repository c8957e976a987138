"""Checkpoint instrumentation of interpreted runs.

The paper inserts C/R calls at two points (Sec. II-B, "C/R insertion"):
reading checkpoints right before the main computation loop, and writing
checkpoints at the end of every loop iteration.  On the interpreter the same
effect is achieved with block-entry hooks on the main loop's *header* block:

* entering the header for the first time happens right before the first
  iteration — that is where a restarting run restores the protected
  variables (including the induction variable, so execution continues from
  the iteration after the last checkpoint);
* every subsequent header entry marks the completion of one iteration — that
  is where checkpoints are written.

Fail-stop failures are injected on entry to the loop *body* block, i.e. the
process dies mid-iteration, which is the harshest point for consistency.

One :class:`CheckpointInstrumenter` serves every instrumented run of a
module: it finds the main loop once and holds one execute-only
:class:`~repro.tracer.interpreter.Interpreter`, whose blocks each run
reuses.  What differs between runs (the protected variables, the FTI
configuration, restart and failure injection) is passed to
:meth:`CheckpointInstrumenter.run`.  Close the instrumenter (or use it in
a ``with`` block) to release its interpreter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.induction import find_main_loop
from repro.analysis.loops import find_loops
from repro.checkpoint.fti import FTI, FTIConfig
from repro.checkpoint.storage import CheckpointData
from repro.core.config import MainLoopSpec
from repro.ir.module import Module
from repro.tracer.faults import FaultInjector, SimulatedFailure
from repro.tracer.interpreter import ExecutionResult, HookContext, Interpreter


class InstrumentationError(Exception):
    """Raised when the main loop cannot be located in the module."""


@dataclass
class InstrumentedRun:
    """Outcome of one instrumented execution."""

    result: ExecutionResult
    fti: FTI
    checkpoints_written: int = 0
    restored_iteration: Optional[int] = None
    #: Protected names that had no live allocation at the main loop and were
    #: skipped (only populated with ``on_missing="skip"``).
    skipped_variables: List[str] = field(default_factory=list)
    #: name -> size_bytes of every variable live at the first header entry
    #: (globals plus the main-loop frame's stack allocations).  This is the
    #: "full application state" a naive checkpointer would have to save.
    loop_variables: Dict[str, int] = field(default_factory=dict)

    @property
    def output(self) -> List[str]:
        return self.result.output

    @property
    def failed(self) -> bool:
        return self.result.failed


class CheckpointInstrumenter:
    """Wire an FTI instance into interpreted executions of a module."""

    def __init__(self, module: Module, main_loop: MainLoopSpec,
                 seed: int = 314159, on_missing: str = "error") -> None:
        if on_missing not in ("error", "skip"):
            raise ValueError(
                f"on_missing must be 'error' or 'skip', got {on_missing!r}")
        self.module = module
        self.main_loop = main_loop
        self.on_missing = on_missing

        function = module.function(main_loop.function)
        loops = find_loops(function)
        loop = find_main_loop(function, main_loop.start_line, main_loop.end_line,
                              loop_info=loops)
        if loop is None:
            raise InstrumentationError(
                f"no loop found in {main_loop.function!r} within lines "
                f"{main_loop.mclr}")
        self.loop = loop
        self.header_block = loop.header.name
        terminator = loop.header.terminator
        targets = getattr(terminator, "targets", [])
        if not targets:
            raise InstrumentationError("main loop header has no branch targets")
        self.body_block = targets[0].name
        self.interpreter = Interpreter(module, trace_sink=None, seed=seed)

    def close(self) -> None:
        """Release the interpreter's compiled blocks."""
        self.interpreter.close()

    def __enter__(self) -> "CheckpointInstrumenter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Variable plumbing
    # ------------------------------------------------------------------ #
    def _register_protected(self, fti: FTI, protected: Sequence[str],
                            context: HookContext) -> List[str]:
        """Bind each protected variable name to interpreter memory accessors.

        Returns the names that could not be resolved (only possible with
        ``on_missing="skip"``; with the default ``"error"`` an unresolvable
        name raises :class:`InstrumentationError`).
        """
        skipped: List[str] = []
        interpreter = self.interpreter
        for vid, name in enumerate(protected):
            if name in fti.protected_names():
                continue
            allocation = interpreter.resolve_variable(name, frame=context.frame)
            if allocation is None:
                if self.on_missing == "skip":
                    skipped.append(name)
                    continue
                raise InstrumentationError(
                    f"protected variable {name!r} has no allocation at the "
                    f"main loop (is it declared in {self.main_loop.function!r}?)")
            memory = interpreter.memory

            def reader(alloc=allocation):
                return memory.read_block(alloc)

            def writer(values, alloc=allocation):
                memory.write_block(alloc, values)

            fti.protect(vid, name, allocation.size_bytes, reader, writer)
        return skipped

    @staticmethod
    def _snapshot_loop_variables(interpreter: Interpreter,
                                 context: HookContext) -> Dict[str, int]:
        """Name -> size_bytes of every allocation live at the main loop."""
        live: Dict[str, int] = {
            name: alloc.size_bytes
            for name, alloc in interpreter.global_allocations.items()
        }
        if context.frame is not None:
            for name, alloc in context.frame.allocations.items():
                live[name] = alloc.size_bytes
        return live

    # ------------------------------------------------------------------ #
    # Runs
    # ------------------------------------------------------------------ #
    def run(self, protected_variables: Sequence[str], fti_config: FTIConfig,
            restart: bool = False, fail_at_iteration: Optional[int] = None,
            recover_names: Optional[Sequence[str]] = None,
            fail_at_checkpoint_write: Optional[int] = None,
            max_steps: int = 50_000_000) -> InstrumentedRun:
        """Execute the module with checkpoint instrumentation.

        ``protected_variables`` are checkpointed through an FTI instance
        over ``fti_config``; a restart run passes the failed run's
        variables and configuration.  ``restart=True`` restores the
        protected variables from the latest checkpoint when the main loop
        is first entered.  ``fail_at_iteration`` injects a fail-stop
        failure on entry to that iteration's body.  ``recover_names``
        optionally restricts which variables are restored (the
        necessity/false-positive study).  ``fail_at_checkpoint_write=w``
        kills the run during its ``w``-th (1-based) checkpoint write: a torn
        tmp file is left on disk and the write never commits, modelling a
        crash inside the write()/os.replace() window.  ``max_steps`` is
        the run's instruction budget.
        """
        fti = FTI(fti_config)
        if fail_at_checkpoint_write is not None:
            self._arm_torn_write(fti, fail_at_checkpoint_write)
        interpreter = self.interpreter
        interpreter.max_steps = max_steps
        run_info = InstrumentedRun(result=None, fti=fti)  # type: ignore[arg-type]
        state = {"registered": False, "restored": False}

        def header_hook(context: HookContext) -> None:
            if not state["registered"]:
                run_info.skipped_variables = self._register_protected(
                    fti, protected_variables, context)
                run_info.loop_variables = self._snapshot_loop_variables(
                    interpreter, context)
                state["registered"] = True
            if restart and not state["restored"]:
                state["restored"] = True
                recovered = fti.try_recover(names=recover_names)
                if recovered is not None:
                    run_info.restored_iteration = recovered.iteration
                return
            # Header entry N (N >= 1) marks completion of iteration N-1.
            fti.checkpoint(iteration=context.entry_count)
            run_info.checkpoints_written = fti.checkpoints_written

        interpreter.register_block_hook(self.main_loop.function,
                                        self.header_block, header_hook)
        if fail_at_iteration is not None:
            injector = FaultInjector(function=self.main_loop.function,
                                     block=self.body_block,
                                     fail_at_entry=fail_at_iteration)
            interpreter.register_block_hook(self.main_loop.function,
                                            self.body_block, injector)

        result = interpreter.run()
        run_info.result = result
        run_info.checkpoints_written = fti.checkpoints_written
        return run_info

    @staticmethod
    def _arm_torn_write(fti: FTI, fail_at_write: int) -> None:
        """Make the ``fail_at_write``-th storage write crash mid-window.

        The doomed write leaves a truncated ``*.json.tmp*`` file behind (as a
        real crash between ``open`` and ``os.replace`` would) and raises
        :class:`SimulatedFailure` before the rename, so the previous complete
        checkpoint must remain the recovery point.
        """
        if fail_at_write < 1:
            raise ValueError("fail_at_checkpoint_write must be >= 1")
        storage = fti.storage
        original_write = storage.write
        attempts = {"count": 0}

        def failing_write(checkpoint: CheckpointData) -> str:
            attempts["count"] += 1
            if attempts["count"] == fail_at_write:
                torn_path = (storage._path_for(checkpoint.iteration)
                             + ".tmp.torn")
                payload = json.dumps({"iteration": checkpoint.iteration,
                                      "variables": checkpoint.variables})
                with open(torn_path, "w", encoding="utf-8") as handle:
                    handle.write(payload[:max(1, len(payload) // 2)])
                raise SimulatedFailure(
                    f"simulated crash during checkpoint write "
                    f"(iteration {checkpoint.iteration})",
                    iteration=checkpoint.iteration)
            return original_write(checkpoint)

        storage.write = failing_write  # type: ignore[method-assign]
