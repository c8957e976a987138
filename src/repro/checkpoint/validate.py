"""Restart validation and necessity (false-positive) studies.

Reproduces the two checks of paper Sec. VI-B:

* **Sufficiency** — protect the AutoCheck-detected variables, inject a
  fail-stop failure in the middle of the main computation loop, restart, and
  verify the program output matches a failure-free run ("all the 14
  benchmarks restart successfully").
* **Necessity / false positives** — disable the checkpoint of one detected
  variable at a time and verify the restarted output is *no longer* correct
  (the paper "didn't find unnecessary (false-positive) variables").
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checkpoint.fti import FTIConfig
from repro.checkpoint.instrument import CheckpointInstrumenter, InstrumentedRun
from repro.core.config import MainLoopSpec
from repro.ir.module import Module
from repro.tracer.interpreter import Interpreter, InterpreterError


@dataclass
class ValidationResult:
    """Outcome of the sufficiency check for one benchmark.

    ``restarted_output`` is the *combined* observable output of the failed
    run (everything printed before the fail-stop failure) followed by the
    restarted run — which is what an operator actually sees on disk after a
    real failure+restart cycle, and what must equal the failure-free output.
    """

    benchmark: str
    protected_variables: List[str]
    fail_at_iteration: int
    failure_free_output: List[str]
    restarted_output: List[str]
    failed_run_output: List[str]
    restart_run_output: List[str]
    failed_run_completed: bool
    restored_iteration: Optional[int]
    checkpoint_bytes: int

    @property
    def restart_successful(self) -> bool:
        return self.restarted_output == self.failure_free_output

    def summary(self) -> str:
        status = "OK" if self.restart_successful else "MISMATCH"
        return (f"{self.benchmark}: restart {status} "
                f"(failure at iteration {self.fail_at_iteration}, "
                f"restored from iteration {self.restored_iteration}, "
                f"{len(self.protected_variables)} protected variables)")


@dataclass
class NecessityResult:
    """Outcome of the per-variable ablation (false-positive) study."""

    benchmark: str
    #: variable name -> True when dropping it corrupted the restarted output
    #: (i.e. the variable is genuinely necessary, not a false positive).
    necessary: Dict[str, bool] = field(default_factory=dict)

    @property
    def false_positives(self) -> List[str]:
        return [name for name, needed in self.necessary.items() if not needed]

    @property
    def all_necessary(self) -> bool:
        return not self.false_positives


class RestartValidator:
    """Drive the sufficiency and necessity studies for one application."""

    def __init__(self, module: Module, main_loop: MainLoopSpec,
                 benchmark: str = "benchmark", seed: int = 314159,
                 checkpoint_dir: Optional[str] = None) -> None:
        self.module = module
        self.main_loop = main_loop
        self.benchmark = benchmark
        self.seed = seed
        self._own_dir: Optional[tempfile.TemporaryDirectory] = None
        if checkpoint_dir is None:
            self._own_dir = tempfile.TemporaryDirectory(prefix="autocheck-ckpt-")
            checkpoint_dir = self._own_dir.name
        self.checkpoint_dir = checkpoint_dir
        self._instrumenter: Optional[CheckpointInstrumenter] = None

    # ------------------------------------------------------------------ #
    # Building blocks
    # ------------------------------------------------------------------ #
    def failure_free_output(self) -> List[str]:
        with Interpreter(self.module, trace_sink=None,
                         seed=self.seed) as interpreter:
            result = interpreter.run()
        if result.failed:
            raise RuntimeError("failure-free run unexpectedly failed")
        return result.output

    def _run_failure_then_restart(self, variables: Sequence[str],
                                  fail_at_iteration: int,
                                  recover_names: Optional[Sequence[str]],
                                  directory: str,
                                  ) -> Tuple[InstrumentedRun, InstrumentedRun]:
        # One instrumenter (one interpreter) serves every study run.
        if self._instrumenter is None:
            self._instrumenter = CheckpointInstrumenter(
                self.module, self.main_loop, seed=self.seed)
        config = FTIConfig(directory=directory)
        failed_run = self._instrumenter.run(
            variables, config, restart=False,
            fail_at_iteration=fail_at_iteration)
        restart_run = self._instrumenter.run(
            variables, config, restart=True, fail_at_iteration=None,
            recover_names=recover_names)
        return failed_run, restart_run

    # ------------------------------------------------------------------ #
    # Studies
    # ------------------------------------------------------------------ #
    def validate(self, variables: Sequence[str],
                 fail_at_iteration: int = 3) -> ValidationResult:
        """Sufficiency study: does restarting with ``variables`` reproduce the
        failure-free output?"""
        reference = self.failure_free_output()
        directory = os.path.join(self.checkpoint_dir, "sufficiency")
        failed_run, restart_run = self._run_failure_then_restart(
            variables, fail_at_iteration, recover_names=None, directory=directory)
        combined = list(failed_run.output) + list(restart_run.output)
        return ValidationResult(
            benchmark=self.benchmark,
            protected_variables=list(variables),
            fail_at_iteration=fail_at_iteration,
            failure_free_output=reference,
            restarted_output=combined,
            failed_run_output=list(failed_run.output),
            restart_run_output=list(restart_run.output),
            failed_run_completed=not failed_run.failed,
            restored_iteration=restart_run.restored_iteration,
            checkpoint_bytes=restart_run.fti.checkpoint_bytes(),
        )

    def necessity_study(self, variables: Sequence[str],
                        check_variables: Optional[Sequence[str]] = None,
                        fail_at_iteration: int = 3) -> NecessityResult:
        """Ablation: drop one protected variable at a time from recovery.

        A variable is *necessary* when the restart without it produces output
        different from the failure-free run; a variable whose omission goes
        unnoticed would be a false positive.
        """
        reference = self.failure_free_output()
        result = NecessityResult(benchmark=self.benchmark)
        to_check = list(check_variables) if check_variables is not None else list(variables)
        for dropped in to_check:
            recover_names = [name for name in variables if name != dropped]
            directory = os.path.join(self.checkpoint_dir, f"ablate_{dropped}")
            try:
                failed_run, restart_run = self._run_failure_then_restart(
                    variables, fail_at_iteration, recover_names=recover_names,
                    directory=directory)
            except InterpreterError:
                # The restart without this variable crashed outright (e.g. a
                # division by a non-restored accumulator) — the strongest
                # possible evidence that the variable is necessary.
                result.necessary[dropped] = True
                continue
            combined = list(failed_run.output) + list(restart_run.output)
            result.necessary[dropped] = combined != reference
        return result

    def close(self) -> None:
        if self._instrumenter is not None:
            self._instrumenter.close()
            self._instrumenter = None
        if self._own_dir is not None:
            self._own_dir.cleanup()
            self._own_dir = None

    def __enter__(self) -> "RestartValidator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
