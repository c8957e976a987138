"""Top-level convenience API.

These helpers cover the common end-to-end flow: compile a mini-C program,
execute it under the tracing interpreter, and run the AutoCheck analysis on
the resulting dynamic trace.
"""

from __future__ import annotations

from repro.codegen.lowering import compile_source
from repro.core.config import AutoCheckConfig, MainLoopSpec
from repro.core.pipeline import AutoCheck
from repro.core.report import AutoCheckReport
from repro.ir.module import Module
from repro.tracer.driver import run_and_trace


def autocheck_module(module: Module, main_loop: MainLoopSpec,
                     seed: int = 314159,
                     **config_kwargs) -> AutoCheckReport:
    """Trace a compiled module and run AutoCheck on the dynamic trace.

    Args:
        module: a compiled :class:`~repro.ir.module.Module` (see
            :func:`repro.codegen.lowering.compile_source`).
        main_loop: location of the main computation loop — the function
            containing it plus its source line range.
        seed: RNG seed for the traced execution (kept fixed so repeated
            analyses see the same dynamic trace).
        **config_kwargs: forwarded to
            :class:`~repro.core.config.AutoCheckConfig` (e.g.
            ``induction_variable``, ``include_global_accesses_in_calls``).
            The trace is in-memory here: the walk reads the binary bytes
            the interpreter emitted.  The artifact store
            (``use_cache=True``) applies too: those bytes carry the digest
            the trace's on-disk binary file carries, so repeated analyses
            of an identical trace return the stored report without a
            record walk — and share entries with file-based runs of the
            same trace.

    Returns:
        The full :class:`~repro.core.report.AutoCheckReport` — critical
        variables, MLI set, DDGs, R/W sequences, timings and trace stats.

    Raises:
        RuntimeError: when the traced execution hits a simulated failure
            (AutoCheck expects a failure-free trace).
    """
    trace, result = run_and_trace(module, module_name=module.name, seed=seed)
    if result.failed:
        raise RuntimeError("traced execution hit a simulated failure; "
                           "AutoCheck expects a failure-free trace")
    config = AutoCheckConfig(main_loop=main_loop, **config_kwargs)
    return AutoCheck(config, trace=trace, module=module).run()


def autocheck_source(source: str, main_loop: MainLoopSpec,
                     module_name: str = "module", seed: int = 314159,
                     **config_kwargs) -> AutoCheckReport:
    """Compile mini-C ``source``, trace it, and run AutoCheck.

    Args:
        source: mini-C program text.
        main_loop: location of the main computation loop in ``source``.
        module_name: name for the compiled module (appears in reports).
        seed: RNG seed for the traced execution.
        **config_kwargs: forwarded to
            :class:`~repro.core.config.AutoCheckConfig`.

    Returns:
        The full :class:`~repro.core.report.AutoCheckReport`.
    """
    module = compile_source(source, module_name=module_name)
    return autocheck_module(module, main_loop, seed=seed, **config_kwargs)
