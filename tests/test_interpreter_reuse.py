"""An execute-only interpreter runs its module again, and a campaign app
pays its fixed costs once.

Each run of a reused interpreter starts from a fresh machine (memory, RNG
and clock, output, step counter, frames, globals, block entry counts) and
reuses the blocks earlier runs compiled.  Every run must equal a fresh
interpreter's, whatever the run before it did: completed, died of a
simulated failure, or ran out of its instruction budget.  The campaign
runner hands one such interpreter, and one compile, to every instrumented
run of an app.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest
from conftest import FLEET_NAMES

from repro.analysis import find_loops
from repro.apps import get_app
from repro.campaign import CampaignConfig, run_campaign
from repro.codegen import lowering
from repro.codegen.lowering import compile_source
from repro.tracer import (
    FaultInjector,
    Interpreter,
    InterpreterError,
)
from repro.tracer.interpreter import InMemoryTraceSink


def _module(name):
    return compile_source(get_app(name).source(), module_name=name)


def _loop_body(module, name):
    """(function, body block) of ``name``'s main loop."""
    app = get_app(name)
    spec = app.main_loop(app.source())
    loops = find_loops(module.function(spec.function)).loops
    header = next(loop.header for loop in loops
                  if loop.header.first_line == spec.start_line)
    return spec.function, header.terminator.targets[0].name


def _observed(result):
    memory = result.memory
    return (result.output, result.return_value, result.steps, result.failed,
            memory.total_global_bytes, memory.peak_stack_bytes,
            memory.process_image_bytes, dict(memory.cells))


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_a_reused_interpreter_runs_as_a_fresh_one(name):
    """Every run equals a fresh interpreter's run, also right after a run
    that died of a simulated failure and after one that ran out of its
    instruction budget."""
    module = _module(name)
    fresh = _observed(Interpreter(module).run())
    function, body = _loop_body(module, name)
    with Interpreter(module) as interpreter:
        assert _observed(interpreter.run()) == fresh

        interpreter.register_block_hook(
            function, body,
            FaultInjector(function=function, block=body, fail_at_entry=2))
        failed = interpreter.run()
        assert failed.failed and failed.failure.iteration == 2
        assert _observed(interpreter.run()) == fresh

        interpreter.max_steps = fresh[2] // 2
        with pytest.raises(InterpreterError, match="budget"):
            interpreter.run()
        interpreter.max_steps = fresh[2]
        assert _observed(interpreter.run()) == fresh


def test_an_earlier_result_keeps_its_memory():
    module = _module("ep")
    function, body = _loop_body(module, "ep")
    with Interpreter(module) as interpreter:
        first = interpreter.run()
        kept = _observed(first)
        kept_allocations = list(first.memory.stack_allocations)
        interpreter.register_block_hook(
            function, body,
            FaultInjector(function=function, block=body, fail_at_entry=1))
        second = interpreter.run()
        assert second.failed
        assert second.memory is not first.memory
        assert second.memory.cells != first.memory.cells
        assert _observed(first) == kept
        assert first.memory.stack_allocations == kept_allocations


def test_hooks_serve_the_run_they_were_registered_for():
    module = _module("example")
    function, body = _loop_body(module, "example")
    entries = []
    with Interpreter(module) as interpreter:
        interpreter.register_block_hook(
            function, body, lambda context: entries.append(
                context.entry_count))
        interpreter.register_block_hook(
            function, body,
            FaultInjector(function=function, block=body, fail_at_entry=3))
        assert interpreter.run().failed
        assert entries == [1, 2, 3]
        again = interpreter.run()
        assert not again.failed
        assert entries == [1, 2, 3]
        assert interpreter.block_entry_count(function, body) > 3


def test_blocks_are_compiled_once_across_runs(monkeypatch):
    compiled = Counter()
    original = Interpreter._compile_block

    def counting(self, function, block):
        compiled[(function.name, block.name)] += 1
        return original(self, function, block)

    monkeypatch.setattr(Interpreter, "_compile_block", counting)
    with Interpreter(_module("is")) as interpreter:
        for _ in range(3):
            interpreter.run()
    assert compiled and max(compiled.values()) == 1


def test_a_traced_interpreter_runs_once():
    interpreter = Interpreter(_module("example"),
                              trace_sink=InMemoryTraceSink("example"))
    interpreter.run()
    with pytest.raises(InterpreterError, match="runs once"):
        interpreter.run()


# --------------------------------------------------------------------------- #
# The campaign: one compile and one interpreter per app
# --------------------------------------------------------------------------- #
CAMPAIGN_APPS = ["example", "is"]


def _config(tmp_path):
    return CampaignConfig(apps=list(CAMPAIGN_APPS), trials=2, seed=3,
                          cache_dir=str(tmp_path / "cache"))


def test_a_campaign_app_compiles_once_and_each_block_once(tmp_path,
                                                          monkeypatch):
    config = _config(tmp_path)
    cold = run_campaign(config)  # stages the traces and warms the store
    compiles = Counter()
    blocks = Counter()
    original_compile = lowering.compile_source
    original_block = Interpreter._compile_block

    def counting_compile(source, *args, **kwargs):
        module = original_compile(source, *args, **kwargs)
        compiles[module.name] += 1
        return module

    def counting_block(self, function, block):
        blocks[(self.module.name, function.name, block.name)] += 1
        return original_block(self, function, block)

    monkeypatch.setattr(lowering, "compile_source", counting_compile)
    monkeypatch.setattr(Interpreter, "_compile_block", counting_block)
    warm = run_campaign(config)
    assert warm.to_json() == cold.to_json()
    assert warm.all_pass
    assert compiles == {name: 1 for name in CAMPAIGN_APPS}
    assert {app for app, _, _ in blocks} == set(CAMPAIGN_APPS)
    assert max(blocks.values()) == 1


def test_no_interpreter_outlives_its_app_task(tmp_path, monkeypatch):
    """The app task closes its interpreter, and a failed run's result
    holds no frames, so reference counting alone frees every
    interpreter."""
    config = _config(tmp_path)
    run_campaign(config)  # warm: the measured call traces nothing
    made = []
    original_init = Interpreter.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(Interpreter, "__init__", recording_init)
    gc.collect()
    gc.disable()
    try:
        report = run_campaign(config)
        assert report.all_pass
        del report
        assert len(made) == len(CAMPAIGN_APPS)
        assert [reference() for reference in made] == [None] * len(made)
    finally:
        gc.enable()
