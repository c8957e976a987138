"""Crash-consistency tests for CheckpointStorage and the torn-write path.

A checkpoint writer can die anywhere, including inside the
``write()``/``os.replace()`` window.  A reader (the restarting process) must
never observe a torn checkpoint, recovery must fall back to the previous
complete one, and a restarted process must reclaim the stale tmp files the
dead writer left behind.  A file that is not a checkpoint is refused with
a :class:`CheckpointError` naming it.
"""

import functools
import json
import os
from types import SimpleNamespace

import pytest

from repro.checkpoint.fti import FTI, FTIConfig
from repro.checkpoint.instrument import CheckpointInstrumenter
from repro.checkpoint.storage import (
    CheckpointData,
    CheckpointError,
    CheckpointStorage,
)
from repro.core.config import MainLoopSpec
from repro.tracer.faults import SimulatedFailure


def _checkpoint(iteration, value):
    return CheckpointData(iteration=iteration,
                          variables={"x": [value]}, sizes_bytes={"x": 4})


def test_checkpoint_file_is_one_json_dumps(tmp_path):
    """A checkpoint's text is ``json.dumps`` of its payload (the C encoder,
    byte-identical to streaming ``json.dump``) and loads back equal."""
    storage = CheckpointStorage(str(tmp_path))
    checkpoint = CheckpointData(iteration=3,
                                variables={"x": [1, 2.5], "y": [-7]},
                                sizes_bytes={"x": 16, "y": 4})
    path = storage.write(checkpoint)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    assert text == json.dumps({"iteration": 3,
                               "variables": checkpoint.variables,
                               "sizes_bytes": checkpoint.sizes_bytes})
    assert storage.load(path) == checkpoint


#: Checkpoint files that are not checkpoints, and what the refusal says.
MALFORMED_CHECKPOINTS = {
    "no variables": (b'{"iteration": 3}', "'variables'"),
    "a list": (b"[]", "JSON list, not an object"),
    "variables a list": (b'{"iteration": 1, "variables": [1]}',
                         "'variables'"),
    "nested past the parser": (b"[" * 100000, "is not JSON"),
    "not JSON": (b"nope", "is not JSON"),
    "not UTF-8": (b"\xff", "is not JSON"),
    "iteration a string": (b'{"iteration": "3", "variables": {}}',
                           "iteration '3'"),
    "a value not a number": (b'{"iteration": 3, "variables": {"x": ["1"]}}',
                             "'variables'"),
    "a size not an integer": (
        b'{"iteration": 3, "variables": {}, "sizes_bytes": {"x": 1.5}}',
        "'sizes_bytes'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_is_refused_naming_the_file(tmp_path, case):
    contents, problem = MALFORMED_CHECKPOINTS[case]
    storage = CheckpointStorage(str(tmp_path))
    path = os.path.join(str(tmp_path), "ckpt_00000003.json")
    with open(path, "wb") as handle:
        handle.write(contents)
    for read in (lambda: storage.load(path), storage.latest):
        with pytest.raises(CheckpointError) as excinfo:
            read()
        assert path in str(excinfo.value)
        assert problem in str(excinfo.value)


class TestWriterKilledMidReplace:
    def test_reader_never_observes_torn_checkpoint(self, tmp_path,
                                                   monkeypatch):
        storage = CheckpointStorage(str(tmp_path))
        storage.write(_checkpoint(1, 10))

        # Kill the writer after the tmp file is fully written but before the
        # rename commits — the narrowest window of the protocol.
        real_replace = os.replace

        def dying_replace(src, dst):
            raise SimulatedFailure("power loss mid-replace")

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(SimulatedFailure):
            storage.write(_checkpoint(2, 20))
        monkeypatch.setattr(os, "replace", real_replace)

        # The torn attempt is invisible to every read path...
        assert [os.path.basename(p) for p in storage.list_paths()] \
            == ["ckpt_00000001.json"]
        latest = storage.latest()
        assert latest.iteration == 1
        assert latest.variables["x"] == [10]
        # ...but its tmp file is still on disk (nothing cleaned it yet).
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if ".json.tmp" in name]
        assert leftovers

    def test_restarted_process_reclaims_stale_tmp_files(self, tmp_path,
                                                        monkeypatch):
        storage = CheckpointStorage(str(tmp_path))
        storage.write(_checkpoint(1, 10))
        monkeypatch.setattr(os, "replace",
                            lambda src, dst: (_ for _ in ()).throw(
                                SimulatedFailure("crash")))
        with pytest.raises(SimulatedFailure):
            storage.write(_checkpoint(2, 20))
        monkeypatch.undo()

        # A restarting process opens the same directory: stale tmp files are
        # removed, the complete checkpoint survives.
        reopened = CheckpointStorage(str(tmp_path))
        assert not [name for name in os.listdir(str(tmp_path))
                    if ".json.tmp" in name]
        assert reopened.latest().iteration == 1

    def test_torn_tmp_never_shadows_history_rotation(self, tmp_path,
                                                     monkeypatch):
        # keep_history=False keeps exactly the latest complete checkpoint;
        # a torn write must not delete it.
        storage = CheckpointStorage(str(tmp_path), keep_history=False)
        storage.write(_checkpoint(1, 10))
        storage.write(_checkpoint(2, 20))
        assert storage.latest().iteration == 2
        monkeypatch.setattr(os, "replace",
                            lambda src, dst: (_ for _ in ()).throw(
                                SimulatedFailure("crash")))
        with pytest.raises(SimulatedFailure):
            storage.write(_checkpoint(3, 30))
        monkeypatch.undo()
        assert storage.latest().iteration == 2

    def test_tmp_names_are_writer_unique(self, tmp_path, monkeypatch):
        # Two processes writing the same iteration must not collide on the
        # tmp name; ours embeds the pid.
        storage = CheckpointStorage(str(tmp_path))
        seen = {}
        real_open = open

        def spying_open(path, *args, **kwargs):
            if ".json.tmp" in str(path):
                seen["tmp"] = str(path)
            return real_open(path, *args, **kwargs)

        import builtins

        monkeypatch.setattr(builtins, "open", spying_open)
        storage.write(_checkpoint(1, 10))
        assert seen["tmp"].endswith(f".tmp.{os.getpid()}")


class TestFTIRecoveryAfterTornWrite:
    def test_recover_falls_back_to_previous_complete_checkpoint(
            self, tmp_path, monkeypatch):
        config = FTIConfig(directory=str(tmp_path))
        fti = FTI(config)
        value = [100]
        fti.protect(0, "x", 4, lambda: list(value),
                    lambda new: value.__setitem__(0, new[0]))
        fti.checkpoint(iteration=1)
        value[0] = 200
        monkeypatch.setattr(os, "replace",
                            lambda src, dst: (_ for _ in ()).throw(
                                SimulatedFailure("crash")))
        with pytest.raises(SimulatedFailure):
            fti.checkpoint(iteration=2)
        monkeypatch.undo()
        # The torn write was not counted and recovery restores iteration 1.
        assert fti.checkpoints_written == 1
        value[0] = -1
        recovered = fti.recover()
        assert recovered.iteration == 1
        assert value[0] == 100


class TestInstrumentedTornWrite:
    @pytest.fixture()
    def instrumented(self, simple_loop_module, simple_loop_source, tmp_path):
        start, end = None, None
        # simple_loop has no @mclr markers; locate the `it` loop by line.
        for number, line in enumerate(simple_loop_source.splitlines(), 1):
            if "for (int it" in line:
                start = number
            if line.strip() == "}" and start and end is None and number > start:
                end = number
        spec = MainLoopSpec(function="main", start_line=start, end_line=end)
        config = FTIConfig(directory=str(tmp_path / "ckpt"))
        with CheckpointInstrumenter(simple_loop_module, spec) as instrumenter:
            # Every run of these tests protects the same variables in the
            # same directory.
            yield SimpleNamespace(
                run=functools.partial(instrumenter.run,
                                      ["it", "total", "data"], config),
                fti_config=config)

    def test_kill_during_checkpoint_write_then_restart(self, instrumented):
        reference = instrumented.run().output

        failed = instrumented.run(fail_at_checkpoint_write=2)
        assert failed.failed
        assert failed.checkpoints_written == 1  # the torn one never counted
        storage_dir = instrumented.fti_config.directory
        assert any(".json.tmp" in name for name in os.listdir(storage_dir))

        restart = instrumented.run(restart=True)
        assert not restart.failed
        # Restored from the previous complete checkpoint (write 1 committed
        # at header entry 1), and the stale tmp got cleaned on reopen.
        assert restart.restored_iteration == 1
        assert not any(".json.tmp" in name
                       for name in os.listdir(storage_dir))
        assert restart.output == reference

    def test_torn_tmp_content_is_actually_truncated(self, instrumented):
        instrumented.run(fail_at_checkpoint_write=1)
        storage_dir = instrumented.fti_config.directory
        torn = [name for name in os.listdir(storage_dir)
                if ".json.tmp" in name]
        assert torn
        with open(os.path.join(storage_dir, torn[0]),
                  encoding="utf-8") as handle:
            with pytest.raises(json.JSONDecodeError):
                json.load(handle)

    def test_fail_at_checkpoint_write_validation(self, instrumented):
        with pytest.raises(ValueError, match="fail_at_checkpoint_write"):
            instrumented.run(fail_at_checkpoint_write=0)
