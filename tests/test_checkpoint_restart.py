"""Integration tests for checkpoint instrumentation, restart validation and
the BLCR storage model (paper Sec. VI-B and Table IV machinery)."""

import hashlib

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.checkpoint import BLCRModel, RestartValidator, compare_storage_cost
from repro.checkpoint.fti import FTIConfig
from repro.checkpoint.instrument import CheckpointInstrumenter, InstrumentationError
from repro.checkpoint.storage import CheckpointStorage
from repro.core import MainLoopSpec


class TestInstrumenter:
    def test_instrumented_run_writes_checkpoints(self, mg_analysis, tmp_path):
        report = mg_analysis.report
        instrumenter = CheckpointInstrumenter(mg_analysis.module,
                                              report.main_loop)
        run = instrumenter.run(report.names(),
                               FTIConfig(directory=str(tmp_path)))
        assert not run.failed
        assert run.checkpoints_written >= 5
        latest = run.fti.last_checkpoint()
        assert set(latest.variables) == set(report.names())

    def test_fault_injection_stops_run_mid_loop(self, mg_analysis, tmp_path):
        report = mg_analysis.report
        instrumenter = CheckpointInstrumenter(mg_analysis.module,
                                              report.main_loop)
        run = instrumenter.run(report.names(),
                               FTIConfig(directory=str(tmp_path)),
                               fail_at_iteration=2)
        assert run.failed
        assert len(run.output) < 6

    def test_restart_restores_latest_iteration(self, mg_analysis, tmp_path):
        report = mg_analysis.report
        config = FTIConfig(directory=str(tmp_path))
        with CheckpointInstrumenter(mg_analysis.module,
                                    report.main_loop) as instrumenter:
            instrumenter.run(report.names(), config, fail_at_iteration=3)
            restart = instrumenter.run(report.names(), config, restart=True)
        assert restart.restored_iteration == 3
        assert not restart.failed

    def test_unknown_protected_variable_rejected(self, mg_analysis, tmp_path):
        report = mg_analysis.report
        instrumenter = CheckpointInstrumenter(mg_analysis.module,
                                              report.main_loop)
        with pytest.raises(InstrumentationError):
            instrumenter.run(["no_such_variable"],
                             FTIConfig(directory=str(tmp_path)))

    def test_bad_loop_location_rejected(self, mg_analysis, tmp_path):
        with pytest.raises(InstrumentationError):
            CheckpointInstrumenter(
                mg_analysis.module,
                MainLoopSpec("main", start_line=1, end_line=2))


#: The restart runs of ``example``'s campaign (3 trials per cell, every
#: content policy, seed 1): the iteration each restored, ``None`` where
#: the kill came before the first checkpoint, and the SHA-256 of the
#: campaign JSON.  Measured when each restore read its checkpoint twice.
EXAMPLE_RESTORED = [None, 4, None, None, 4, 2, None, 4, 10]
EXAMPLE_CAMPAIGN_SHA256 = \
    "adc4a1a59a299e041e2537f16bb9562e4e577799692fe4b745bcaba929f7c91e"


class TestRestoreReadsOnce:
    def test_each_restore_loads_its_checkpoint_once(self, monkeypatch,
                                                    tmp_path):
        """A restart finds and restores the latest checkpoint in one read:
        5 of the 9 restarts have a checkpoint, and each loads it once."""
        loads = []
        restored = []
        original_load = CheckpointStorage.load
        original_run = CheckpointInstrumenter.run

        def load(self, path):
            loads.append(path)
            return original_load(self, path)

        def run(self, *args, **kwargs):
            outcome = original_run(self, *args, **kwargs)
            if kwargs.get("restart"):
                restored.append(outcome.restored_iteration)
            return outcome

        monkeypatch.setattr(CheckpointStorage, "load", load)
        monkeypatch.setattr(CheckpointInstrumenter, "run", run)
        report = run_campaign(CampaignConfig(
            apps=["example"], trials=3, seed=1,
            cache_dir=str(tmp_path / "cache"),
            trace_dir=str(tmp_path / "traces")))
        assert restored == EXAMPLE_RESTORED
        assert len(loads) == 5
        assert hashlib.sha256(report.to_json().encode()).hexdigest() \
            == EXAMPLE_CAMPAIGN_SHA256


class TestRestartValidation:
    def test_sufficiency_with_detected_variables(self, mg_analysis):
        report = mg_analysis.report
        with RestartValidator(mg_analysis.module, report.main_loop,
                              benchmark="mg") as validator:
            outcome = validator.validate(report.names(), fail_at_iteration=3)
        assert outcome.restart_successful
        assert outcome.failed_run_output  # the failed run printed something
        assert outcome.restarted_output == outcome.failure_free_output

    def test_restart_without_any_checkpointed_variable_fails(self, mg_analysis):
        """Protecting an irrelevant variable only (not the solution arrays)
        must NOT reproduce the failure-free output — the negative control for
        the sufficiency study."""
        report = mg_analysis.report
        with RestartValidator(mg_analysis.module, report.main_loop,
                              benchmark="mg") as validator:
            outcome = validator.validate([report.induction_variable],
                                         fail_at_iteration=3)
        assert not outcome.restart_successful

    def test_necessity_study_flags_all_detected_variables(self, mg_analysis):
        report = mg_analysis.report
        with RestartValidator(mg_analysis.module, report.main_loop,
                              benchmark="mg") as validator:
            necessity = validator.necessity_study(report.names(),
                                                  fail_at_iteration=3)
        assert necessity.all_necessary
        assert set(necessity.necessary) == set(report.names())

    def test_failure_free_output_deterministic(self, mg_analysis):
        with RestartValidator(mg_analysis.module, mg_analysis.report.main_loop,
                              benchmark="mg") as validator:
            assert validator.failure_free_output() == validator.failure_free_output()


class TestBLCRModel:
    def test_process_image_larger_than_critical_set(self, mg_analysis):
        model = BLCRModel()
        blcr_bytes = model.checkpoint_bytes_from_result(mg_analysis.execution)
        autocheck_bytes = mg_analysis.report.checkpoint_bytes()
        assert blcr_bytes > autocheck_bytes * 10

    def test_overhead_configurable(self, mg_analysis):
        small = BLCRModel(process_overhead_bytes=0)
        big = BLCRModel(process_overhead_bytes=1 << 20)
        assert big.checkpoint_bytes_from_result(mg_analysis.execution) - \
            small.checkpoint_bytes_from_result(mg_analysis.execution) == 1 << 20

    def test_comparison_row(self, mg_analysis):
        row = compare_storage_cost("mg", mg_analysis.execution,
                                   mg_analysis.report.checkpoint_bytes())
        assert row.ratio > 1
        assert "mg" in row.summary()

    def test_missing_memory_rejected(self):
        from repro.tracer.interpreter import ExecutionResult

        result = ExecutionResult(output=[], return_value=None, steps=0, memory=None)
        with pytest.raises(ValueError):
            BLCRModel().checkpoint_bytes_from_result(result)
