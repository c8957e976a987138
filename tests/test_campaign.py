"""Tests for the fault-injection campaign subsystem (repro.campaign)."""

import json

import pytest

from repro.campaign import (
    CONTENT_POLICIES,
    INTERVAL_POLICIES,
    KILL_BEFORE_FIRST,
    KILL_DURING_WRITE,
    KILL_RANDOM,
    CampaignConfig,
    CampaignReport,
    AppVerdict,
    NecessityVerdict,
    PolicyError,
    TrialResult,
    outputs_equivalent,
    parse_policies,
    plan_cell,
    resolve_app_names,
    run_campaign,
    writes_per_run,
)
from repro.apps.registry import app_names


# --------------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------------- #
class TestPlan:
    def test_same_seed_same_plan(self):
        a = plan_cell("cg", "critical", "every-k", 2, 5, seed=7,
                      iterations=8, writes_per_run=4)
        b = plan_cell("cg", "critical", "every-k", 2, 5, seed=7,
                      iterations=8, writes_per_run=4)
        assert a == b

    def test_different_seed_different_kills(self):
        a = plan_cell("cg", "critical", "every-k", 2, 8, seed=7,
                      iterations=100, writes_per_run=50)
        b = plan_cell("cg", "critical", "every-k", 2, 8, seed=8,
                      iterations=100, writes_per_run=50)
        assert [t.kill_iteration for t in a] != [t.kill_iteration for t in b]

    def test_cells_draw_independently(self):
        # The plan of one cell does not depend on which other cells exist.
        alone = plan_cell("cg", "critical", "young", 2, 4, seed=7,
                          iterations=9, writes_per_run=5)
        other = plan_cell("mg", "blcr", "every-k", 1, 4, seed=7,
                          iterations=9, writes_per_run=10)
        again = plan_cell("cg", "critical", "young", 2, 4, seed=7,
                          iterations=9, writes_per_run=5)
        assert alone == again
        assert other != alone

    def test_edges_pinned_first(self):
        trials = plan_cell("cg", "critical", "every-k", 2, 3, seed=7,
                           iterations=8, writes_per_run=4)
        assert trials[0].kill_kind == KILL_BEFORE_FIRST
        assert trials[0].kill_iteration == 1
        assert trials[1].kill_kind == KILL_DURING_WRITE
        assert 1 <= trials[1].fail_at_checkpoint_write <= 4
        assert trials[2].kill_kind == KILL_RANDOM
        assert 1 <= trials[2].kill_iteration <= 8

    def test_during_write_skipped_when_no_writes(self):
        trials = plan_cell("cg", "critical", "every-k", 20, 3, seed=7,
                           iterations=8, writes_per_run=0)
        assert [t.kill_kind for t in trials] == [
            KILL_BEFORE_FIRST, KILL_RANDOM, KILL_RANDOM]

    def test_writes_per_run(self):
        # Header entries 1..iterations+1 checkpoint when divisible by k.
        assert writes_per_run(iterations=8, interval_iterations=1) == 9
        assert writes_per_run(iterations=8, interval_iterations=2) == 4
        assert writes_per_run(iterations=8, interval_iterations=9) == 1
        assert writes_per_run(iterations=8, interval_iterations=10) == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(PolicyError):
            plan_cell("cg", "critical", "every-k", 2, 0, seed=7,
                      iterations=8, writes_per_run=4)
        with pytest.raises(PolicyError):
            plan_cell("cg", "critical", "every-k", 2, 3, seed=7,
                      iterations=0, writes_per_run=0)
        with pytest.raises(PolicyError):
            writes_per_run(iterations=8, interval_iterations=0)


class TestPolicyParsing:
    def test_parse_preserves_canonical_order(self):
        assert parse_policies("blcr,critical", CONTENT_POLICIES,
                              "content") == ["critical", "blcr"]
        assert parse_policies("daly , young", INTERVAL_POLICIES,
                              "interval") == ["young", "daly"]

    def test_unknown_policy_raises(self):
        with pytest.raises(PolicyError, match="bogus"):
            parse_policies("critical,bogus", CONTENT_POLICIES, "content")
        with pytest.raises(PolicyError, match="no content"):
            parse_policies(" , ", CONTENT_POLICIES, "content")

    def test_resolve_all_is_the_full_fleet(self):
        fleet = resolve_app_names("all")
        assert fleet == app_names(include_example=True, include_extras=True)
        assert len(fleet) == 16
        assert "example" in fleet and "bigarray" in fleet

    def test_resolve_unknown_app_raises(self):
        with pytest.raises(PolicyError, match="nosuchapp"):
            resolve_app_names("cg,nosuchapp")


# --------------------------------------------------------------------------- #
# Restart equivalence criterion
# --------------------------------------------------------------------------- #
class TestOutputsEquivalent:
    REF = ["a", "b", "c", "d"]

    def test_exact_split(self):
        assert outputs_equivalent(self.REF, ["a", "b"], ["c", "d"])

    def test_replay_overlap(self):
        # Restart resumed from a checkpoint before the kill point and
        # re-printed one line.
        assert outputs_equivalent(self.REF, ["a", "b"], ["b", "c", "d"])

    def test_cold_restart(self):
        assert outputs_equivalent(self.REF, [], self.REF)
        assert outputs_equivalent(self.REF, ["a"], self.REF)

    def test_gap_rejected(self):
        # "b" was printed by neither run: state was silently skipped.
        assert not outputs_equivalent(self.REF, ["a"], ["c", "d"])

    def test_wrong_prefix_rejected(self):
        assert not outputs_equivalent(self.REF, ["a", "x"], ["c", "d"])

    def test_wrong_suffix_rejected(self):
        assert not outputs_equivalent(self.REF, ["a", "b"], ["c", "x"])

    def test_restart_longer_than_reference_rejected(self):
        assert not outputs_equivalent(self.REF, [], ["z"] + self.REF)

    def test_empty_reference(self):
        assert outputs_equivalent([], [], [])


# --------------------------------------------------------------------------- #
# Report / verdict logic
# --------------------------------------------------------------------------- #
def _trial(**overrides):
    base = dict(app="cg", content="critical", interval_policy="every-k",
                interval_iterations=2, trial_index=0,
                kill_kind=KILL_RANDOM, kill_iteration=3,
                fail_at_checkpoint_write=None, equivalent=True,
                restored_iteration=2, checkpoints_written=1,
                snapshot_bytes=100, bytes_written=100, lost_iterations=1,
                measured_waste_fraction=0.1)
    base.update(overrides)
    return TrialResult(**base)


def _verdict(**overrides):
    base = dict(app="cg", iterations=8, trials=2, equivalent_trials=2)
    base.update(overrides)
    return AppVerdict(**base)


class TestVerdicts:
    def test_trial_ok(self):
        assert _trial().ok
        assert not _trial(equivalent=False).ok
        assert not _trial(error="boom").ok

    def test_app_verdict_pass(self):
        assert _verdict().restart_equivalence_pass
        assert _verdict().ok

    def test_app_verdict_fails_on_mismatch_or_error(self):
        assert not _verdict(equivalent_trials=1).restart_equivalence_pass
        assert not _verdict(errors=["prep: boom"]).restart_equivalence_pass
        assert not _verdict(trials=0, equivalent_trials=0).restart_equivalence_pass

    def test_necessity_gates_verdict(self):
        good = NecessityVerdict(checked_variables=["x"], false_positives=[])
        bad = NecessityVerdict(checked_variables=["x", "pad"],
                               false_positives=["pad"])
        assert _verdict(necessity=good).ok
        assert not _verdict(necessity=bad).ok
        assert _verdict(necessity=bad).restart_equivalence_pass

    def test_report_all_pass(self):
        report = CampaignReport(seed=7, trials_per_cell=2,
                                content_policies=["critical"],
                                interval_policies=["every-k"],
                                apps=[_verdict()], trials=[_trial()])
        assert report.all_pass
        report.apps.append(_verdict(app="mg", equivalent_trials=1))
        assert not report.all_pass

    def test_empty_report_is_not_a_pass(self):
        report = CampaignReport(seed=7, trials_per_cell=2,
                                content_policies=["critical"],
                                interval_policies=["every-k"],
                                apps=[], trials=[])
        assert not report.all_pass

    def test_json_is_canonical_and_timing_free(self):
        report = CampaignReport(seed=7, trials_per_cell=2,
                                content_policies=["critical"],
                                interval_policies=["every-k"],
                                apps=[_verdict()], trials=[_trial()])
        text = report.to_json()
        payload = json.loads(text)
        assert payload["all_pass"] is True
        assert payload["apps"][0]["restart_equivalence_pass"] is True
        assert "seconds" not in text and "time" not in payload
        # sort_keys: serialization is order-canonical.
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=2) + "\n"


# --------------------------------------------------------------------------- #
# End-to-end campaigns (small apps; the fleet sweep runs via CI/benchmarks)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def example_campaign(tmp_path_factory):
    cache = tmp_path_factory.mktemp("campaign-cache")
    config = CampaignConfig(apps=["example"], trials=3, seed=7,
                            interval_policies=["every-k", "young", "daly"],
                            run_necessity=True, cache_dir=str(cache))
    return config, run_campaign(config)


class TestCampaignEndToEnd:
    def test_all_cells_pass(self, example_campaign):
        _, report = example_campaign
        assert report.all_pass
        verdict = report.apps[0]
        assert verdict.app == "example"
        assert verdict.trials == 3 * len(CONTENT_POLICIES) * 3
        assert verdict.equivalent_trials == verdict.trials
        assert not verdict.errors

    def test_matrix_covers_every_cell_and_edge(self, example_campaign):
        _, report = example_campaign
        cells = {(t.content, t.interval_policy) for t in report.trials}
        assert cells == {(c, i) for c in CONTENT_POLICIES
                         for i in ("every-k", "young", "daly")}
        kinds = {t.kill_kind for t in report.trials}
        assert KILL_BEFORE_FIRST in kinds
        assert KILL_DURING_WRITE in kinds
        assert KILL_RANDOM in kinds

    def test_storage_study_vs_blcr(self, example_campaign):
        _, report = example_campaign
        verdict = report.apps[0]
        critical = verdict.snapshot_bytes["critical"]
        assert 0 < critical < verdict.snapshot_bytes["full"]
        assert verdict.snapshot_bytes["blcr"] == verdict.blcr_bytes
        assert verdict.saved_bytes_vs_blcr == verdict.blcr_bytes - critical
        assert verdict.storage_ratio > 1000  # orders of magnitude (Table IV)

    def test_necessity_clean(self, example_campaign):
        _, report = example_campaign
        necessity = report.apps[0].necessity
        assert necessity is not None
        assert necessity.checked_variables  # something was ablated
        assert necessity.all_necessary

    def test_waste_fractions_sane(self, example_campaign):
        _, report = example_campaign
        verdict = report.apps[0]
        assert 0.0 < verdict.predicted_waste_fraction < 1.0
        assert 0.0 < verdict.measured_waste_fraction < 1.0
        for trial in report.trials:
            assert 0.0 <= trial.measured_waste_fraction < 1.0

    def test_model_policies_scale_cadence_with_content(self, example_campaign):
        _, report = example_campaign
        cadence = {(t.content, t.interval_policy): t.interval_iterations
                   for t in report.trials}
        # Bigger checkpoints -> longer model-recommended intervals.
        assert cadence[("blcr", "young")] > cadence[("critical", "young")]
        assert cadence[("blcr", "daly")] > cadence[("critical", "daly")]

    def test_rerun_reproduces_byte_for_byte(self, example_campaign):
        config, report = example_campaign
        again = run_campaign(config)
        assert report.to_json() == again.to_json()

    def test_seed_changes_the_plan(self, example_campaign, tmp_path):
        config, report = example_campaign
        other = CampaignConfig(apps=["example"], trials=3, seed=8,
                               interval_policies=["every-k", "young", "daly"],
                               run_necessity=True,
                               cache_dir=config.cache_dir)
        other_report = run_campaign(other)
        assert other_report.all_pass
        kills = [t.kill_iteration for t in report.trials]
        other_kills = [t.kill_iteration for t in other_report.trials]
        assert kills != other_kills

    def test_summary_table_renders(self, example_campaign):
        _, report = example_campaign
        text = report.summary()
        assert "example" in text
        assert "PASS" in text
        assert "seed 7" in text


class TestCampaignRobustness:
    def test_unknown_content_policy_rejected(self):
        with pytest.raises(PolicyError, match="content"):
            run_campaign(CampaignConfig(apps=["example"],
                                        content_policies=["bogus"]))
        with pytest.raises(PolicyError, match="interval"):
            run_campaign(CampaignConfig(apps=["example"],
                                        interval_policies=["hourly"]))

    def test_mismatch_is_reported_not_raised(self, tmp_path, monkeypatch):
        # Force every trial to disagree with the reference: the campaign
        # must complete and report FAIL verdicts instead of crashing.
        import repro.campaign.runner as runner_mod

        monkeypatch.setattr(runner_mod, "outputs_equivalent",
                            lambda *args: False)
        config = CampaignConfig(apps=["example"], trials=1,
                                content_policies=["critical"],
                                cache_dir=str(tmp_path / "cache"))
        report = run_campaign(config)
        assert not report.all_pass
        assert report.apps[0].equivalent_trials == 0
        assert not report.apps[0].errors  # mismatch, not error

    def test_prep_failure_is_contained(self, tmp_path, monkeypatch):
        import repro.campaign.runner as runner_mod

        def boom(*args, **kwargs):
            raise RuntimeError("analysis exploded")

        monkeypatch.setattr(runner_mod, "prepare_app_analysis", boom)
        config = CampaignConfig(apps=["example"], trials=1,
                                content_policies=["critical"],
                                cache_dir=str(tmp_path / "cache"))
        report = run_campaign(config)
        assert not report.all_pass
        assert report.apps[0].errors
        assert "analysis exploded" in report.apps[0].errors[0]
