"""The fault-injection campaign runner.

Wires ``AutoCheckReport.critical_variables`` straight into instrumented
interpreter runs and sweeps the full validation matrix::

    apps x checkpoint content x interval policy x N seeded kill points

Each app is one task on the same process pool ``analyze-batch`` uses, and
pays its fixed costs once: one compile, one main-loop lookup and one
execute-only interpreter serve all of its runs.  The task first *preps*:
it stages the app's analysis (:func:`~repro.store.batch.prepare_app_analysis`
compiles it) and runs it through the artifact store (a warm entry makes this
a digest lookup that decodes only the critical variables), then executes one
failure-free instrumented baseline to learn the loop's iteration count, the
full set of variables live at the main loop, the reference output, and the
BLCR-style process-image size.  From those numbers it resolves each cell's
checkpoint cadence (fixed every-k, or Young/Daly intervals fed by a
synthetic time model) and plans the kill points with a per-cell seeded RNG
fork.  Every trial then runs a failure + restart cycle on the same
interpreter and asserts restart equivalence against the reference output.

The synthetic time model (one second per iteration, a modest storage link,
a short MTBF) exists to make the Young/Daly policies produce *different,
small* cadences on the mini benchmarks; it is deliberately constant so
campaigns stay deterministic.
"""

from __future__ import annotations

import contextlib
import functools
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.registry import app_names, get_app
from repro.campaign.plan import (
    CONTENT_POLICIES,
    INTERVAL_POLICIES,
    KILL_DURING_WRITE,
    PolicyError,
    TrialSpec,
    parse_policies,
    plan_cell,
    writes_per_run,
)
from repro.campaign.report import (
    AppVerdict,
    CampaignReport,
    NecessityVerdict,
    TrialResult,
    outputs_equivalent,
)
from repro.checkpoint.blcr import BLCRModel
from repro.checkpoint.fti import FTIConfig
from repro.checkpoint.instrument import CheckpointInstrumenter
from repro.checkpoint.interval import (
    checkpoint_cost_seconds,
    daly_interval,
    expected_waste_fraction,
    interval_in_iterations,
    young_interval,
)
from repro.checkpoint.validate import RestartValidator
from repro.store.batch import map_over_pool, prepare_app_analysis

# --------------------------------------------------------------------------- #
# Synthetic time model (constant => campaigns stay deterministic)
# --------------------------------------------------------------------------- #
#: Simulated compute time per loop iteration.
SIM_SECONDS_PER_ITERATION = 1.0
#: Simulated checkpoint-storage bandwidth (a modest local SSD share).
SIM_BANDWIDTH_BYTES_PER_SECOND = 2e7
#: Simulated per-checkpoint latency floor.
SIM_LATENCY_SECONDS = 0.05
#: Simulated mean time between failures.
SIM_MTBF_SECONDS = 25.0


@dataclass
class CampaignConfig:
    """Everything that determines a campaign (and hence its verdicts)."""

    apps: List[str]
    content_policies: List[str] = field(
        default_factory=lambda: list(CONTENT_POLICIES))
    interval_policies: List[str] = field(default_factory=lambda: ["every-k"])
    trials: int = 3
    seed: int = 7
    #: Cadence used by the ``every-k`` interval policy.
    every_k: int = 2
    workers: int = 1
    run_necessity: bool = False
    use_cache: bool = True
    cache_dir: Optional[str] = None
    trace_dir: Optional[str] = None
    #: Interpreter seed (the apps' RNG), independent of the campaign seed.
    app_seed: int = 314159
    mtbf_seconds: float = SIM_MTBF_SECONDS
    bandwidth_bytes_per_second: float = SIM_BANDWIDTH_BYTES_PER_SECOND
    latency_seconds: float = SIM_LATENCY_SECONDS
    seconds_per_iteration: float = SIM_SECONDS_PER_ITERATION


def resolve_app_names(spec: str) -> List[str]:
    """Expand a ``--apps`` value (``all`` or a comma list) to app names.

    Raises :class:`PolicyError` on unknown names (CLI exit code 2).
    """
    fleet = app_names(include_example=True, include_extras=True)
    requested = [item.strip() for item in spec.split(",") if item.strip()]
    if not requested:
        raise PolicyError(f"no apps requested in {spec!r}")
    if requested == ["all"]:
        return fleet
    unknown = sorted(set(requested) - set(fleet))
    if unknown:
        raise PolicyError(
            f"unknown app{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(unknown)} (known: all, {', '.join(fleet)})")
    return requested


# --------------------------------------------------------------------------- #
# Per-app prep and trial batch (module-level: runs on the process pool)
# --------------------------------------------------------------------------- #
@dataclass
class AppPrep:
    """What one app's analysis + failure-free baseline established."""

    app: str
    critical_variables: List[str] = field(default_factory=list)
    #: name -> size_bytes of every variable live at the main loop.
    loop_variables: Dict[str, int] = field(default_factory=dict)
    iterations: int = 0
    blcr_bytes: int = 0
    reference_output: List[str] = field(default_factory=list)
    error: Optional[str] = None


#: One app task's outcome: its prep, its trials and the optional ablation.
AppOutcome = Tuple[AppPrep, List[TrialResult], Optional[NecessityVerdict]]


def _run_app(app_name: str, runner: "CampaignRunner") -> AppOutcome:
    """Prep, plan and run one app's trials over one compile and one
    interpreter."""
    config = runner.config
    with contextlib.ExitStack() as stack:
        try:
            prepared = prepare_app_analysis(
                app_name, use_cache=config.use_cache,
                cache_dir=config.cache_dir, trace_dir=config.trace_dir,
                seed=config.app_seed)
            critical = prepared.autocheck.run().names()
            instrumenter = stack.enter_context(CheckpointInstrumenter(
                prepared.module, prepared.spec, seed=config.app_seed,
                on_missing="skip"))
            prep = _prepare_app(app_name, critical, instrumenter)
        except Exception as exc:  # noqa: BLE001 — one bad app must not kill the fleet
            prep = AppPrep(app=app_name, error=f"{type(exc).__name__}: {exc}")
        if prep.error is not None:
            return prep, [], None
        work = runner._build_work(prep)
        trials = [_run_trial(instrumenter, work, trial)
                  for trial in work.trials]
    necessity: Optional[NecessityVerdict] = None
    if work.run_necessity:
        checked = [name for name in work.necessity_variables
                   if name in work.critical_variables]
        with RestartValidator(prepared.module, prepared.spec,
                              benchmark=work.app,
                              seed=work.app_seed) as validator:
            study = validator.necessity_study(
                work.critical_variables, check_variables=checked,
                fail_at_iteration=min(3, work.iterations))
        necessity = NecessityVerdict(checked_variables=checked,
                                     false_positives=study.false_positives)
    return prep, trials, necessity


def _prepare_app(app_name: str, critical_variables: List[str],
                 instrumenter: CheckpointInstrumenter) -> AppPrep:
    """Run one app's instrumented baseline."""
    with tempfile.TemporaryDirectory(prefix="campaign-base-") as ckpt_dir:
        baseline = instrumenter.run([], FTIConfig(directory=ckpt_dir))
    if baseline.failed:
        return AppPrep(app=app_name,
                       error="failure-free baseline unexpectedly failed")
    if baseline.result.memory is None:
        return AppPrep(app=app_name,
                       error="baseline carries no memory statistics")
    if baseline.checkpoints_written < 2:
        return AppPrep(app=app_name,
                       error="main loop never iterated; nothing to kill")
    return AppPrep(
        app=app_name,
        critical_variables=critical_variables,
        loop_variables=dict(baseline.loop_variables),
        # Header entries 1..N+1 each committed a checkpoint at cadence 1.
        iterations=baseline.checkpoints_written - 1,
        blcr_bytes=BLCRModel().checkpoint_bytes(baseline.result.memory),
        reference_output=list(baseline.output),
    )


@dataclass
class AppWork:
    """One app's planned trial batch."""

    app: str
    app_seed: int
    trials: List[TrialSpec]
    #: content policy -> protected variable names for that policy.
    protected_sets: Dict[str, List[str]]
    #: content policy -> accounted bytes per checkpoint snapshot.
    snapshot_bytes: Dict[str, int]
    reference_output: List[str]
    iterations: int
    critical_variables: List[str]
    necessity_variables: List[str]
    run_necessity: bool
    mtbf_seconds: float
    bandwidth_bytes_per_second: float
    latency_seconds: float
    seconds_per_iteration: float


def _run_trial(instrumenter: CheckpointInstrumenter, work: AppWork,
               trial: TrialSpec) -> TrialResult:
    """One failure + restart cycle, verdicted against the reference output."""
    protected = work.protected_sets[trial.content]
    snapshot_bytes = work.snapshot_bytes[trial.content]
    try:
        with tempfile.TemporaryDirectory(prefix="campaign-trial-") as ckpt_dir:
            config = FTIConfig(directory=ckpt_dir,
                               checkpoint_interval=trial.interval_iterations)
            failed = instrumenter.run(
                protected, config, restart=False,
                fail_at_iteration=trial.kill_iteration,
                fail_at_checkpoint_write=trial.fail_at_checkpoint_write)
            if not failed.failed:
                raise RuntimeError("injected failure did not fire")
            restart = instrumenter.run(protected, config, restart=True)
            if restart.failed:
                raise RuntimeError("restart run failed")
        equivalent = outputs_equivalent(work.reference_output, failed.output,
                                        restart.output)
        completed = _completed_iterations(trial)
        restored_completed = (restart.restored_iteration - 1
                              if restart.restored_iteration is not None else 0)
        lost = max(0, completed - restored_completed)
        waste = _measured_waste_fraction(
            work, snapshot_bytes, lost,
            failed.checkpoints_written + restart.checkpoints_written)
        return TrialResult(
            app=trial.app, content=trial.content,
            interval_policy=trial.interval_policy,
            interval_iterations=trial.interval_iterations,
            trial_index=trial.trial_index, kill_kind=trial.kill_kind,
            kill_iteration=trial.kill_iteration,
            fail_at_checkpoint_write=trial.fail_at_checkpoint_write,
            equivalent=equivalent,
            restored_iteration=restart.restored_iteration,
            checkpoints_written=failed.checkpoints_written,
            snapshot_bytes=snapshot_bytes,
            bytes_written=failed.checkpoints_written * snapshot_bytes,
            lost_iterations=lost,
            measured_waste_fraction=waste,
        )
    except Exception as exc:  # noqa: BLE001 — record, don't kill the batch
        return TrialResult(
            app=trial.app, content=trial.content,
            interval_policy=trial.interval_policy,
            interval_iterations=trial.interval_iterations,
            trial_index=trial.trial_index, kill_kind=trial.kill_kind,
            kill_iteration=trial.kill_iteration,
            fail_at_checkpoint_write=trial.fail_at_checkpoint_write,
            equivalent=False, restored_iteration=None, checkpoints_written=0,
            snapshot_bytes=snapshot_bytes, bytes_written=0, lost_iterations=0,
            measured_waste_fraction=0.0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _completed_iterations(trial: TrialSpec) -> int:
    """Iterations the failed run finished before dying."""
    if trial.kill_kind == KILL_DURING_WRITE:
        # The w-th write happens on the w*k-th header entry, i.e. after
        # iteration w*k - 1 completed.
        assert trial.fail_at_checkpoint_write is not None
        return trial.fail_at_checkpoint_write * trial.interval_iterations - 1
    assert trial.kill_iteration is not None
    return trial.kill_iteration - 1


def _measured_waste_fraction(work: AppWork, snapshot_bytes: int,
                             lost_iterations: int, total_writes: int) -> float:
    """Simulated fraction of machine time this cycle lost to C/R overhead."""
    cost = checkpoint_cost_seconds(snapshot_bytes,
                                   work.bandwidth_bytes_per_second,
                                   work.latency_seconds)
    useful = work.iterations * work.seconds_per_iteration
    waste = total_writes * cost + lost_iterations * work.seconds_per_iteration
    return waste / (useful + waste) if useful + waste > 0 else 0.0


# --------------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------------- #
class CampaignRunner:
    """Plan, execute and aggregate one fault-injection campaign."""

    def __init__(self, config: CampaignConfig) -> None:
        if config.trials < 1:
            raise PolicyError(f"trials must be >= 1, got {config.trials}")
        if config.every_k < 1:
            raise PolicyError(f"every-k must be >= 1, got {config.every_k}")
        for name in config.content_policies:
            if name not in CONTENT_POLICIES:
                raise PolicyError(f"unknown content policy {name!r}")
        for name in config.interval_policies:
            if name not in INTERVAL_POLICIES:
                raise PolicyError(f"unknown interval policy {name!r}")
        self.config = config

    # -- planning ------------------------------------------------------- #
    def _snapshot_bytes(self, prep: AppPrep) -> Dict[str, int]:
        """Accounted bytes per checkpoint snapshot, by content policy."""
        critical = sum(prep.loop_variables.get(name, 0)
                       for name in prep.critical_variables)
        return {
            "critical": critical,
            "full": sum(prep.loop_variables.values()),
            "blcr": prep.blcr_bytes,
        }

    def _interval_iterations(self, content_bytes: int,
                             interval_policy: str) -> int:
        config = self.config
        if interval_policy == "every-k":
            return config.every_k
        cost = checkpoint_cost_seconds(content_bytes,
                                       config.bandwidth_bytes_per_second,
                                       config.latency_seconds)
        model = young_interval if interval_policy == "young" else daly_interval
        return interval_in_iterations(model(cost, config.mtbf_seconds),
                                      config.seconds_per_iteration)

    def _build_work(self, prep: AppPrep) -> AppWork:
        config = self.config
        snapshot_bytes = self._snapshot_bytes(prep)
        full_names = list(prep.loop_variables)
        protected_sets = {
            "critical": list(prep.critical_variables),
            # A BLCR-style process image restores everything too; on the
            # interpreter both restore every live loop variable — they differ
            # only in accounted bytes.
            "full": full_names,
            "blcr": full_names,
        }
        trials: List[TrialSpec] = []
        for content in config.content_policies:
            for interval_policy in config.interval_policies:
                cadence = self._interval_iterations(snapshot_bytes[content],
                                                    interval_policy)
                trials.extend(plan_cell(
                    prep.app, content, interval_policy, cadence,
                    config.trials, config.seed, prep.iterations,
                    writes_per_run(prep.iterations, cadence)))
        app = get_app(prep.app)
        return AppWork(
            app=prep.app, app_seed=config.app_seed, trials=trials,
            protected_sets={name: protected_sets[name]
                            for name in config.content_policies},
            snapshot_bytes={name: snapshot_bytes[name]
                            for name in config.content_policies},
            reference_output=prep.reference_output,
            iterations=prep.iterations,
            critical_variables=list(prep.critical_variables),
            necessity_variables=app.necessity_variables(),
            run_necessity=config.run_necessity,
            mtbf_seconds=config.mtbf_seconds,
            bandwidth_bytes_per_second=config.bandwidth_bytes_per_second,
            latency_seconds=config.latency_seconds,
            seconds_per_iteration=config.seconds_per_iteration,
        )

    # -- aggregation ----------------------------------------------------- #
    def _verdict(self, prep: AppPrep, trials: List[TrialResult],
                 necessity: Optional[NecessityVerdict]) -> AppVerdict:
        config = self.config
        snapshot_bytes = self._snapshot_bytes(prep)
        errors = [f"trial {t.trial_index} ({t.content}/{t.interval_policy}): "
                  f"{t.error}" for t in trials if t.error]
        if prep.error:
            errors.insert(0, f"prep: {prep.error}")
        critical_bytes = snapshot_bytes["critical"]
        ratio = (prep.blcr_bytes / critical_bytes) if critical_bytes else 0.0
        critical_trials = [t for t in trials
                           if t.content == "critical" and not t.error]
        measured = (sum(t.measured_waste_fraction for t in critical_trials)
                    / len(critical_trials)) if critical_trials else 0.0
        predicted = 0.0
        if critical_bytes and config.interval_policies:
            cost = checkpoint_cost_seconds(critical_bytes,
                                           config.bandwidth_bytes_per_second,
                                           config.latency_seconds)
            cadence = self._interval_iterations(critical_bytes,
                                                config.interval_policies[0])
            predicted = expected_waste_fraction(
                cadence * config.seconds_per_iteration, cost,
                config.mtbf_seconds)
        return AppVerdict(
            app=prep.app,
            iterations=prep.iterations,
            trials=len(trials),
            equivalent_trials=sum(1 for t in trials if t.ok),
            errors=errors,
            critical_variables=list(prep.critical_variables),
            snapshot_bytes={name: snapshot_bytes[name]
                            for name in config.content_policies},
            blcr_bytes=prep.blcr_bytes,
            saved_bytes_vs_blcr=max(0, prep.blcr_bytes - critical_bytes),
            storage_ratio=ratio,
            predicted_waste_fraction=predicted,
            measured_waste_fraction=measured,
            necessity=necessity,
        )

    # -- execution ------------------------------------------------------- #
    def run(self) -> CampaignReport:
        config = self.config
        outcomes = map_over_pool(functools.partial(_run_app, runner=self),
                                 config.apps, config.workers)
        verdicts: List[AppVerdict] = []
        all_trials: List[TrialResult] = []
        for prep, trials, necessity in outcomes:
            verdicts.append(self._verdict(prep, trials, necessity))
            all_trials.extend(trials)
        return CampaignReport(
            seed=config.seed,
            trials_per_cell=config.trials,
            content_policies=list(config.content_policies),
            interval_policies=list(config.interval_policies),
            apps=verdicts,
            trials=all_trials,
        )


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Convenience wrapper: plan + execute + aggregate one campaign."""
    return CampaignRunner(config).run()


# Re-exported so campaign callers need one import.
__all__ = [
    "AppPrep",
    "AppWork",
    "CampaignConfig",
    "CampaignRunner",
    "SIM_BANDWIDTH_BYTES_PER_SECOND",
    "SIM_LATENCY_SECONDS",
    "SIM_MTBF_SECONDS",
    "SIM_SECONDS_PER_ITERATION",
    "resolve_app_names",
    "run_campaign",
]
