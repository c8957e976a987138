"""Fleet-wide necessity regression: the detector detects, on every app.

Two claims, fleet-wide:

* **Necessity** — for every bundled app, dropping any one output-sensitive
  critical variable from the restart corrupts the restarted output (paper
  Sec. VI-B: no false positives among the detected variables).
* **The detector detects** — a deliberately-padded protected set (the
  critical variables plus one variable AutoCheck did *not* select) must be
  flagged: the pad shows up in ``false_positives``, the real variables do
  not.  This guards against the ablation machinery rotting into a study
  that calls everything necessary (or nothing).
"""

from types import SimpleNamespace

import pytest
from conftest import FLEET_NAMES

from repro.apps.registry import get_app
from repro.checkpoint.fti import FTIConfig
from repro.checkpoint.instrument import CheckpointInstrumenter
from repro.checkpoint.validate import RestartValidator
from repro.codegen.lowering import compile_source

FLEET = FLEET_NAMES

#: Apps whose padded-set run doubles as the detector-detects check.
PADDED_SAMPLE = ["example", "cg", "himeno"]


def _small_params(name):
    """Keep the heavyweight apps affordable for a per-app ablation."""
    return {"bigarray": {"size": 512, "iterations": 6},
            "mg": {"n": 24, "iters": 5}}.get(name, {})


@pytest.fixture(scope="module")
def fleet_analyses(fleet):
    """name -> (module, main-loop spec, report) for the whole fleet.

    The report is the shared fleet's analysis at default parameters; the
    heavyweight apps run their restarts on smaller inputs of the same
    program, whose critical variables are the same Table II row.
    """
    analyses = {}
    for name in FLEET:
        entry = fleet.apps[name]
        module, spec = entry.module, entry.spec
        params = _small_params(name)
        if params:
            source = entry.app.source(**params)
            module = compile_source(source, module_name=name)
            spec = entry.app.main_loop(source)
        analyses[name] = SimpleNamespace(module=module, spec=spec,
                                         report=entry.report)
    return analyses


def _loop_variables(analysis, tmp_path):
    """Variables live at the app's main loop (a failure-free baseline)."""
    instrumenter = CheckpointInstrumenter(
        analysis.module, analysis.spec, [],
        FTIConfig(directory=str(tmp_path / "baseline")))
    baseline = instrumenter.run()
    assert not baseline.failed
    return baseline.loop_variables


@pytest.mark.parametrize("name", FLEET)
def test_dropping_any_critical_variable_corrupts_restart(name,
                                                         fleet_analyses):
    analysis = fleet_analyses[name]
    critical = analysis.report.names()
    assert critical, f"{name}: analysis found no critical variables"
    checked = [variable for variable in get_app(name).necessity_variables()
               if variable in critical]
    assert checked, f"{name}: no output-sensitive variables to ablate"
    with RestartValidator(analysis.module, analysis.spec,
                          benchmark=name) as validator:
        result = validator.necessity_study(critical,
                                           check_variables=checked)
    assert result.all_necessary, (
        f"{name}: dropping {result.false_positives} from the restart went "
        f"unnoticed — necessity violated")


@pytest.mark.parametrize("name", PADDED_SAMPLE)
def test_padded_set_is_flagged_as_false_positive(name, fleet_analyses,
                                                 tmp_path):
    analysis = fleet_analyses[name]
    critical = analysis.report.names()
    mli = set(analysis.report.mli_variable_names)
    live = _loop_variables(analysis, tmp_path)
    pads = [variable for variable in live
            if variable not in critical and variable not in mli]
    assert pads, f"{name}: no candidate pad variable found"
    pad = sorted(pads)[0]

    checked = [variable for variable in get_app(name).necessity_variables()
               if variable in critical]
    padded = critical + [pad]
    with RestartValidator(analysis.module, analysis.spec,
                          benchmark=name) as validator:
        result = validator.necessity_study(padded,
                                           check_variables=checked + [pad])
    assert pad in result.false_positives, (
        f"{name}: the deliberately-padded variable {pad!r} was not flagged")
    real_flagged = [variable for variable in result.false_positives
                    if variable != pad]
    assert not real_flagged, (
        f"{name}: genuine critical variables flagged as false positives: "
        f"{real_flagged}")
