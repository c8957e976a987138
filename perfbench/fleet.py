"""The bundled 16-app fleet and the correctness gates every workload uses.

The fleet is ``app_names(include_example=True, include_extras=True)`` at
each app's default parameters, executed with the interpreter seed every
frontend defaults to, so its traces are fixed inputs: 859,303 trace
records per pass.  ``golden.json`` (next to this file, rebuilt by
``make_golden.py``) pins, per app, the trace's footer content digest, its
record count and the SHA-256 of the canonical report bytes.  Matching the
golden digest is how the reports of separate workload processes are shown
to agree byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.apps.base import AppDefinition
from repro.apps.registry import app_names, get_app
from repro.core.config import AutoCheckConfig, MainLoopSpec

#: Interpreter seed of every bundled-app trace (the repository default).
APP_SEED = 314159

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


@dataclass(frozen=True)
class FleetApp:
    """One app of the fleet: its source and main-loop location."""

    name: str
    app: AppDefinition
    source: str
    spec: MainLoopSpec

    def config(self, **overrides) -> AutoCheckConfig:
        """The analysis config every frontend builds for this app."""
        options = dict(self.app.autocheck_options)
        options.update(overrides)
        return AutoCheckConfig(main_loop=self.spec, **options)


def fleet_names() -> List[str]:
    return app_names(include_example=True, include_extras=True)


def load_fleet(names: Optional[Sequence[str]] = None) -> Dict[str, FleetApp]:
    fleet = {}
    for name in names or fleet_names():
        app = get_app(name)
        source = app.source()
        fleet[name] = FleetApp(name, app, source, app.main_loop(source))
    return fleet


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["apps"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def critical_map(report) -> Dict[str, str]:
    """``name -> dependency type`` of a report's critical variables."""
    return {var.name: var.dependency.value
            for var in report.critical_variables}


@dataclass
class Verdicts:
    """Verified operations: every check is one attempt, a miss one failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def merge(self, other: "Verdicts") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def report_problems(app: FleetApp, report, body: bytes,
                    golden: Mapping[str, Mapping[str, object]],
                    expected: Optional[Mapping[str, str]] = None
                    ) -> List[str]:
    """Why an app's report is wrong (empty when it is right).

    Two gates: the critical variables with their dependency types equal
    the paper's Table II row (``expected_critical``, or ``expected`` when
    given), and the canonical bytes hash to the golden digest.
    """
    problems = []
    want = dict(app.app.expected_critical if expected is None else expected)
    got = critical_map(report)
    if got != want:
        problems.append(f"{app.name}: critical variables {got} != "
                        f"Table II {want}")
    entry = golden.get(app.name)
    if entry is None:
        problems.append(f"{app.name}: no golden entry")
    elif sha256(body) != entry["report_sha256"]:
        problems.append(f"{app.name}: canonical report bytes differ from "
                        f"the golden digest")
    return problems
