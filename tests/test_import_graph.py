"""Import graph: the analysis route does not load the static layer.

The static IR subsystem (:mod:`repro.static`) serves two consumers, the
``--static-check`` oracle and the ``static-report`` verb, both reached
through :mod:`repro.cli`.  A report comes from the trace walk alone, so
importing the analysis, the store, the daemon, the campaign runner, the
experiment harness or the library API must not pull any
``repro.static`` module in.  Checked in a fresh interpreter, since this
test session has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

_PACKAGES = ("repro.core", "repro.store", "repro.serve", "repro.campaign",
             "repro.experiments", "repro.api")

_SCRIPT = """
import importlib, json, sys
for name in json.loads(sys.argv[1]):
    importlib.import_module(name)
print(json.dumps(sorted(name for name in sys.modules
                        if name == "repro.static"
                        or name.startswith("repro.static."))))
"""


def test_analysis_packages_do_not_import_the_static_layer():
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(_PACKAGES)],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []
