"""Rebuild ``golden.json``: the fleet's trace and report digests.

Usage, from the root of a checkout::

    python3 perfbench/make_golden.py

Runs one cold pass over the 16-app fleet (compile, binary trace, analysis
with the app's module and options, canonical report JSON), refuses to
write anything if an app's critical variables differ from its Table II
row, and records per app the trace footer digest, the record count and
the SHA-256 of the canonical report bytes.  Rebuild it only when a change
is meant to alter traces or reports.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fleet import (  # noqa: E402 — needs the src path above
    APP_SEED,
    GOLDEN_PATH,
    critical_map,
    fleet_names,
    load_fleet,
    sha256,
)

from repro.codegen.lowering import compile_source  # noqa: E402
from repro.core.pipeline import AutoCheck  # noqa: E402
from repro.store.serialize import canonical_report_json  # noqa: E402
from repro.trace.binio import read_layout  # noqa: E402
from repro.tracer.driver import trace_to_file  # noqa: E402


def main() -> int:
    apps = {}
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for name, app in load_fleet(fleet_names()).items():
            module = compile_source(app.source, module_name=name)
            path = os.path.join(scratch, f"{name}.btrace")
            trace_to_file(module, path, module_name=name, seed=APP_SEED,
                          fmt="binary")
            report = AutoCheck(app.config(use_cache=False), trace_path=path,
                               module=module).run()
            if critical_map(report) != dict(app.app.expected_critical):
                print(f"{name}: critical variables {critical_map(report)} "
                      f"differ from Table II; golden.json not written",
                      file=sys.stderr)
                return 1
            apps[name] = {
                "trace_digest": read_layout(path).content_digest,
                "records": report.trace_stats.record_count,
                "report_sha256": sha256(
                    canonical_report_json(report).encode()),
            }
    payload = {"fleet_records": sum(entry["records"]
                                    for entry in apps.values()),
               "apps": apps}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(apps)} apps, "
          f"{payload['fleet_records']} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
