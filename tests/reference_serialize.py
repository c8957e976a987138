"""The dict route that encoded reports, kept as the reference.

Before :mod:`repro.store.serialize` wrote a report's JSON text straight
from its structures, it built the whole payload as Python objects — a list
per R/W event row and per DDG node, a tuple per edge, sorted as pairs of
strings — and handed that to :func:`json.dumps`.  :func:`reference_dict`
is that payload; :func:`reference_canonical_json` and
:func:`reference_report_json` are the encodings ``canonical_report_json``
and ``report_to_json`` must equal byte for byte
(``tests/test_serialize_writer.py``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.core.ddg import DDG
from repro.core.report import AutoCheckReport
from repro.core.rwdeps import RWDependencies
from repro.store.serialize import PAYLOAD_KIND, SCHEMA_VERSION


def _encode_ddg(ddg: Optional[DDG]) -> Optional[Dict[str, Any]]:
    if ddg is None:
        return None
    return {
        "nodes": [[node.key, node.kind.value, node.label]
                  for node in ddg.nodes()],
        "edges": sorted(ddg.edges()),
    }


def _encode_rw(rw: Optional[RWDependencies]) -> Optional[Dict[str, Any]]:
    if rw is None:
        return None
    return {"loop_events": rw.rows(), "post_loop_events": rw.rows(post=True)}


def reference_dict(report: AutoCheckReport) -> Dict[str, Any]:
    """``report`` as the JSON-ready dict the dict route built."""
    spec = report.main_loop
    return {
        "kind": PAYLOAD_KIND,
        "schema": SCHEMA_VERSION,
        "main_loop": {
            "function": spec.function,
            "start_line": spec.start_line,
            "end_line": spec.end_line,
        },
        "critical_variables": [
            {
                "name": v.name,
                "dependency": v.dependency.value,
                "size_bytes": v.size_bytes,
                "base_address": v.base_address,
                "decl_line": v.decl_line,
                "is_array": v.is_array,
                "is_global": v.is_global,
            }
            for v in report.critical_variables
        ],
        "mli_variable_names": list(report.mli_variable_names),
        "induction_variable": report.induction_variable,
        "complete_ddg": _encode_ddg(report.complete_ddg),
        "contracted_ddg": _encode_ddg(report.contracted_ddg),
        "rw_sequence": _encode_rw(report.rw_sequence),
        "timings": {"stages": dict(report.timings.stages),
                    "counts": dict(report.timings.counts)},
        "trace_stats": {
            "record_count": report.trace_stats.record_count,
            "before_count": report.trace_stats.before_count,
            "inside_count": report.trace_stats.inside_count,
            "after_count": report.trace_stats.after_count,
            "global_count": report.trace_stats.global_count,
            "trace_bytes": report.trace_stats.trace_bytes,
        },
    }


def reference_report_json(report: AutoCheckReport) -> str:
    """The whole payload, keys sorted and no spaces."""
    return json.dumps(reference_dict(report), sort_keys=True,
                      separators=(",", ":"))


def reference_canonical_json(report: AutoCheckReport) -> str:
    """The payload without ``timings``, keys sorted and no spaces: the
    canonical bytes."""
    payload = reference_dict(report)
    payload.pop("timings")
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
