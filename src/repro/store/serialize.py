"""Stable, versioned JSON serialization of :class:`AutoCheckReport`.

Until now a report only existed as live Python objects: results could not be
shared between processes, diffed across runs, or served without re-running
the whole engine.  This module gives the full report surface — critical
variables, MLI set, both DDGs (nodes *and* edges with kinds), the ordered
R/W event sequences, per-stage timings and trace stats — a durable JSON
form with an exact round-trip guarantee::

    report_from_json(report_to_json(report)) == report

That equality is structural over every compared field (``AutoCheckReport``
is a dataclass; :class:`repro.core.ddg.DDG` implements structural ``__eq__``
for exactly this purpose) and is asserted across every bundled benchmark by
``tests/test_store.py``.  The round trip is what makes the content-addressed
artifact store (:mod:`repro.store.cache`) sound: a cache hit must be
indistinguishable from re-running the engine.

``SCHEMA_VERSION`` is part of the store key — a schema change silently
invalidates old entries instead of mis-deserializing them.  Loading a
payload with a different schema raises :class:`SerializationError`.

Format notes:

* enum fields (dependency class, DDG node kind, access kind) serialize as
  their string values;
* the R/W events are written from, and read back into, their columns
  (:class:`repro.core.rwdeps.EventColumns`) one row per event; the
  per-variable views (``by_variable``/``post_by_variable``) are *not*
  serialized — they are a grouping of the flat event lists, built on use
  in stream order exactly as for a walked report;
* timing floats survive exactly (JSON emits the shortest round-tripping
  repr);
* per-run provenance (:class:`repro.core.report.CacheInfo`) is excluded —
  it describes one run's relationship to the store, not the analysis
  content.

:func:`report_from_dict` decodes every field and is the round trip's
reference.  :func:`report_with_sections` decodes the same payload but takes
the DDGs and R/W events from a callback: a store hit hands them over as
:class:`~repro.core.report.Deferred` values of :func:`decode_section`, so a
caller that reads only the critical variables never builds them.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from repro.core.config import MainLoopSpec
from repro.core.ddg import DDG, NodeKind
from repro.core.report import (
    AutoCheckReport,
    CriticalVariable,
    DependencyType,
    TraceStats,
)
from repro.core.rwdeps import RWDependencies
from repro.util.timing import TimingBreakdown

#: Bump on any change to the serialized shape; part of the store key.
SCHEMA_VERSION = 1

#: Payload type marker, so a store entry is self-describing on disk.
PAYLOAD_KIND = "autocheck-report"


class SerializationError(ValueError):
    """Raised when a payload does not follow the report schema."""


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #
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


def timings_to_dict(timings: TimingBreakdown) -> Dict[str, Any]:
    """Encode a report's :class:`TimingBreakdown` (the ``timings`` field of
    :func:`report_to_dict`; a store entry keeps it in its header)."""
    return {"stages": dict(timings.stages), "counts": dict(timings.counts)}


def report_to_dict(report: AutoCheckReport) -> Dict[str, Any]:
    """Encode ``report`` as a JSON-ready dict (schema ``SCHEMA_VERSION``)."""
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
        "timings": timings_to_dict(report.timings),
        "trace_stats": {
            "record_count": report.trace_stats.record_count,
            "before_count": report.trace_stats.before_count,
            "inside_count": report.trace_stats.inside_count,
            "after_count": report.trace_stats.after_count,
            "global_count": report.trace_stats.global_count,
            "trace_bytes": report.trace_stats.trace_bytes,
        },
    }


def report_to_json(report: AutoCheckReport,
                   indent: Optional[int] = None) -> str:
    """Serialize ``report`` to a JSON string.

    Args:
        report: the report to encode.
        indent: forwarded to :func:`json.dumps` for human-readable output
            (keys then sorted); the default is compact.

    Returns:
        A JSON document satisfying
        ``report_from_json(report_to_json(r)) == r``.
    """
    return json.dumps(report_to_dict(report), indent=indent,
                      sort_keys=indent is not None)


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #
#: Enum members by value: ``NodeKind(value)`` costs about eight times
#: this lookup, and loading a stored report decodes one kind per node.
_NODE_KINDS = {kind.value: kind for kind in NodeKind}


def _decode_ddg(payload: Optional[Dict[str, Any]]) -> Optional[DDG]:
    if payload is None:
        return None
    ddg = DDG()
    for key, kind, label in payload["nodes"]:
        ddg.add_node(key, _NODE_KINDS[kind], label)
    for parent, child in payload["edges"]:
        ddg.add_edge(parent, child)
    return ddg


def _decode_rw(payload: Optional[Dict[str, Any]]) -> Optional[RWDependencies]:
    if payload is None:
        return None
    return RWDependencies.from_rows(payload["loop_events"],
                                    payload["post_loop_events"])


def decode_section(name: str, value: Any) -> Any:
    """Decode the payload ``value`` of the report section ``name``:
    ``complete_ddg``, ``contracted_ddg`` or ``rw_sequence``."""
    return _decode_rw(value) if name == "rw_sequence" else _decode_ddg(value)


def report_from_dict(payload: Dict[str, Any]) -> AutoCheckReport:
    """Decode a dict produced by :func:`report_to_dict`.

    Raises:
        SerializationError: when the payload kind or schema version does
            not match, or a required field is missing/mistyped.
    """
    return report_with_sections(payload, decode_section)


def report_with_sections(payload: Dict[str, Any],
                         section: Callable[[str, Any], Any]
                         ) -> AutoCheckReport:
    """:func:`report_from_dict`, but each of the fields ``complete_ddg``,
    ``contracted_ddg`` and ``rw_sequence`` is ``section(name,
    payload[name])``.

    Raises:
        SerializationError: as :func:`report_from_dict`, for the fields it
            decodes.
    """
    if not isinstance(payload, dict):
        raise SerializationError(
            f"report payload must be an object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind != PAYLOAD_KIND:
        raise SerializationError(
            f"payload kind {kind!r} is not {PAYLOAD_KIND!r}")
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported report schema {schema!r} "
            f"(this build reads schema {SCHEMA_VERSION})")
    try:
        spec = MainLoopSpec(function=payload["main_loop"]["function"],
                            start_line=payload["main_loop"]["start_line"],
                            end_line=payload["main_loop"]["end_line"])
        critical = [
            CriticalVariable(
                name=entry["name"],
                dependency=DependencyType(entry["dependency"]),
                size_bytes=entry["size_bytes"],
                base_address=entry["base_address"],
                decl_line=entry["decl_line"],
                is_array=entry["is_array"],
                is_global=entry["is_global"],
            )
            for entry in payload["critical_variables"]
        ]
        timings = TimingBreakdown(
            stages=dict(payload["timings"]["stages"]),
            counts={name: int(count) for name, count
                    in payload["timings"]["counts"].items()})
        stats_payload = payload["trace_stats"]
        stats = TraceStats(
            record_count=stats_payload["record_count"],
            before_count=stats_payload["before_count"],
            inside_count=stats_payload["inside_count"],
            after_count=stats_payload["after_count"],
            global_count=stats_payload["global_count"],
            trace_bytes=stats_payload["trace_bytes"],
        )
        return AutoCheckReport(
            main_loop=spec,
            critical_variables=critical,
            mli_variable_names=list(payload["mli_variable_names"]),
            induction_variable=payload["induction_variable"],
            complete_ddg=section("complete_ddg", payload["complete_ddg"]),
            contracted_ddg=section("contracted_ddg",
                                   payload["contracted_ddg"]),
            rw_sequence=section("rw_sequence", payload["rw_sequence"]),
            timings=timings,
            trace_stats=stats,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, SerializationError):
            raise
        raise SerializationError(
            f"malformed report payload: {exc!r}") from exc


def report_from_json(text: str) -> AutoCheckReport:
    """Deserialize a report from a JSON string (see :func:`report_to_json`).

    Raises:
        SerializationError: on malformed JSON or a schema mismatch.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"report payload is not JSON: {exc}") from exc
    return report_from_dict(payload)


def canonical_report_json(report: AutoCheckReport) -> str:
    """Deterministic wire encoding of the report's *analysis content*.

    The full schema payload minus the ``timings`` block: per-stage
    wall-clock seconds are provenance of one particular run, so two
    independent runs that computed the same analysis would otherwise never
    serialize to the same bytes.  With timings dropped and keys sorted,
    the encoding is byte-identical for equal reports — the property the
    serve daemon's responses are tested against (a warm hit, a coalesced
    follower and a fresh cold run of the same trace all answer with the
    same bytes).

    A store entry holds these bytes as its report line, with the timings
    in its header (:mod:`repro.store.cache`), so the serve daemon answers a
    stored report with the bytes its publish wrote.
    """
    payload = report_to_dict(report)
    payload.pop("timings", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
