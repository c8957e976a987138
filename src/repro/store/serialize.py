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

How the bytes are written: one private writer, :func:`_write_report`,
produces the text of both :func:`canonical_report_json` and
:func:`report_to_json` (which adds ``timings``).  It writes the top-level
members in sorted key order, without spaces, each from the report's own
structures — the R/W rows from the event columns and the ``variables`` /
``functions`` tables, one ``%`` format per slice of rows; the DDG nodes in
insertion order; the edges in ``(parent, child)`` order from
:meth:`DDG.edges_by_parent` — and the small members through
:func:`json.dumps`.  Each distinct string is escaped once, with
``json.encoder.encode_basestring_ascii``, the escaper ``json.dumps`` itself
uses, so the text equals ``json.dumps(payload, sort_keys=True,
separators=(",", ":"))`` of the payload dict byte for byte.  No list per
row or tuple per edge is built.  ``tests/reference_serialize.py`` keeps
that dict route, and ``tests/test_serialize_writer.py`` holds the writer
to it.  :func:`report_to_dict` is the parse of :func:`report_to_json`.

:func:`report_from_dict` decodes every field and is the round trip's
reference.  :func:`report_with_sections` decodes the same payload but takes
the DDGs and R/W events from a callback: a store hit hands them over as
:class:`~repro.core.report.Deferred` values of :func:`decode_section`, so a
caller that reads only the critical variables never builds them.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.config import MainLoopSpec
from repro.core.ddg import DDG, NodeKind
from repro.core.report import (
    AutoCheckReport,
    CriticalVariable,
    DependencyType,
    TraceStats,
)
from repro.core.rwdeps import EventColumns, RWDependencies
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
#: A node kind's JSON text, and an access event's by its ``write`` flag.
_NODE_KIND_TEXT = {kind: _escape(kind.value) for kind in NodeKind}
_ACCESS_TEXT = np.array([_escape("Read"), _escape("Write")], dtype=object)

#: One R/W event row: dyn id, variable (key and name), kind, line,
#: function and element offset.
_ROW = "[%d,%s,%s,%d,%s,%d]"
#: Rows formatted per slice, so the slice's Python objects stay bounded.
_SLICE_ROWS = 4096
_SLICE_FORMAT = ",".join([_ROW] * _SLICE_ROWS)


def _dumps(value: Any) -> str:
    """``value`` in the canonical form: sorted keys, no spaces, ASCII."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class _Escaped(dict):
    """String -> its JSON text, escaped on its first lookup only."""

    def __missing__(self, text: str) -> str:
        escaped = self[text] = _escape(text)
        return escaped


def _ddg_json(ddg: Optional[DDG], escaped: _Escaped) -> str:
    if ddg is None:
        return "null"
    nodes = ",".join([
        f"[{escaped[node.key]},{_NODE_KIND_TEXT[node.kind]},"
        f"{escaped[node.label]}]"
        for node in ddg.nodes()])
    edges = []
    for parent, children in ddg.edges_by_parent():
        head = "[" + escaped[parent] + ","
        edges.append(",".join([head + escaped[child] + "]"
                               for child in children]))
    return "".join(['{"edges":[', ",".join(edges), '],"nodes":[', nodes,
                    "]}"])


def _rows_json(columns: EventColumns, variables: np.ndarray,
               functions: np.ndarray) -> str:
    """The rows of ``columns`` (without the enclosing brackets);
    ``variables`` and ``functions`` hold the JSON text of each code."""
    parts = []
    for start in range(0, len(columns), _SLICE_ROWS):
        stop = min(start + _SLICE_ROWS, len(columns))
        cells = np.empty((stop - start, 6), dtype=object)
        cells[:, 0] = columns.dyn_id[start:stop]
        cells[:, 1] = variables[columns.variable[start:stop]]
        cells[:, 2] = _ACCESS_TEXT[columns.write[start:stop].view(np.uint8)]
        cells[:, 3] = columns.line[start:stop]
        cells[:, 4] = functions[columns.function[start:stop]]
        cells[:, 5] = columns.offset[start:stop]
        form = (_SLICE_FORMAT if stop - start == _SLICE_ROWS
                else ",".join([_ROW] * (stop - start)))
        parts.append(form % tuple(cells.ravel().tolist()))
    return ",".join(parts)


def _rw_json(rw: Optional[RWDependencies], escaped: _Escaped) -> str:
    if rw is None:
        return "null"
    variables = np.array([escaped[key] + "," + escaped[name]
                          for key, name in rw.variables], dtype=object)
    functions = np.array([escaped[function] for function in rw.functions],
                         dtype=object)
    return "".join(['{"loop_events":[',
                    _rows_json(rw.loop, variables, functions),
                    '],"post_loop_events":[',
                    _rows_json(rw.post, variables, functions), "]}"])


def timings_to_dict(timings: TimingBreakdown) -> Dict[str, Any]:
    """Encode a report's :class:`TimingBreakdown` (the ``timings`` field of
    :func:`report_to_dict`; a store entry keeps it in its header)."""
    return {"stages": dict(timings.stages), "counts": dict(timings.counts)}


def _write_report(report: AutoCheckReport, timings: bool) -> str:
    """The report's JSON text, keys sorted and no spaces: the canonical
    bytes, with the ``timings`` member when ``timings`` is set.

    Each member's text is written on its own, in key order.  The DDGs and
    R/W events are written from the report's structures, each distinct
    string escaped once; the small members go through :func:`_dumps`.
    """
    spec = report.main_loop
    stats = report.trace_stats
    small: Dict[str, Any] = {
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
        "trace_stats": {
            "record_count": stats.record_count,
            "before_count": stats.before_count,
            "inside_count": stats.inside_count,
            "after_count": stats.after_count,
            "global_count": stats.global_count,
            "trace_bytes": stats.trace_bytes,
        },
    }
    if timings:
        small["timings"] = timings_to_dict(report.timings)
    members = {name: _dumps(value) for name, value in small.items()}
    escaped = _Escaped()
    members["complete_ddg"] = _ddg_json(report.complete_ddg, escaped)
    members["contracted_ddg"] = _ddg_json(report.contracted_ddg, escaped)
    members["rw_sequence"] = _rw_json(report.rw_sequence, escaped)
    out = []
    for name in sorted(members):
        out += ["," if out else "{", f'"{name}":', members[name]]
    out.append("}")
    return "".join(out)


def report_to_dict(report: AutoCheckReport) -> Dict[str, Any]:
    """``report`` as a JSON-ready dict (schema ``SCHEMA_VERSION``): the
    parse of :func:`report_to_json`'s text."""
    return json.loads(_write_report(report, timings=True))


def report_to_json(report: AutoCheckReport,
                   indent: Optional[int] = None) -> str:
    """Serialize ``report`` to a JSON string, keys sorted.

    Args:
        report: the report to encode.
        indent: forwarded to :func:`json.dumps` for human-readable output;
            the default is compact (no spaces): the canonical bytes plus
            the ``timings`` member.

    Returns:
        A JSON document satisfying
        ``report_from_json(report_to_json(r)) == r``.
    """
    text = _write_report(report, timings=True)
    if indent is None:
        return text
    return json.dumps(json.loads(text), indent=indent, sort_keys=True)


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
    return _write_report(report, timings=False)
