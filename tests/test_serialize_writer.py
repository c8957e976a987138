"""The report writer against the dict route it replaced.

``canonical_report_json`` and ``report_to_json`` write a report's JSON
text straight from its structures; ``reference_serialize.py`` keeps the
dict route (a Python payload, then :func:`json.dumps`) they replaced.
Both must give the same bytes on every report: the fleet's, and reports
generated here with strings that need escaping (quotes, backslashes,
control characters, non-ASCII, astral characters, lone surrogates),
labels that differ from their keys, isolated nodes, empty and absent
DDGs and R/W events, and int64 extremes in the event columns.
"""

from __future__ import annotations

import json
import os

import pytest
from conftest import FLEET_NAMES
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_serialize import (
    reference_canonical_json,
    reference_dict,
    reference_report_json,
)

from repro.core.config import MainLoopSpec
from repro.core.ddg import DDG, NodeKind
from repro.core.report import (
    AutoCheckReport,
    CriticalVariable,
    DependencyType,
    TraceStats,
)
from repro.core.rwdeps import EventColumns, RWDependencies
from repro.store.serialize import (
    canonical_report_json,
    report_from_json,
    report_to_dict,
    report_to_json,
)
from repro.util.timing import TimingBreakdown

INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)

#: Any code point, surrogates included, with the ones JSON escapes drawn
#: often.
TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "é",
                     " ", "\U0001f600", "\ud800", "\udfff"])),
    max_size=8)


@st.composite
def ddgs(draw):
    """A DDG with text keys and labels, some nodes isolated."""
    keys = draw(st.lists(TEXT, unique=True, max_size=12))
    ddg = DDG()
    for key in keys:
        # an empty label makes the node's label its key
        ddg.add_node(key, draw(st.sampled_from(NodeKind)), draw(TEXT))
    if len(keys) > 1:
        for parent, child in draw(st.lists(
                st.tuples(st.sampled_from(keys), st.sampled_from(keys)),
                max_size=30)):
            ddg.add_edge(parent, child)
    return ddg


@st.composite
def event_columns(draw, variables: int, functions: int):
    size = draw(st.integers(0, 12)) if variables and functions else 0

    def column(strategy):
        return draw(st.lists(strategy, min_size=size, max_size=size))

    return EventColumns(column(INT64),
                        column(st.integers(0, max(variables - 1, 0))),
                        column(st.booleans()), column(INT64),
                        column(st.integers(0, max(functions - 1, 0))),
                        column(INT64))


@st.composite
def rw_sequences(draw):
    variables = draw(st.lists(st.tuples(TEXT, TEXT), max_size=4))
    functions = draw(st.lists(TEXT, max_size=3))
    return RWDependencies(
        draw(event_columns(len(variables), len(functions))),
        draw(event_columns(len(variables), len(functions))),
        variables, functions)


@st.composite
def reports(draw):
    start = draw(st.integers(1, 2**63 - 1))
    return AutoCheckReport(
        main_loop=MainLoopSpec(function=draw(TEXT), start_line=start,
                               end_line=draw(st.integers(start, 2**63 - 1))),
        critical_variables=draw(st.lists(st.builds(
            CriticalVariable, name=TEXT,
            dependency=st.sampled_from(DependencyType),
            size_bytes=INT64, base_address=INT64, decl_line=INT64,
            is_array=st.booleans(), is_global=st.booleans()), max_size=3)),
        mli_variable_names=draw(st.lists(TEXT, max_size=3)),
        induction_variable=draw(st.none() | TEXT),
        complete_ddg=draw(st.none() | ddgs()),
        contracted_ddg=draw(st.none() | ddgs()),
        rw_sequence=draw(st.none() | rw_sequences()),
        timings=TimingBreakdown(
            stages=draw(st.dictionaries(TEXT, st.floats(), max_size=3)),
            counts=draw(st.dictionaries(TEXT, INT64, max_size=3))),
        trace_stats=draw(st.builds(
            TraceStats, record_count=INT64, before_count=INT64,
            inside_count=INT64, after_count=INT64, global_count=INT64,
            trace_bytes=st.none() | INT64)))


def _assert_same_text(text: str, reference: str) -> None:
    """``text == reference``; a difference is shown around its first
    character (pytest's own diff of two fleet reports takes minutes)."""
    if text == reference:
        return
    at = len(os.path.commonprefix([text, reference]))
    start = max(at - 40, 0)
    pytest.fail(f"the texts differ at character {at}: "
                f"{text[start:at + 40]!r} != {reference[start:at + 40]!r}")


def _assert_writer_equals_reference(report: AutoCheckReport) -> None:
    _assert_same_text(canonical_report_json(report),
                      reference_canonical_json(report))
    text = report_to_json(report)
    _assert_same_text(text, reference_report_json(report))
    _assert_same_text(json.dumps(report_to_dict(report), sort_keys=True,
                                 separators=(",", ":")), text)
    _assert_same_text(report_to_json(report, indent=1),
                      json.dumps(reference_dict(report), indent=1,
                                 sort_keys=True))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(reports())
def test_writer_equals_the_dict_route(report):
    _assert_writer_equals_reference(report)


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_writer_equals_the_dict_route_on_the_fleet(fleet, name):
    _assert_writer_equals_reference(fleet.apps[name].report)


def test_edges_are_written_in_parent_child_order():
    ddg = DDG()
    for key in ("b", "a", "c"):
        ddg.add_node(key, NodeKind.LOCAL)
    for parent, child in (("c", "a"), ("b", "c"), ("a", "c"), ("a", "b")):
        ddg.add_edge(parent, child)
    assert ddg.edges_by_parent() == [("a", ["b", "c"]), ("b", ["c"]),
                                     ("c", ["a"])]
    report = AutoCheckReport(main_loop=MainLoopSpec("main", 1, 2),
                             complete_ddg=ddg)
    payload = json.loads(canonical_report_json(report))
    assert payload["complete_ddg"]["edges"] == [
        ["a", "b"], ["a", "c"], ["b", "c"], ["c", "a"]]


def test_escaping_is_ascii_and_round_trips():
    key = 'q"\\\x01é\U0001f600'
    ddg = DDG()
    ddg.add_node(key, NodeKind.MLI, "label")
    rw = RWDependencies(EventColumns([2**63 - 1], [0], [True], [-1], [0],
                                     [-2**63]),
                        None, [(key, "label")], ["fé"])
    report = AutoCheckReport(main_loop=MainLoopSpec("main", 1, 2),
                             complete_ddg=ddg, rw_sequence=rw)
    text = canonical_report_json(report)
    assert text.isascii()
    assert "\\u00e9" in text and "\\ud83d\\ude00" in text
    restored = report_from_json(report_to_json(report))
    assert restored == report
    assert restored.rw_sequence.loop.dyn_id.tolist() == [2**63 - 1]
    assert restored.rw_sequence.loop.offset.tolist() == [-2**63]
