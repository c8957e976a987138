"""R/W events as columns: the classifier and the views agree with the events.

:class:`~repro.core.rwdeps.RWDependencies` keeps its events as columns and
:func:`~repro.core.classify.classify_variables` reads them as columns.  The
event-list heuristics below are the reference the columns must match:
over random per-variable event sequences (arrays and scalars, element
offsets, post-loop events), the column classifier gives the reference's
classes, and the :class:`~repro.core.rwdeps.AccessEvent` views and the
serialized rows give back the events they were built from.
"""

from __future__ import annotations

import json
from typing import List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import classify_variables
from repro.core.preprocessing import MLIVariable, PreprocessingResult
from repro.core.report import DependencyType
from repro.core.rwdeps import AccessEvent, AccessKind, RWDependencies
from repro.core.varmap import VariableInfo, VariableMap
from repro.store.serialize import (
    SerializationError,
    report_from_dict,
    report_to_json,
)


# --------------------------------------------------------------------------- #
# Reference: the event-list heuristics
# --------------------------------------------------------------------------- #
def _ref_is_war(events: List[AccessEvent]) -> bool:
    if not events:
        return False
    if events[0].kind is not AccessKind.READ:
        return False
    return any(event.kind is AccessKind.WRITE for event in events[1:])


def _ref_is_rapo(info: VariableInfo, events: List[AccessEvent],
                 post_events: List[AccessEvent]) -> bool:
    if not info.is_array or not events:
        return False
    if events[0].kind is not AccessKind.WRITE:
        return False
    written: Set[int] = set()
    saw_read = False
    for event in events:
        if event.kind is AccessKind.WRITE:
            written.add(event.element_offset)
        else:
            saw_read = True
            break
    if not saw_read and not post_events:
        return False
    return len(written) < info.element_count


def _ref_is_outcome(events: List[AccessEvent],
                    post_events: List[AccessEvent]) -> bool:
    if not post_events:
        return False
    has_write = any(event.kind is AccessKind.WRITE for event in events)
    has_post_read = any(event.kind is AccessKind.READ
                        for event in post_events)
    return has_write and has_post_read


def _reference(infos, loop, post):
    classes = {}
    for info in infos:
        events = [e for e in loop if e.variable == info.key]
        post_events = [e for e in post if e.variable == info.key]
        if _ref_is_war(events):
            classes[info.name] = DependencyType.WAR
        elif _ref_is_rapo(info, events, post_events):
            classes[info.name] = DependencyType.RAPO
        elif _ref_is_outcome(events, post_events):
            classes[info.name] = DependencyType.OUTCOME
    return classes


# --------------------------------------------------------------------------- #
# Random per-variable event sequences
# --------------------------------------------------------------------------- #
_variable = st.tuples(st.booleans(), st.integers(1, 6))  # is_array, count
_access = st.tuples(st.booleans(), st.integers(0, 5))    # write, offset


@st.composite
def _scenarios(draw):
    shapes = draw(st.lists(_variable, min_size=1, max_size=4))
    infos = []
    for index, (is_array, count) in enumerate(shapes):
        count = count if is_array else 1
        infos.append(VariableInfo(
            name=f"v{index}", base_address=0x1000 * (index + 1),
            size_bytes=4 * count, element_bits=32, is_array=is_array,
            is_global=index % 2 == 0, function="main"))
    functions = ("main", "helper")

    def events(max_size, first_dyn):
        drawn = draw(st.lists(
            st.tuples(st.integers(0, len(infos) - 1), _access,
                      st.sampled_from(functions)),
            max_size=max_size))
        out = []
        for position, (which, (write, offset), function) in enumerate(drawn):
            info = infos[which]
            out.append(AccessEvent(
                dyn_id=first_dyn + position, variable=info.key,
                name=info.name,
                kind=AccessKind.WRITE if write else AccessKind.READ,
                line=10 + which, function=function,
                element_offset=offset % info.element_count))
        return out

    loop = events(30, 100)
    post = events(8, 1000)
    return infos, loop, post


def _columns(loop, post=()):
    """The R/W columns of explicit event lists, through their rows."""
    def rows(events):
        return [(e.dyn_id, e.variable, e.name, e.kind.value, e.line,
                 e.function, e.element_offset) for e in events]
    return RWDependencies.from_rows(rows(loop), rows(post))


def _preprocessing(infos):
    return PreprocessingResult(
        variable_map=VariableMap(),
        mli_variables=[MLIVariable(info) for info in infos],
        before_variables={info.key: info for info in infos},
        inside_variables={info.key: info for info in infos})


@given(_scenarios())
@settings(max_examples=300, deadline=None)
def test_column_classifier_matches_the_event_heuristics(scenario):
    infos, loop, post = scenario
    rw = _columns(loop, post)
    critical = classify_variables(_preprocessing(infos), rw)
    assert {v.name: v.dependency for v in critical} == \
        _reference(infos, loop, post)


@given(_scenarios())
@settings(max_examples=100, deadline=None)
def test_views_and_rows_give_back_the_events(scenario):
    infos, loop, post = scenario
    rw = _columns(loop, post)
    assert rw.loop_events == loop
    assert rw.post_loop_events == post
    for info in infos:
        assert rw.events_for(info.key) == [
            e for e in loop if e.variable == info.key]
        assert rw.post_events_for(info.key) == [
            e for e in post if e.variable == info.key]
    restored = RWDependencies.from_rows(rw.rows(), rw.rows(post=True))
    assert restored == rw
    assert restored.rows() == rw.rows()


def test_edited_view_breaks_equality():
    info = VariableInfo("a", 0x1000, 4, 32, False, True)
    event = AccessEvent(1, info.key, "a", AccessKind.READ, 3, "main")
    rw = _columns([event, event])
    other = _columns([event, event])
    assert rw == other
    other.loop_events.pop()
    assert rw != other


@pytest.mark.parametrize("row", [
    [1, "a@0x1", "a", "Read", 3, "main"],          # six fields
    [1, "a@0x1", "a", "Peek", 3, "main", 0],       # unknown kind
    [2 ** 64, "a@0x1", "a", "Read", 3, "main", 0],  # past int64
    ["1", "a@0x1", "a", "Read", 3, "main", 0.5j],  # not an integer
])
def test_malformed_event_rows_are_refused(example_report, row):
    payload = json.loads(report_to_json(example_report))
    payload["rw_sequence"]["loop_events"][0] = row
    with pytest.raises(SerializationError):
        report_from_dict(payload)
