"""Extraction of execution-time-ordered Read/Write dependencies.

The identification module converts the dependency information into a
sequence of read and write events on each MLI variable, ordered by dynamic
instruction id (paper Fig. 5e), plus the post-loop reads needed for the
*Outcome* heuristic.  Array accesses also record the element offset touched,
which is what the *RAPO* (Read-After-Partially-Overwritten) heuristic
inspects.

Offsets come from :meth:`repro.core.varmap.VariableMap.resolve_access`: the
owning allocation and the element index are produced by one bisect lookup
against the live interval store, and the index is always relative to the
owner's base address — stable even when later allocations have shadowed part
of the owner's range.

:class:`RWExtractionPass` collects the events during the engine walk: every
access resolves against the shared live map *at its own execution time*, so
an access to an MLI byte range that a later callee ``Alloca`` shadows still
attributes to the MLI variable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Container, Dict, List, Optional, Set

from repro.core.engine import (
    KIND_LOAD,
    KIND_STORE,
    REGION_BEFORE,
    REGION_INSIDE,
    AnalysisPass,
    SpanSelection,
)
from repro.core.varmap import VariableMap
from repro.ir.opcodes import Opcode

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ACCESS_OPCODES = (_LOAD, _STORE)

#: memo-miss sentinel (``None`` is a valid resolution outcome)
_MISS = object()


class AccessKind(enum.Enum):
    READ = "Read"
    WRITE = "Write"


@dataclass(frozen=True)
class AccessEvent:
    """One dynamic access to an MLI variable."""

    dyn_id: int
    variable: str          # MLI variable key
    name: str              # source-level name
    kind: AccessKind
    line: int
    function: str
    element_offset: int = 0

    def __str__(self) -> str:
        return f"{self.name}-{self.kind.value}"


@dataclass
class RWDependencies:
    """All loop-region and post-loop access events, per MLI variable."""

    loop_events: List[AccessEvent] = field(default_factory=list)
    post_loop_events: List[AccessEvent] = field(default_factory=list)
    by_variable: Dict[str, List[AccessEvent]] = field(default_factory=dict)
    post_by_variable: Dict[str, List[AccessEvent]] = field(default_factory=dict)

    def events_for(self, variable_key: str) -> List[AccessEvent]:
        return self.by_variable.get(variable_key, [])

    def post_events_for(self, variable_key: str) -> List[AccessEvent]:
        return self.post_by_variable.get(variable_key, [])

    def sequence_string(self, limit: Optional[int] = None) -> str:
        """Human readable R/W sequence like the paper's Fig. 5(e)."""
        events = self.loop_events[:limit] if limit else self.loop_events
        return "; ".join(f"{i + 1}: {event}" for i, event in enumerate(events))


class RWExtractionPass(AnalysisPass):
    """Engine pass: collect loop-region and post-loop access events.

    ``candidates`` is the live ``before_vars`` dict of the MLI-collection
    pass sharing the engine: the MLI set is its subset (a variable must be
    accessed before *and* inside the loop), and it is complete before the
    first inside record is dispatched, so filtering on it at event time
    bounds the tentative event lists without losing any MLI event.  The
    final filter to the matched MLI set happens in :meth:`build`.
    """

    column_kinds = frozenset((KIND_LOAD, KIND_STORE))

    def __init__(self, varmap: VariableMap,
                 candidates: Optional[Container[str]] = None) -> None:
        self.varmap = varmap
        self._candidates = candidates
        self._loop: List[AccessEvent] = []
        self._post: List[AccessEvent] = []
        #: columnar per-address decision memo + the map revision it is
        #: valid for
        self._col_memo: Dict = {}
        self._col_memo_rev = -1

    def select_span(self, block, lo: int, hi: int,
                    region: int) -> Optional[SpanSelection]:
        """The span's Load/Store rows, inside the loop and after it."""
        if region == REGION_BEFORE:
            return None
        return SpanSelection(block.match_rows(lo, hi, _ACCESS_OPCODES))

    def consume_selected(self, block, region: int, selected) -> None:
        """Collect the segment's access events, straight off the columns."""
        sink = self._loop if region == REGION_INSIDE else self._post
        strings = block.strings
        # numpy-backed when the list was never materialized; every emitted
        # event wraps its element in int() either way (a no-op for ints).
        dyn_id = block.dyn_id_col()
        opcode = block.opcode
        line = block.line
        function_id = block.function_id
        op_start = block.op_start
        has_result = block.has_result
        op_address = block.op_address
        resolve_access = self.varmap.resolve_access
        candidates = self._candidates
        append = sink.append
        load = _LOAD
        read = AccessKind.READ
        write = AccessKind.WRITE
        # The *whole* per-address decision memoizes: the candidate set is
        # complete before the first inside record, so skip-or-emit is a
        # function of the address alone — valid while the live map's
        # revision is unchanged (only scope records between segments can
        # mutate it; the revision check catches exactly those).
        memo = self._col_memo
        if self._col_memo_rev != self.varmap.revision:
            self._col_memo_rev = self.varmap.revision
            memo.clear()
        memo_get = memo.get
        miss = _MISS
        for row in selected:
            if opcode[row] == load:
                kind = read
                operand_index = 0
            else:
                kind = write
                operand_index = 1
            lo_slot = op_start[row]
            if op_start[row + 1] - lo_slot - has_result[row] <= operand_index:
                continue
            address = op_address[lo_slot + operand_index]
            hit = memo_get(address, miss)
            if hit is miss:
                resolved = resolve_access(address)
                hit = None
                if resolved is not None:
                    info, element_offset = resolved
                    if candidates is None or info.key in candidates:
                        hit = (info.key, info.name, element_offset)
                memo[address] = hit
            if hit is None:
                continue
            variable, name, element_offset = hit
            append(AccessEvent(
                dyn_id=int(dyn_id[row]),
                variable=variable,
                name=name,
                kind=kind,
                line=line[row],
                function=strings[function_id[row]],
                element_offset=element_offset,
            ))

    def build(self, mli_keys: Set[str],
              mli_names: Optional[Dict[str, str]] = None) -> RWDependencies:
        """Filter the tentative events down to the matched MLI variables."""
        mli_names = mli_names or {}
        result = RWDependencies()
        for tentative, sink, by_variable in (
                (self._loop, result.loop_events, result.by_variable),
                (self._post, result.post_loop_events, result.post_by_variable)):
            for event in tentative:
                if event.variable not in mli_keys:
                    continue
                name = mli_names.get(event.variable, event.name)
                if name != event.name:
                    event = AccessEvent(
                        dyn_id=event.dyn_id, variable=event.variable,
                        name=name, kind=event.kind, line=event.line,
                        function=event.function,
                        element_offset=event.element_offset)
                sink.append(event)
                by_variable.setdefault(event.variable, []).append(event)
        return result

