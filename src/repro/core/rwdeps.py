"""Extraction of execution-time-ordered Read/Write dependencies.

The identification module converts the dependency information into a
sequence of read and write events on each MLI variable, ordered by dynamic
instruction id (paper Fig. 5e), plus the post-loop reads needed for the
*Outcome* heuristic.  Array accesses also record the element offset touched,
which is what the *RAPO* (Read-After-Partially-Overwritten) heuristic
inspects.

:class:`RWExtractionPass` collects the events during the engine walk from
each span's access table (:class:`repro.core.engine.AccessTable`): every
access carries the owner its address resolved to *at its own execution
time*, so an access to an MLI byte range that a later callee ``Alloca``
shadows still attributes to the MLI variable.  The element offset is
computed from the table's address and the owner's base address — relative
to the owner's base, so it is stable even when later allocations have
shadowed part of the owner's range.

The events stay columns (:class:`EventColumns`) from the walk through
classification (:mod:`repro.core.classify`) to serialization
(:mod:`repro.store.serialize`).  :class:`AccessEvent` objects are built only
for callers that ask for them, through the views of
:class:`RWDependencies`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Container, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.engine import (
    KIND_GEP,
    KIND_STORE,
    REGION_BEFORE,
    REGION_INSIDE,
    AccessTable,
    AnalysisPass,
)
from repro.core.varmap import OwnerColumn, VariableMap


class AccessKind(enum.Enum):
    READ = "Read"
    WRITE = "Write"


#: an access kind's serialized value -> the kind, and whether it writes
_KIND_OF = {kind.value: kind for kind in AccessKind}
_IS_WRITE = {kind.value: kind is AccessKind.WRITE for kind in AccessKind}


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


#: the event columns, in the field order of an event row
_COLUMNS = ("dyn_id", "variable", "write", "line", "function", "offset")
_DTYPES = (np.int64, np.int64, np.bool_, np.int64, np.int64, np.int64)


class EventColumns:
    """Access events as parallel numpy columns, in stream order.

    ``variable`` and ``function`` are codes into the owning
    :class:`RWDependencies`' ``variables`` and ``functions`` tables;
    ``write`` is True for a write; ``offset`` is the element offset.
    """

    __slots__ = _COLUMNS

    def __init__(self, *columns) -> None:
        for name, dtype, column in zip(_COLUMNS, _DTYPES, columns):
            setattr(self, name, np.asarray(column, dtype=dtype))

    @classmethod
    def empty(cls) -> "EventColumns":
        return cls(*(() for _ in _COLUMNS))

    def __len__(self) -> int:
        return len(self.dyn_id)

    def take(self, index) -> "EventColumns":
        """The events at ``index`` (an index array or a boolean mask)."""
        return EventColumns(*(getattr(self, name)[index] for name in _COLUMNS))


class RWDependencies:
    """All loop-region and post-loop access events, per MLI variable.

    ``loop`` and ``post`` hold the events as :class:`EventColumns`;
    ``variables`` lists the ``(key, name)`` pairs their variable codes
    index and ``functions`` the function names.  The :class:`AccessEvent`
    lists (:attr:`loop_events`, :attr:`post_loop_events`,
    :attr:`by_variable`, :attr:`post_by_variable`) are views built on first
    use and kept; equality compares those views, so a caller that edits
    one edits what the report compares as.
    """

    def __init__(self, loop: Optional[EventColumns] = None,
                 post: Optional[EventColumns] = None,
                 variables: Sequence[Tuple[str, str]] = (),
                 functions: Sequence[str] = ()) -> None:
        self.loop = loop if loop is not None else EventColumns.empty()
        self.post = post if post is not None else EventColumns.empty()
        self.variables: List[Tuple[str, str]] = list(variables)
        self.functions: List[str] = list(functions)

    # ------------------------------------------------------------------ #
    # Construction from rows
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(cls, loop_rows: Sequence[Sequence[Any]],
                  post_rows: Sequence[Sequence[Any]] = ()) -> "RWDependencies":
        """The columns of event rows ``[dyn_id, variable, name, kind,
        line, function, element_offset]`` (``kind`` as its value,
        ``"Read"`` / ``"Write"``) — the serialized form.

        Raises:
            ValueError: a row that does not have 7 fields, or a field numpy
                cannot take as an integer.
            KeyError: an unknown kind.
            TypeError, OverflowError: a field of the wrong type or range.
        """
        variables: Dict[Tuple[str, str], int] = {}
        functions: Dict[str, int] = {}

        def columns(rows: Sequence[Sequence[Any]]) -> EventColumns:
            if not rows:
                return EventColumns.empty()
            if any(len(row) != 7 for row in rows):
                raise ValueError("an access event row has 7 fields")
            dyn_ids, keys, names, kinds, lines, function_names, offsets = (
                zip(*rows))
            return EventColumns(
                dyn_ids,
                [variables.setdefault(pair, len(variables))
                 for pair in zip(keys, names)],
                [_IS_WRITE[kind] for kind in kinds], lines,
                [functions.setdefault(function, len(functions))
                 for function in function_names],
                offsets)

        loop = columns(loop_rows)
        post = columns(post_rows)
        return cls(loop, post, list(variables), list(functions))

    # ------------------------------------------------------------------ #
    # Columns
    # ------------------------------------------------------------------ #
    @cached_property
    def _codes(self) -> Dict[str, List[int]]:
        codes: Dict[str, List[int]] = {}
        for code, (key, _) in enumerate(self.variables):
            codes.setdefault(key, []).append(code)
        return codes

    def accesses_of(self, variable_key: str,
                    post: bool = False) -> EventColumns:
        """The loop (or, with ``post``, post-loop) events on
        ``variable_key``, in stream order."""
        columns = self.post if post else self.loop
        codes = self._codes.get(variable_key)
        if not codes:
            return EventColumns.empty()
        return columns.take(np.isin(columns.variable, codes))

    def rows(self, post: bool = False) -> List[List[Any]]:
        """The loop (or post-loop) events as serialized rows: ``[dyn_id,
        variable, name, kind, line, function, element_offset]``."""
        columns = self.post if post else self.loop
        keys = [key for key, _ in self.variables]
        names = [name for _, name in self.variables]
        functions = self.functions
        codes = columns.variable.tolist()
        return [[dyn_id, keys[code], names[code],
                 "Write" if write else "Read", line, functions[function],
                 offset]
                for dyn_id, code, write, line, function, offset in zip(
                    columns.dyn_id.tolist(), codes, columns.write.tolist(),
                    columns.line.tolist(), columns.function.tolist(),
                    columns.offset.tolist())]

    # ------------------------------------------------------------------ #
    # AccessEvent views
    # ------------------------------------------------------------------ #
    def _events(self, post: bool) -> List[AccessEvent]:
        return [AccessEvent(dyn_id, key, name, _KIND_OF[kind], line,
                            function, offset)
                for dyn_id, key, name, kind, line, function, offset
                in self.rows(post)]

    @cached_property
    def loop_events(self) -> List[AccessEvent]:
        return self._events(post=False)

    @cached_property
    def post_loop_events(self) -> List[AccessEvent]:
        return self._events(post=True)

    @staticmethod
    def _group(events: List[AccessEvent]) -> Dict[str, List[AccessEvent]]:
        grouped: Dict[str, List[AccessEvent]] = {}
        for event in events:
            grouped.setdefault(event.variable, []).append(event)
        return grouped

    @cached_property
    def by_variable(self) -> Dict[str, List[AccessEvent]]:
        return self._group(self.loop_events)

    @cached_property
    def post_by_variable(self) -> Dict[str, List[AccessEvent]]:
        return self._group(self.post_loop_events)

    def events_for(self, variable_key: str) -> List[AccessEvent]:
        return self.by_variable.get(variable_key, [])

    def post_events_for(self, variable_key: str) -> List[AccessEvent]:
        return self.post_by_variable.get(variable_key, [])

    def sequence_string(self, limit: Optional[int] = None) -> str:
        """Human readable R/W sequence like the paper's Fig. 5(e)."""
        events = self.loop_events[:limit] if limit else self.loop_events
        return "; ".join(f"{i + 1}: {event}" for i, event in enumerate(events))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RWDependencies):
            return NotImplemented
        return (self.loop_events == other.loop_events
                and self.post_loop_events == other.post_loop_events)

    def __repr__(self) -> str:
        return (f"RWDependencies(loop_events={len(self.loop)}, "
                f"post_loop_events={len(self.post)})")


class _EventBuffer:
    """Event columns (with owner ids for variables) appended span by span;
    each column's capacity doubles when it fills."""

    def __init__(self) -> None:
        self._columns = [np.empty(256, dtype=dtype) for dtype in _DTYPES]
        self._size = 0

    def append(self, *columns) -> None:
        size = self._size
        end = size + len(columns[0])
        if end > len(self._columns[0]):
            capacity = max(end, 2 * len(self._columns[0]))
            grown = [np.empty(capacity, dtype=dtype) for dtype in _DTYPES]
            for old, new in zip(self._columns, grown):
                new[:size] = old[:size]
            self._columns = grown
        for buffer, column in zip(self._columns, columns):
            buffer[size:end] = column
        self._size = end

    def columns(self) -> EventColumns:
        """The events so far, owner ids in the ``variable`` column."""
        return EventColumns(*(column[:self._size] for column in self._columns))


class RWExtractionPass(AnalysisPass):
    """Engine pass: collect loop-region and post-loop access events.

    ``candidates`` is the ``before_vars`` dict of the MLI-collection pass
    sharing the engine: the MLI set is its subset (a variable must be
    accessed before *and* inside the loop), and it is complete before the
    first inside span, so filtering on it bounds the tentative events
    without losing any MLI event.  The final filter to the matched MLI set
    happens in :meth:`build`.
    """

    def __init__(self, varmap: VariableMap,
                 candidates: Optional[Container[str]] = None) -> None:
        self.varmap = varmap
        self._candidates = candidates
        self._loop = _EventBuffer()
        self._post = _EventBuffer()
        #: per owner: its key is a candidate (filled from the first span
        #: after the before region on, when the candidate set is final)
        self._candidate = OwnerColumn(
            varmap, lambda info: candidates is None or info.key in candidates,
            bool)
        self._base = OwnerColumn(varmap, lambda info: info.base_address,
                                 np.uint64)
        self._element_bytes = OwnerColumn(
            varmap, lambda info: info.element_bytes, np.uint64)
        #: function names the events' function codes index
        self._functions: List[str] = []
        self._function_codes: Dict[str, int] = {}
        #: string id -> function code (-1: not seen yet), for the string
        #: table ``_strings`` of the blocks being walked
        self._strings: Optional[List[str]] = None
        self._code_of_id = np.empty(0, dtype=np.int64)

    def close_span(self, table: AccessTable, region: int) -> None:
        """Append the span's Load/Store accesses to candidate variables."""
        if region == REGION_BEFORE or not len(table):
            return
        owners = table.owner_ids()
        kind = table.kind
        pick = np.flatnonzero((owners >= 0) & (kind != KIND_GEP))
        owners = owners[pick]
        qualifies = self._candidate.array()[owners]
        pick = pick[qualifies]
        if not pick.size:
            return
        owners = owners[qualifies]
        block = table.block
        rows = table.rows[pick]
        offsets = ((table.address[pick] - self._base.array()[owners])
                   // self._element_bytes.array()[owners])
        sink = self._loop if region == REGION_INSIDE else self._post
        sink.append(block.dyn_id[rows], owners, kind[pick] == KIND_STORE,
                    block.line[rows],
                    self._codes_of(block.strings, block.function_id[rows]),
                    offsets.astype(np.int64))

    def _codes_of(self, strings: List[str], function_ids):
        """The function codes of ``function_ids`` (ids into ``strings``)."""
        if strings is not self._strings:
            self._strings = strings
            self._code_of_id = np.full(len(strings), -1, dtype=np.int64)
        codes = self._code_of_id[function_ids]
        if (codes < 0).any():
            for function_id in set(function_ids[codes < 0].tolist()):
                name = strings[function_id]
                code = self._function_codes.get(name)
                if code is None:
                    code = self._function_codes[name] = len(self._functions)
                    self._functions.append(name)
                self._code_of_id[function_id] = code
            codes = self._code_of_id[function_ids]
        return codes

    def build(self, mli_keys: Set[str],
              mli_names: Optional[Dict[str, str]] = None) -> RWDependencies:
        """Filter the tentative events down to the matched MLI variables.

        A variable's events carry its MLI name (``mli_names``, by key; the
        owner's own name otherwise).
        """
        mli_names = mli_names or {}
        loop = self._loop.columns()
        post = self._post.columns()
        registrations = self.varmap.registrations
        variables: List[Tuple[str, str]] = []
        codes: Dict[str, int] = {}
        code_of_owner = np.full(len(registrations), -1, dtype=np.int64)
        for owner in sorted(set(loop.variable.tolist())
                            | set(post.variable.tolist())):
            info = registrations[owner]
            if info.key not in mli_keys:
                continue
            code = codes.get(info.key)
            if code is None:
                code = codes[info.key] = len(variables)
                variables.append((info.key, mli_names.get(info.key,
                                                          info.name)))
            code_of_owner[owner] = code
        columns = []
        for events in (loop, post):
            variable = code_of_owner[events.variable]
            kept = events.take(variable >= 0)
            kept.variable = variable[variable >= 0]
            columns.append(kept)
        return RWDependencies(columns[0], columns[1], variables,
                              self._functions)
