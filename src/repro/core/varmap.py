"""Address-interval map from memory addresses to the variables owning them.

The paper resolves two hard cases by looking at memory addresses:

* Challenge 2 (Sec. V-C): local variables of called functions may share their
  name with an MLI variable; the ``Alloca`` records give every local its
  address, so a variable is recognised as "the" MLI variable only when its
  address matches.
* Accesses made through pointer parameters inside callees (the trace shows
  the parameter name, e.g. ``p``) fall inside the address range of the
  caller's array, so interval lookup attributes them to the right variable.

:class:`VariableMap` is built from the globals preamble plus the ``Alloca``
records seen in the trace, and answers "which variable owns address X?".

Resolution semantics
--------------------

The map keeps a **sorted list of non-overlapping live address segments**:

* registering an allocation that overlaps existing segments *splits or
  evicts* them, so the newest registration always wins for the addresses it
  covers while the non-overlapped remainders of older allocations stay
  resolvable — true last-registered-wins shadowing for the stack-address
  re-use patterns of successive calls;
* :meth:`VariableMap.resolve` is a ``bisect`` lookup — O(log segments) for
  *any* byte address inside a live interval, not just element boundaries;
  :meth:`VariableMap.resolve_id` answers the same lookup with the owner's
  *owner id*, its index in :attr:`VariableMap.registrations`;
* index memory is O(live segments), independent of array element counts
  (a million-element array costs one segment, not a million index entries);
* allocations can be grouped into **scopes** (one per traced function
  activation): :meth:`enter_scope` / :meth:`exit_scope` let the analyses
  retire a callee's allocas when the tracer records the function's ``Ret``,
  so a dead frame can never shadow or absorb later accesses;
* retiring a registration **restores** the byte ranges it had shadowed to
  their previous owners (skipping owners that retired in the meantime), so
  a variable that outlives a shadowing allocation resolves over its full
  extent again — scope-nested shadowing unwinds exactly.

Retirement and shadowing only affect *address resolution*; the registration
history (:meth:`by_name`, :meth:`latest_by_name`, iteration, ``len``) keeps
every allocation ever registered, which is what the reporting layers need.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.errors import AnalysisError
from repro.ir.opcodes import Opcode
from repro.trace.records import GlobalSymbol, TraceRecord


#: the name of an ``Alloca`` record's operand that holds its element count
COUNT_OPERAND = "count"


@dataclass(frozen=True)
class VariableInfo:
    """A named storage interval (global or stack allocation)."""

    name: str
    base_address: int
    size_bytes: int
    element_bits: int
    is_array: bool
    is_global: bool
    function: str = ""
    decl_line: int = 0

    @property
    def end_address(self) -> int:
        return self.base_address + self.size_bytes

    @property
    def element_bytes(self) -> int:
        return max(1, self.element_bits // 8)

    @property
    def element_count(self) -> int:
        return max(1, self.size_bytes // self.element_bytes)

    def contains(self, address: int) -> bool:
        return self.base_address <= address < self.end_address

    def element_offset(self, address: int) -> int:
        """Element index of ``address`` within this variable."""
        return (address - self.base_address) // self.element_bytes

    @cached_property
    def key(self) -> str:
        """Stable identity used as a DDG node key.

        Cached: the analysis passes read it per resolved access (hundreds of
        thousands of times per trace), and both ``name`` and
        ``base_address`` are frozen.  ``cached_property`` writes the
        instance ``__dict__`` directly, which a frozen dataclass permits.
        """
        return f"{self.name}@{self.base_address:#x}"


class _Scope:
    """One open allocation scope (a traced function activation)."""

    __slots__ = ("function", "owners")

    def __init__(self, function: str) -> None:
        self.function = function
        #: owner ids of the activation's registrations, oldest first
        self.owners: List[int] = []


class VariableMap:
    """Map ``address -> VariableInfo`` with last-registered-wins semantics.

    Stack addresses may be reused by successive calls; registering a new
    allocation that overlaps an old one shadows it for subsequent lookups,
    which matches the "on-the-fly, active state only" semantics the paper
    describes for its maps.  See the module docstring for the full
    resolution semantics (segment store, scoping, complexity).
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, List[VariableInfo]] = {}
        #: every registration in order; an *owner id* is an index into it
        self.registrations: List[VariableInfo] = []
        # Live, sorted, pairwise-disjoint address segments.  A segment is a
        # sub-range of its owner's [base_address, end_address) — shadowing
        # can trim an owner down to one or two remainder segments.
        self._seg_starts: List[int] = []
        self._seg_ends: List[int] = []
        self._seg_owners: List[int] = []
        self._scopes: List[_Scope] = []
        # What each registration shadowed: owner id -> the (start, end, old
        # owner id) pieces its insertion trimmed or evicted.  Retiring the
        # registration re-inserts the pieces whose owner is still live, so a
        # variable that outlives a shadowing allocation regains resolution of
        # the shadowed byte range.
        self._shadow_undo: Dict[int, List[Tuple[int, int, int]]] = {}
        self._retired: set = set()
        #: bumped on every change that can alter address resolution — the
        #: engine keys its address memo on it
        self.revision = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, info: VariableInfo) -> VariableInfo:
        self._by_name.setdefault(info.name, []).append(info)
        owner = len(self.registrations)
        self.registrations.append(info)
        if info.size_bytes > 0:
            self._insert_segment(info.base_address, info.end_address, owner)
        if not info.is_global:
            scope = self._innermost_scope(info.function)
            if scope is not None:
                scope.owners.append(owner)
        return info

    def add_global_symbol(self, symbol: GlobalSymbol, decl_line: int = 0) -> VariableInfo:
        return self.add(VariableInfo(
            name=symbol.name, base_address=symbol.address,
            size_bytes=symbol.size_bytes, element_bits=symbol.element_bits,
            is_array=symbol.is_array, is_global=True, decl_line=decl_line))

    def add_alloca_record(self, record: TraceRecord) -> Optional[VariableInfo]:
        """Register a stack variable from an ``Alloca`` trace record."""
        if not record.is_alloca or record.result is None:
            return None
        count = 1
        for operand in record.operands:
            if operand.name == COUNT_OPERAND:
                try:
                    count = int(operand.value)
                except (ValueError, OverflowError):
                    raise AnalysisError(
                        f"trace record #{record.dyn_id} allocates "
                        f"{operand.value!r} elements of {record.result.name!r}"
                        f"; the trace is corrupt") from None
                break
        return self.add_alloca(record.result.name,
                               record.result.address or 0, count,
                               record.result.bits, record.function,
                               record.line)

    def add_alloca(self, name: str, address: int, count: int,
                   element_bits: int, function: str,
                   line: int) -> VariableInfo:
        """Register a stack variable of ``count`` elements of
        ``element_bits`` bits (0 reads as 32) at ``address``, as an
        ``Alloca`` of ``function`` at ``line`` declares it."""
        element_bits = element_bits or 32
        # Ceil division: sub-byte element types (i1 booleans) still occupy a
        # whole addressable byte each — floor division would produce a
        # zero-byte, unresolvable interval.
        size_bytes = count * max(1, (element_bits + 7) // 8)
        return self.add(VariableInfo(
            name=name,
            base_address=address,
            size_bytes=size_bytes,
            element_bits=element_bits,
            is_array=count > 1,
            is_global=False,
            function=function,
            decl_line=line,
        ))

    # ------------------------------------------------------------------ #
    # Scopes
    # ------------------------------------------------------------------ #
    def enter_scope(self, function: str) -> None:
        """Open an allocation scope for one activation of ``function``.

        Subsequent non-global registrations whose ``function`` matches are
        attached to the innermost such scope and retired by
        :meth:`exit_scope`.
        """
        self._scopes.append(_Scope(function))

    def exit_scope(self, function: str) -> None:
        """Close the innermost open scope of ``function``, retiring its
        allocations (plus those of any unbalanced scopes opened above it).

        A ``function`` with no open scope is a no-op, so feeding ``Ret``
        records of untracked functions (e.g. the main-loop function itself)
        is harmless.
        """
        for index in range(len(self._scopes) - 1, -1, -1):
            if self._scopes[index].function == function:
                # Innermost scope first, newest allocation first: retirement
                # must unwind shadowing in LIFO order so that each restore
                # hands ranges back to the owner directly underneath.
                for scope in reversed(self._scopes[index:]):
                    for owner in reversed(scope.owners):
                        self._retire(owner)
                del self._scopes[index:]
                return

    @property
    def open_scope_count(self) -> int:
        return len(self._scopes)

    def _innermost_scope(self, function: str) -> Optional[_Scope]:
        for scope in reversed(self._scopes):
            if scope.function == function:
                return scope
        return None

    def _retire(self, owner: int) -> None:
        """Drop registration ``owner``'s live segments; its registration
        history remains.

        The byte ranges the registration had shadowed are restored to their
        previous owners (unless those have been retired themselves in the
        meantime), so a variable that outlives a shadowing allocation —
        e.g. an MLI array partially covered by a callee's ``Alloca`` —
        resolves over its full extent again once the shadower's scope
        closes.
        """
        self.revision += 1
        self._retired.add(owner)
        info = self.registrations[owner]
        index = bisect_left(self._seg_starts, info.base_address)
        while (index < len(self._seg_starts)
               and self._seg_starts[index] < info.end_address):
            if self._seg_owners[index] == owner:
                del self._seg_starts[index]
                del self._seg_ends[index]
                del self._seg_owners[index]
            else:
                index += 1
        for start, end, shadowed in self._shadow_undo.pop(owner, ()):
            if shadowed not in self._retired:
                self._restore_range(start, end, shadowed)

    # ------------------------------------------------------------------ #
    # Segment store
    # ------------------------------------------------------------------ #
    def _insert_segment(self, start: int, end: int, owner: int) -> None:
        self.revision += 1
        starts, ends, owners = self._seg_starts, self._seg_ends, self._seg_owners
        shadowed: List[Tuple[int, int, int]] = []
        index = bisect_left(starts, start)
        # A predecessor reaching past `start` is split: its left remainder is
        # trimmed in place and, when it spans past `end`, its right remainder
        # re-inserted after the new segment.
        if index > 0 and ends[index - 1] > start:
            old_end = ends[index - 1]
            old_owner = owners[index - 1]
            ends[index - 1] = start
            shadowed.append((start, min(old_end, end), old_owner))
            if old_end > end:
                starts.insert(index, end)
                ends.insert(index, old_end)
                owners.insert(index, old_owner)
        # Segments starting inside [start, end) are evicted; one reaching
        # past `end` keeps its right remainder.
        cursor = index
        while cursor < len(starts) and starts[cursor] < end:
            shadowed.append((starts[cursor], min(ends[cursor], end),
                             owners[cursor]))
            if ends[cursor] > end:
                starts[cursor] = end
                break
            cursor += 1
        if cursor > index:
            del starts[index:cursor]
            del ends[index:cursor]
            del owners[index:cursor]
        starts.insert(index, start)
        ends.insert(index, end)
        owners.insert(index, owner)
        if shadowed:
            self._shadow_undo[owner] = shadowed

    def _restore_range(self, start: int, end: int, owner: int) -> None:
        """Give ``owner`` back every currently-uncovered gap in
        ``[start, end)`` — the inverse of the shadowing done by
        :meth:`_insert_segment`, applied when the shadower retires.  Parts
        of the range covered by still-live segments (a later shadower whose
        scope is still open) are left untouched."""
        starts, ends, owners = self._seg_starts, self._seg_ends, self._seg_owners
        cursor = start
        index = bisect_right(starts, start) - 1
        if index >= 0 and ends[index] > start:
            cursor = min(ends[index], end)
        index += 1
        while cursor < end:
            next_start = starts[index] if index < len(starts) else None
            if next_start is not None and next_start < end:
                if next_start > cursor:
                    starts.insert(index, cursor)
                    ends.insert(index, next_start)
                    owners.insert(index, owner)
                    index += 1
                cursor = min(ends[index], end)
                index += 1
            else:
                starts.insert(index, cursor)
                ends.insert(index, end)
                owners.insert(index, owner)
                return

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def resolve(self, address: Optional[int]) -> Optional[VariableInfo]:
        """Return the live variable owning ``address`` (None if unmapped)."""
        if address is None:
            return None
        owner = self.resolve_id(address)
        return self.registrations[owner] if owner >= 0 else None

    def resolve_id(self, address: int) -> int:
        """The owner id of the live variable owning ``address``, or -1 when
        it is unmapped (a negative address never is)."""
        index = bisect_right(self._seg_starts, address) - 1
        if index >= 0 and self._seg_ends[index] > address:
            return self._seg_owners[index]
        return -1

    def live_intervals(self) -> List[Tuple[int, int, VariableInfo]]:
        """The current live segments as ``(start, end, owner)`` triples."""
        registrations = self.registrations
        return [(start, end, registrations[owner]) for start, end, owner
                in zip(self._seg_starts, self._seg_ends, self._seg_owners)]

    @property
    def index_entry_count(self) -> int:
        """Number of live segments — the index's memory footprint is
        O(this), never O(array elements)."""
        return len(self._seg_starts)

    def by_name(self, name: str) -> List[VariableInfo]:
        return list(self._by_name.get(name, []))

    def latest_by_name(self, name: str) -> Optional[VariableInfo]:
        infos = self._by_name.get(name)
        return infos[-1] if infos else None

    def globals(self) -> List[VariableInfo]:
        return [info for info in self.registrations if info.is_global]

    def __len__(self) -> int:
        return len(self.registrations)

    def __iter__(self) -> Iterator[VariableInfo]:
        return iter(self.registrations)


class OwnerColumn:
    """A per-owner numpy column over a map's registrations.

    ``value_of(info)`` is computed once per registration, when
    :meth:`array` first sees it; the array grows by doubling, so reading
    it for each span never rebuilds it.  Index the array with owner ids
    (:meth:`VariableMap.resolve_id` results that are not -1).
    """

    __slots__ = ("_registrations", "_value_of", "_array", "_filled")

    def __init__(self, varmap: "VariableMap",
                 value_of: Callable[[VariableInfo], Any], dtype) -> None:
        self._registrations = varmap.registrations
        self._value_of = value_of
        self._array = np.zeros(16, dtype=dtype)
        self._filled = 0

    def array(self):
        """The column, filled for every registration so far."""
        registrations = self._registrations
        count = len(registrations)
        filled = self._filled
        if count > filled:
            array = self._array
            if count > len(array):
                grown = np.zeros(max(count, 2 * len(array)),
                                 dtype=array.dtype)
                grown[:filled] = array[:filled]
                self._array = array = grown
            value_of = self._value_of
            array[filled:count] = [value_of(info)
                                   for info in registrations[filled:count]]
            self._filled = count
        return self._array


def build_variable_map(globals_: Iterable[GlobalSymbol],
                       records: Iterable[TraceRecord],
                       function: Optional[str] = None,
                       scoped: bool = False) -> VariableMap:
    """Build a variable map from the preamble plus (optionally filtered) Allocas.

    A post-hoc view of a whole record list; the analysis itself does not
    use it (the engine keeps one live map, registering each ``Alloca`` as
    it executes).  When ``function`` is given only that function's
    allocations are indexed, as for deciding whether an address belongs to
    an allocation of the main-loop function (Challenge 2); ``None``
    indexes every allocation, callees' locals included.

    With ``scoped=True`` the builder additionally replays the trace's
    ``Call``/``Ret`` structure through :meth:`VariableMap.enter_scope` /
    :meth:`VariableMap.exit_scope`, so allocations of returned activations
    are retired from address resolution exactly as the engine retires
    them during its walk.  The default keeps the full history live: every
    allocation the records ever made resolves, against the completed map.
    """
    varmap = VariableMap()
    for symbol in globals_:
        varmap.add_global_symbol(symbol)
    pending_callee: Optional[str] = None
    for record in records:
        if scoped:
            # A Call only opens a scope once the next record proves a traced
            # body follows (it executes in the callee) — this covers
            # zero-parameter user functions while builtins, whose next record
            # stays in the caller, open nothing.
            if pending_callee is not None:
                if record.function == pending_callee:
                    varmap.enter_scope(pending_callee)
                pending_callee = None
            if record.is_call and record.callee:
                pending_callee = record.callee
            elif record.opcode == Opcode.RET:
                varmap.exit_scope(record.function)
        if not record.is_alloca:
            continue
        if function is not None and record.function != function:
            continue
        varmap.add_alloca_record(record)
    return varmap
