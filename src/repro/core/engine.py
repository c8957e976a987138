"""Single-pass analysis engine: one columnar walk drives every stage.

:class:`AnalysisEngine` walks a trace once, as the decoded
:class:`~repro.trace.columnar.ColumnarBlock`\\ s of
:meth:`~repro.trace.columnar.TraceColumnarReader.iter_blocks`:

* the main loop's dynamic extent is tagged on the fly from the
  :class:`~repro.core.config.MainLoopSpec`: one vectorized line/function
  mask per block finds the loop-line rows, and the row ranges seen after
  the latest loop-line row are buffered as ``(block, lo, hi)`` triples
  until a later loop-line row proves they lie inside the extent (they are
  then walked, in stream order, as ``inside``) or the stream ends (they
  are the ``after`` region);
* one **live, scoped** variable map is shared by every pass: the engine
  registers every ``Alloca`` the moment it executes, opens an allocation
  scope when a traced ``Call``'s body follows, and retires the callee's
  allocations on its ``Ret`` — so each access resolves against the
  allocation state *at its own execution time*;
* a walked row range (one block, one region) goes in *spans* of at most
  ``_SPAN_ROWS`` rows, and a span is split by its scope records
  (``Alloca`` / ``Call`` / ``Ret``) into *segments*.  Each pass selects
  the rows it reads once per span (:meth:`AnalysisPass.select_span`) and
  consumes one segment's slice of that selection at a time
  (:meth:`AnalysisPass.consume_selected`).  Scope records are
  materialized one at a time and dispatched to the passes' ``on_alloca``
  / ``on_call`` / ``on_ret`` handlers after the engine ran its own action
  for them;
* every memory operand is resolved once: each span gets one
  :class:`AccessTable` of its ``Load`` / ``Store`` / ``GetElementPtr``
  rows, whose owners the engine resolves segment by segment, before the
  segment is dispatched, through one address memo (valid while the live
  map's revision is unchanged).  Passes read the
  table through :meth:`AnalysisPass.open_span` (before the span's first
  segment) and :meth:`AnalysisPass.close_span` (after its last).

Pass execution order is registration order.  The engine times its own
walk: :attr:`AnalysisEngine.decode_seconds` (waiting for the next block),
:attr:`AnalysisEngine.scope_seconds` (materializing and processing scope
records), :attr:`AnalysisEngine.resolve_seconds` (building the access
tables and resolving their owners) and
:attr:`AnalysisEngine.pass_seconds` (each pass's span selections, segment
consumption and access-table hooks).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter as _clock
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MainLoopSpec
from repro.core.errors import AnalysisError
from repro.core.varmap import VariableMap
from repro.ir.opcodes import (
    ARITHMETIC_OPCODE_VALUES,
    FORWARDING_OPCODE_VALUES,
    Opcode,
)
from repro.trace.records import GlobalSymbol, TraceRecord

# --------------------------------------------------------------------------- #
# Regions and record kinds (plain ints: compared millions of times)
# --------------------------------------------------------------------------- #
REGION_BEFORE = 0
REGION_INSIDE = 1
REGION_AFTER = 2

REGION_NAMES = {REGION_BEFORE: "before", REGION_INSIDE: "inside",
                REGION_AFTER: "after"}

KIND_OTHER = 0
KIND_ALLOCA = 1
KIND_LOAD = 2
KIND_STORE = 3
KIND_GEP = 4
KIND_FORWARDING = 5
KIND_ARITHMETIC = 6
KIND_CALL = 7
KIND_RET = 8

#: scope kind -> name of the AnalysisPass handler that receives its records
_SCOPE_CALLBACKS = {
    KIND_ALLOCA: "on_alloca",
    KIND_CALL: "on_call",
    KIND_RET: "on_ret",
}


def _kind_of(opcode: int) -> int:
    if opcode == Opcode.LOAD:
        return KIND_LOAD
    if opcode == Opcode.STORE:
        return KIND_STORE
    if opcode == Opcode.GETELEMENTPTR:
        return KIND_GEP
    if opcode == Opcode.ALLOCA:
        return KIND_ALLOCA
    if opcode in FORWARDING_OPCODE_VALUES:
        return KIND_FORWARDING
    if opcode in ARITHMETIC_OPCODE_VALUES:
        return KIND_ARITHMETIC
    if opcode == Opcode.CALL:
        return KIND_CALL
    if opcode == Opcode.RET:
        return KIND_RET
    return KIND_OTHER


#: raw opcode value -> record kind, for every known opcode
KIND_BY_OPCODE: Dict[int, int] = {int(op): _kind_of(int(op)) for op in Opcode}

_MAX_OPCODE = max(KIND_BY_OPCODE)

#: raw opcode -> index of its pointer operand, for the opcodes whose rows
#: make up an access table (Load and GetElementPtr read through operand 0,
#: Store writes through operand 1); -1 for every other value, the slot a
#: clipped out-of-range opcode lands on included
_POINTER_OPERAND = np.full(_MAX_OPCODE + 2, -1, dtype=np.int64)
_POINTER_OPERAND[int(Opcode.LOAD)] = 0
_POINTER_OPERAND[int(Opcode.STORE)] = 1
_POINTER_OPERAND[int(Opcode.GETELEMENTPTR)] = 0

#: True at the opcodes the walk materializes individually: scope opcodes
#: (engine actions mutate the shared map / scope structure mid-stream, so
#: these break the segments) and every in-range value that is not a known
#: opcode (:meth:`AnalysisEngine._break_rows` flags out-of-range values
#: itself).  Every other known opcode stays columnar.
_BREAK_LUT = np.ones(_MAX_OPCODE + 1, dtype=bool)
for _op, _kind in KIND_BY_OPCODE.items():
    _BREAK_LUT[_op] = _kind in _SCOPE_CALLBACKS
del _op, _kind


class SpanSelection:
    """One pass's rows of a span, selected once and sliced per segment.

    ``rows`` are the selected row numbers as an ascending numpy array.
    ``fields``, when given, carries a payload per selected row: a
    ``(k, len(rows))`` numpy array of k columns.  A selection must not
    hold a row that breaks segments (a scope or unknown opcode):
    :meth:`cut` splits it at exactly those rows.
    """

    __slots__ = ("rows", "fields", "_bounds")

    def __init__(self, rows, fields=None) -> None:
        self.rows = rows
        self.fields = fields
        self._bounds: List[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def cut(self, breaks) -> None:
        """Split at the span's break rows (an ascending numpy array):
        segment ``k`` is the one that ends at ``breaks[k]`` (the span's
        last segment is ``len(breaks)``)."""
        rows = self.rows
        self._bounds = [0, *rows.searchsorted(breaks).tolist(), len(rows)]

    def take(self, segment: int):
        """Segment ``segment``'s part, empty when it has none: its rows as
        a list, or with fields its payloads as an iterable of tuples (one
        ``tolist`` of the column slices, zipped lazily, so a long segment
        builds no object per row)."""
        lo = self._bounds[segment]
        hi = self._bounds[segment + 1]
        if lo == hi:
            return ()
        if self.fields is None:
            return self.rows[lo:hi].tolist()
        return zip(*self.fields[:, lo:hi].tolist())


class AccessTable:
    """One span's memory accesses, with the owner each address resolves to.

    ``rows`` are the span's ``Load`` / ``Store`` / ``GetElementPtr`` rows
    (ascending block row numbers), ``opcode`` their opcodes and
    ``address`` their pointer operands' addresses (``uint64``; 0 when the
    record has no such operand or it carries no address, and such a row
    has no owner).  ``owners`` holds, per row, the owner id
    (:attr:`VariableMap.registrations` index) its address resolves to in
    the live map *when the row executes*, or -1: the engine fills it
    segment by segment as the walk reaches them, so while a segment is
    being dispatched the entries up to its end are final.
    """

    __slots__ = ("block", "rows", "opcode", "address", "owners",
                 "_addresses", "_cuts", "_owner_ids")

    def __init__(self, block, lo: int, hi: int, breaks) -> None:
        self.block = block
        pointer = _POINTER_OPERAND[np.clip(block.np_opcode[lo:hi], 0,
                                           _MAX_OPCODE + 1)]
        rows = np.flatnonzero(pointer >= 0)
        pointer = pointer[rows]
        rows += lo
        self.rows = rows
        self.opcode = block.np_opcode[rows]
        first = block.np_op_start[rows]
        slot = first + pointer
        present = (block.np_op_start[rows + 1] - first
                   - block.np_has_result[rows]) > pointer
        flags = block.np_op_flags
        if flags.size:
            slot[~present] = 0
            present &= (flags[slot] & 2) != 0
            address = np.where(present, block.np_op_address[slot], 0)
        else:  # a block without any operand slot has no address either
            present[:] = False
            address = np.zeros(len(rows), dtype=np.uint64)
        self.address = address
        # What the memo resolves: -1 (never mapped) stands for an absent
        # address, so the row resolves to no owner like an unmapped one.
        addresses = address.tolist()
        for index in np.flatnonzero(~present).tolist():
            addresses[index] = -1
        self._addresses = addresses
        self._cuts = [0, *rows.searchsorted(breaks).tolist(), len(rows)]
        self.owners: List[int] = []
        self._owner_ids = None

    def __len__(self) -> int:
        return len(self.rows)

    def resolve_segment(self, segment: int, memo: Dict[int, int],
                        resolve_id: Callable[[int], int]) -> None:
        """Resolve segment ``segment``'s rows through ``memo`` (address ->
        owner id, valid for the live map as it stands), falling back to
        ``resolve_id`` for the addresses it has not seen."""
        lo = self._cuts[segment]
        hi = self._cuts[segment + 1]
        if lo == hi:
            return
        addresses = self._addresses[lo:hi]
        owners = list(map(memo.get, addresses))
        if None in owners:
            for address in set(addresses).difference(memo):
                memo[address] = resolve_id(address)
            owners = list(map(memo.__getitem__, addresses))
        self.owners.extend(owners)

    def owner_ids(self):
        """Every row's owner id as a numpy array; read it once the span's
        last segment was walked."""
        if self._owner_ids is None:
            self._owner_ids = np.array(self.owners, dtype=np.int64)
        return self._owner_ids


class AnalysisPass:
    """Base class for engine passes; override only what you need.

    A pass reads non-scope rows through one API: :meth:`select_span` picks
    the pass's rows of a whole span ``[lo, hi)`` (one block, one region) in
    one set of vector ops, and :meth:`consume_selected` consumes one
    segment's slice of that selection.  A pass that reads the owners of
    memory accesses takes the span's :class:`AccessTable` instead:
    :meth:`open_span` hands it over before the span's first segment (its
    owners fill as the segments go by), :meth:`close_span` after its last.
    Scope records arrive through the ``on_alloca`` / ``on_call`` /
    ``on_ret`` handlers.  The engine inspects which of these methods a
    subclass overrides and calls exactly those.  Every callback receives
    the region constant (``REGION_BEFORE`` / ``REGION_INSIDE`` /
    ``REGION_AFTER``) it executes in.
    """

    # -- scope records --------------------------------------------------- #
    def on_alloca(self, record: TraceRecord, region: int) -> None:
        """An ``Alloca`` record (already registered on the shared map)."""

    def on_call(self, record: TraceRecord, region: int) -> None:
        """A ``Call`` record (scope opening, if any, follows on the next
        record — see :meth:`on_activation`)."""

    def on_ret(self, record: TraceRecord, region: int) -> None:
        """A ``Ret`` record, as a plain record kind; scope closing is
        reported through :meth:`on_return`."""

    # -- segments -------------------------------------------------------- #
    def select_span(self, block, lo: int, hi: int,
                    region: int) -> Optional[SpanSelection]:
        """Select the rows this pass reads in span ``[lo, hi)`` of
        ``block``, all in ``region``.

        Return a :class:`SpanSelection` of the span's rows (it must hold
        no ``Alloca`` / ``Call`` / ``Ret`` or unknown-opcode row), or None
        when the pass reads nothing in this span.  The engine drops the
        selection when the span ends.
        """
        return None

    def consume_selected(self, block, region: int, selected) -> None:
        """Consume one segment's slice of this pass's span selection.

        ``selected`` is :meth:`SpanSelection.take` of the segment, never
        empty: its rows in order (a list), or its field tuples.  Segments
        never contain ``Alloca`` / ``Call`` / ``Ret`` records (those carry
        engine actions and arrive through the scope handlers), all rows of
        a segment share ``region``, and the shared variable map is
        constant across the segment.
        """

    # -- access tables --------------------------------------------------- #
    def open_span(self, table: AccessTable, region: int) -> None:
        """A span begins: ``table`` lists its memory accesses.  Called
        before :meth:`select_span`; the owners of a segment's rows are
        resolved before the segment is consumed."""

    def close_span(self, table: AccessTable, region: int) -> None:
        """A span ended: every owner in ``table`` is resolved."""

    # -- structural callbacks ------------------------------------------ #
    def on_region_change(self, region: int) -> None:
        """The walk crossed into ``region``.  Fires exactly three times per
        :meth:`AnalysisEngine.run_columnar`: ``REGION_BEFORE`` at the start
        of the walk, ``REGION_INSIDE`` at the first loop-line record, and
        ``REGION_AFTER`` once the stream ends (even when the after region
        is empty)."""

    def on_activation(self, callee: str, region: int) -> None:
        """A traced ``Call``'s body follows: the engine just opened an
        allocation scope for ``callee`` (fires before the first callee
        record is dispatched)."""

    def on_return(self, record: TraceRecord, region: int) -> None:
        """``record`` is the ``Ret`` closing the innermost activation of
        its function; the engine has already retired the scope."""

    def finalize(self) -> None:
        """The walk ended; compute any derived results."""


@dataclass
class EngineWalk:
    """Shape of the walked trace: the loop extent and region sizes."""

    record_count: int
    first_index: int
    last_index: int
    first_loop_dyn_id: int
    last_loop_dyn_id: int

    @property
    def before_count(self) -> int:
        return self.first_index

    @property
    def inside_count(self) -> int:
        return self.last_index - self.first_index + 1

    @property
    def after_count(self) -> int:
        return self.record_count - self.last_index - 1


# engine-internal actions of the scope opcodes
_ACT_ALLOCA = 1
_ACT_CALL = 2
_ACT_RET = 3
_ACT_UNKNOWN = 4

_ACTION_BY_KIND = {KIND_ALLOCA: _ACT_ALLOCA, KIND_CALL: _ACT_CALL,
                   KIND_RET: _ACT_RET}

#: Rows per span, the unit each pass selects its rows for at once.  It
#: bounds what a span holds whatever the block size: a selection array
#: stays under 120 kB (seven int64 fields per row) and one segment's row
#: lists stay short, while the vector ops per span cost about 1.5% of
#: the walk.
_SPAN_ROWS = 2048


class AnalysisEngine:
    """Drive registered passes over a trace's columnar blocks in one pass.

    The engine owns the shared live variable map: it registers every
    ``Alloca`` (all functions) at execution time and mirrors the trace's
    call/return structure as allocation scopes — a ``Call`` opens a scope
    only once the next record proves a traced body follows (zero-parameter
    user functions included; builtins, whose next record stays in the
    caller, open nothing), and the matching ``Ret`` retires it.
    """

    def __init__(self, spec: MainLoopSpec, passes: Sequence[AnalysisPass],
                 variable_map: Optional[VariableMap] = None) -> None:
        self.spec = spec
        self.passes: List[AnalysisPass] = list(passes)
        self.varmap = variable_map if variable_map is not None else VariableMap()
        self._pending_activation: Optional[str] = None
        self._activation_callbacks = tuple(
            p.on_activation for p in self.passes
            if type(p).on_activation is not AnalysisPass.on_activation)
        self._region_callbacks = tuple(
            p.on_region_change for p in self.passes
            if type(p).on_region_change is not AnalysisPass.on_region_change)
        self._return_callbacks = tuple(
            p.on_return for p in self.passes
            if type(p).on_return is not AnalysisPass.on_return)
        # Segment consumers in registration order: (slot, select_span,
        # consume_selected) for every pass with the span hook.
        self._segment_plan: List[Tuple[int, Callable, Callable]] = [
            (slot, p.select_span, p.consume_selected)
            for slot, p in enumerate(self.passes)
            if type(p).select_span is not AnalysisPass.select_span]
        # Access-table readers in registration order: (slot, hook).
        self._open_plan = self._hooks("open_span")
        self._close_plan = self._hooks("close_span")
        #: address -> owner id, valid while the live map's revision is
        #: ``_memo_revision`` (scope records between segments may change it)
        self._memo: Dict[int, int] = {}
        self._memo_revision = -1
        #: seconds spent waiting for the next block (the decode)
        self.decode_seconds = 0.0
        #: seconds spent materializing and processing scope records
        self.scope_seconds = 0.0
        #: seconds spent building access tables and resolving their owners
        self.resolve_seconds = 0.0
        #: per pass (registration order): seconds in its span selections
        #: and segment consumption
        self.pass_seconds: List[float] = [0.0] * len(self.passes)
        # scope opcode -> (engine action, subscribed pass handlers); any
        # other opcode reaching :meth:`_process` is unknown (segments carry
        # every known non-scope opcode) and fails loudly.
        self._plan: Dict[int, Tuple[int, Tuple[Callable, ...]]] = {}
        for raw, kind in KIND_BY_OPCODE.items():
            method_name = _SCOPE_CALLBACKS.get(kind)
            if method_name is None:
                continue
            callbacks = tuple(
                getattr(p, method_name) for p in self.passes
                if getattr(type(p), method_name)
                is not getattr(AnalysisPass, method_name))
            self._plan[raw] = (_ACTION_BY_KIND[kind], callbacks)
        self._default_plan: Tuple[int, Tuple[Callable, ...]] = (_ACT_UNKNOWN, ())

    def _hooks(self, name: str) -> List[Tuple[int, Callable]]:
        return [(slot, getattr(p, name)) for slot, p in enumerate(self.passes)
                if getattr(type(p), name) is not getattr(AnalysisPass, name)]

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def add_globals(self, globals_: Iterable[GlobalSymbol]) -> None:
        """Register the trace's module globals on the shared map.

        Call once before :meth:`run_columnar` — globals must be resolvable
        from the first record on.

        Args:
            globals_: the trace's :class:`GlobalSymbol` entries.
        """
        for symbol in globals_:
            self.varmap.add_global_symbol(symbol)

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #
    def run_columnar(self, blocks) -> EngineWalk:
        """Walk :class:`~repro.trace.columnar.ColumnarBlock`\\ s once.

        Loop-extent detection is one vectorized line/function mask per
        block, region-unresolved row ranges are buffered as ``(block, lo,
        hi)`` triples, and each walked span is split into segments at its
        scope records: a pass selects its rows once per span
        (:meth:`AnalysisPass.select_span`) and consumes them segment by
        segment (:meth:`AnalysisPass.consume_selected`).

        Args:
            blocks: the trace's blocks in stream order, e.g. from
                :meth:`~repro.trace.columnar.TraceColumnarReader.iter_blocks`.

        Returns:
            The :class:`EngineWalk` shape; passes are finalized.

        Raises:
            AnalysisError: when no record falls inside the main computation
                loop range, or a record carries an unknown opcode.
        """
        spec = self.spec
        first_index: Optional[int] = None
        last_index = -1
        first_dyn = last_dyn = 0
        total = 0
        #: (block, lo, hi) row ranges whose region a later loop hit must
        #: prove
        pending_ranges: List[Tuple] = []
        self._emit_region(REGION_BEFORE)
        blocks = iter(blocks)
        while True:
            started = _clock()
            block = next(blocks, None)
            self.decode_seconds += _clock() - started
            if block is None:
                break
            spec_fid = block.id_of.get(spec.function, -1)
            hits = block.loop_rows(spec_fid, spec.start_line, spec.end_line)
            if not hits.size:
                if first_index is None:
                    self._walk_rows(block, 0, block.count, REGION_BEFORE)
                else:
                    pending_ranges.append((block, 0, block.count))
            else:
                first_hit, last_hit = int(hits[0]), int(hits[-1])
                if first_index is None:
                    self._walk_rows(block, 0, first_hit, REGION_BEFORE)
                    first_index = block.base_index + first_hit
                    first_dyn = int(block.dyn_id[first_hit])
                    self._emit_region(REGION_INSIDE)
                    inside_from = first_hit
                else:
                    # Everything buffered since the previous loop hit is now
                    # proven inside the loop's dynamic extent.
                    for range_block, lo, hi in pending_ranges:
                        self._walk_rows(range_block, lo, hi, REGION_INSIDE)
                    pending_ranges.clear()
                    inside_from = 0
                self._walk_rows(block, inside_from, last_hit + 1,
                                REGION_INSIDE)
                last_index = block.base_index + last_hit
                last_dyn = int(block.dyn_id[last_hit])
                if last_hit + 1 < block.count:
                    pending_ranges.append((block, last_hit + 1, block.count))
            total += block.count
        if first_index is None:
            raise AnalysisError(
                f"no trace record falls inside the main computation loop "
                f"range {spec.mclr} of function {spec.function!r}")
        # The still-buffered tail is the after region.
        self._emit_region(REGION_AFTER)
        for range_block, lo, hi in pending_ranges:
            self._walk_rows(range_block, lo, hi, REGION_AFTER)
        pending_ranges.clear()
        for pass_ in self.passes:
            pass_.finalize()
        return EngineWalk(
            record_count=total,
            first_index=first_index,
            last_index=last_index,
            first_loop_dyn_id=first_dyn,
            last_loop_dyn_id=last_dyn,
        )

    @staticmethod
    def _break_rows(block, lo: int, hi: int):
        """Rows in ``[lo, hi)`` the walk must materialize individually, as
        an ascending numpy array: scope opcodes (engine actions) and
        unknown opcodes (loud failure through :meth:`_process`)."""
        ops = block.np_opcode[lo:hi]
        clipped = np.clip(ops, 0, _MAX_OPCODE)
        rows = np.flatnonzero(_BREAK_LUT[clipped] | (clipped != ops))
        rows += lo
        return rows

    def _walk_rows(self, block, lo: int, hi: int, region: int) -> None:
        """Walk rows ``[lo, hi)`` of one block in a single known region,
        span by span."""
        for span_lo in range(lo, hi, _SPAN_ROWS):
            self._walk_span(block, span_lo, min(span_lo + _SPAN_ROWS, hi),
                            region)

    def _walk_span(self, block, lo: int, hi: int, region: int) -> None:
        """Walk span ``[lo, hi)``: the access-table readers get the span's
        table and every pass selects its rows of the whole span first,
        each segment then resolves its accesses and hands every pass its
        slice, the table readers get the finished table, and the span's
        table and selections are dropped on return."""
        np_breaks = self._break_rows(block, lo, hi)
        breaks = np_breaks.tolist()
        spent = self.pass_seconds
        table = None
        if self._open_plan or self._close_plan:
            started = _clock()
            table = AccessTable(block, lo, hi, np_breaks)
            self.resolve_seconds += _clock() - started
            for slot, hook in self._open_plan:
                started = _clock()
                hook(table, region)
                spent[slot] += _clock() - started
        plan = []
        for slot, select, consume in self._segment_plan:
            started = _clock()
            selection = select(block, lo, hi, region)
            if selection is not None and len(selection):
                selection.cut(np_breaks)
                plan.append((slot, consume, selection))
            spent[slot] += _clock() - started
        record_of = block.record
        process = self._process
        segment_lo = lo
        for segment, row in enumerate(breaks):
            if segment_lo < row:
                self._dispatch_segment(block, segment_lo, row, region, plan,
                                       segment, table)
            started = _clock()
            process(record_of(row), region)
            self.scope_seconds += _clock() - started
            segment_lo = row + 1
        if segment_lo < hi:
            self._dispatch_segment(block, segment_lo, hi, region, plan,
                                   len(breaks), table)
        if table is not None:
            for slot, hook in self._close_plan:
                started = _clock()
                hook(table, region)
                spent[slot] += _clock() - started

    def _dispatch_segment(self, block, lo: int, hi: int, region: int,
                          plan: List[Tuple], segment: int,
                          table: Optional[AccessTable]) -> None:
        """Dispatch segment ``[lo, hi)`` — the span's ``segment``-th — to
        every pass, in pass order, once its accesses are resolved."""
        # The record after a Call resolves the activation lookahead; inside
        # a segment that can only be the first row (Calls break segments).
        pending = self._pending_activation
        if pending is not None:
            self._pending_activation = None
            if block.function_id[lo] == block.id_of.get(pending, -1):
                self.varmap.enter_scope(pending)
                for callback in self._activation_callbacks:
                    callback(pending, region)
        if table is not None:
            started = _clock()
            varmap = self.varmap
            if self._memo_revision != varmap.revision:
                self._memo_revision = varmap.revision
                self._memo.clear()
            table.resolve_segment(segment, self._memo, varmap.resolve_id)
            self.resolve_seconds += _clock() - started
        spent = self.pass_seconds
        last = _clock()
        for slot, consume, selection in plan:
            selected = selection.take(segment)
            if selected:
                consume(block, region, selected)
            now = _clock()
            spent[slot] += now - last
            last = now

    # ------------------------------------------------------------------ #
    # Scope records
    # ------------------------------------------------------------------ #
    def _process(self, record: TraceRecord, region: int) -> None:
        pending = self._pending_activation
        if pending is not None:
            self._pending_activation = None
            if record.function == pending:
                # The callee's traced body follows its Call record: open the
                # activation before dispatching this record.
                self.varmap.enter_scope(pending)
                for callback in self._activation_callbacks:
                    callback(pending, region)
        action, callbacks = self._plan.get(record.opcode, self._default_plan)
        if action == _ACT_ALLOCA:
            self.varmap.add_alloca_record(record)
        elif action == _ACT_UNKNOWN:
            raise AnalysisError(
                f"trace record #{record.dyn_id} carries unknown opcode "
                f"{record.opcode} ({record.opcode_name!r}); the trace is "
                f"corrupt or from an unsupported producer")
        elif action == _ACT_RET:
            # Close the innermost activation of the returning function (a
            # function with no open scope — e.g. the main-loop function — is
            # a no-op).
            self.varmap.exit_scope(record.function)
            for callback in self._return_callbacks:
                callback(record, region)
        for callback in callbacks:
            callback(record, region)
        if action == _ACT_CALL and record.callee:
            self._pending_activation = record.callee

    def _emit_region(self, region: int) -> None:
        for callback in self._region_callbacks:
            callback(region)
