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
  ``_SPAN_ROWS`` rows.  Each span's opcodes are read once, through the
  one opcode -> kind table :data:`KIND_LUT`, into the span's kind column;
  the scope records (``Alloca`` / ``Call`` / ``Ret``) and unknown opcodes
  it marks split the span into *segments*;
* every memory operand is resolved once: each span gets one
  :class:`AccessTable` — its block, row range and kind column, plus its
  ``Load`` / ``Store`` / ``GetElementPtr`` rows, whose owners the engine
  resolves segment by segment, before the segment is dispatched, through
  one address memo (valid while the live map's revision is unchanged);
* every span hook takes that table: each pass selects the rows it reads
  once per span (:meth:`AnalysisPass.select_span`), consumes one
  segment's slice of that selection at a time
  (:meth:`AnalysisPass.consume_selected`), and reads the finished table
  when the span ends (:meth:`AnalysisPass.close_span`).  Scope records
  are materialized one at a time, the engine runs its own action for
  them, and they reach the passes' ``on_alloca`` / ``on_call`` handlers
  and the ``on_activation`` / ``on_return`` scope events.

Pass execution order is registration order.  The engine times its own
walk: :attr:`AnalysisEngine.decode_seconds` (waiting for the next block),
:attr:`AnalysisEngine.scope_seconds` (materializing and processing scope
records), :attr:`AnalysisEngine.resolve_seconds` (building the access
tables and resolving their owners) and
:attr:`AnalysisEngine.pass_seconds` (each pass's span hooks and its
``finalize``).
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

# Kinds are ordered so that each class of rows the walk selects is one
# comparison: the memory accesses an access table lists (up to
# ``KIND_GEP``), the data-carrying rows the dependency pass reads (below
# ``KIND_OTHER``), and the rows that break segments (above it: the scope
# kinds, whose engine actions change the shared map mid-span, and unknown
# opcodes, which fail loudly).
KIND_LOAD = 0
KIND_STORE = 1
KIND_GEP = 2
KIND_FORWARDING = 3
KIND_ARITHMETIC = 4
KIND_OTHER = 5
KIND_ALLOCA = 6
KIND_CALL = 7
KIND_RET = 8
KIND_UNKNOWN = 9


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


_MAX_OPCODE = max(int(op) for op in Opcode)

#: raw opcode -> record kind, the one table every kind is read from.  A
#: value outside the enum reads ``KIND_UNKNOWN``: the enum's gaps hold it,
#: and the walk clips opcodes into ``[-1, _MAX_OPCODE + 1]`` before the
#: gather, so a value past the end lands on the last entry and a negative
#: one on index -1, the same entry.
KIND_LUT = np.full(_MAX_OPCODE + 2, KIND_UNKNOWN, dtype=np.int8)
for _op in Opcode:
    KIND_LUT[int(_op)] = _kind_of(int(_op))
del _op


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
    """One span: its rows' kinds, and its memory accesses with the owner
    each address resolves to.

    The span is rows ``[lo, hi)`` of ``block``, all in one region, and
    ``kinds`` is its kind column, read from :data:`KIND_LUT`: row
    ``row``'s record kind is ``kinds[row - lo]``.  The access columns list
    the span's ``Load`` / ``Store`` / ``GetElementPtr`` rows: ``rows``
    (ascending block row numbers), ``kind`` (their record kinds) and
    ``address`` (their pointer operands' addresses, ``uint64``; 0 when the
    record has no such operand or it carries no address, and such a row
    has no owner).  ``owners`` holds, per access row, the owner id
    (:attr:`VariableMap.registrations` index) its address resolves to in
    the live map *when the row executes*, or -1: the engine fills it
    segment by segment as the walk reaches them, so while a segment is
    being dispatched the entries up to its end are final.
    """

    __slots__ = ("block", "lo", "hi", "kinds", "rows", "kind", "address",
                 "owners", "_addresses", "_cuts", "_owner_ids")

    def __init__(self, block, lo: int, hi: int, kinds, breaks) -> None:
        self.block = block
        self.lo = lo
        self.hi = hi
        self.kinds = kinds
        rows = np.flatnonzero(kinds <= KIND_GEP)
        kind = kinds[rows]
        rows += lo
        self.rows = rows
        self.kind = kind
        # Load and GetElementPtr read through operand 0, Store writes
        # through operand 1.
        pointer = kind == KIND_STORE
        first = block.op_start[rows]
        slot = first + pointer
        present = (block.op_start[rows + 1] - first
                   - block.has_result[rows]) > pointer
        flags = block.op_flags
        if flags.size:
            slot[~present] = 0
            present &= (flags[slot] & 2) != 0
            address = np.where(present, block.op_address[slot], 0)
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

    The engine walks a trace in spans (rows of one block, all in one
    region) and hands each span hook the span's :class:`AccessTable`: its
    block, row range and kind column, and its memory accesses.  A pass
    reads non-scope rows through one API: :meth:`select_span` picks the
    pass's rows of the span in one set of vector ops,
    :meth:`consume_selected` consumes one segment's slice of that
    selection, and :meth:`close_span` follows the span's last segment,
    when every owner in the table is resolved.  Scope records arrive
    through :meth:`on_alloca` / :meth:`on_call`, and the call/return scope
    events through :meth:`on_activation` / :meth:`on_return`.  The engine
    inspects which of these methods a subclass overrides and calls exactly
    those.  Every callback receives the region constant
    (``REGION_BEFORE`` / ``REGION_INSIDE`` / ``REGION_AFTER``) it executes
    in.
    """

    # -- scope records and events --------------------------------------- #
    def on_alloca(self, record: TraceRecord, region: int) -> None:
        """An ``Alloca`` record (already registered on the shared map)."""

    def on_call(self, record: TraceRecord, region: int, row: int) -> None:
        """A ``Call`` record at row ``row`` of the span's block (scope
        opening, if any, follows on the next record — see
        :meth:`on_activation`)."""

    def on_activation(self, callee: str, region: int) -> None:
        """A traced ``Call``'s body follows: the engine just opened an
        allocation scope for ``callee`` (fires before the first callee
        record is dispatched)."""

    def on_return(self, record: TraceRecord, region: int) -> None:
        """``record`` is the ``Ret`` closing the innermost activation of
        its function; the engine has already retired the scope."""

    # -- spans ----------------------------------------------------------- #
    def select_span(self, table: AccessTable,
                    region: int) -> Optional[SpanSelection]:
        """Select the rows this pass reads in the span ``table`` describes.

        Return a :class:`SpanSelection` of the span's rows (it must hold
        no row whose kind breaks segments: ``Alloca`` / ``Call`` / ``Ret``
        or an unknown opcode), or None when the pass reads nothing in this
        span.  The engine drops the selection when the span ends.
        """
        return None

    def consume_selected(self, table: AccessTable, region: int,
                         selected) -> None:
        """Consume one segment's slice of this pass's span selection.

        ``selected`` is :meth:`SpanSelection.take` of the segment, never
        empty: its rows in order (a list), or its field tuples.  Segments
        never contain ``Alloca`` / ``Call`` / ``Ret`` records (those carry
        engine actions and arrive through the scope handlers), all rows of
        a segment share ``region``, the shared variable map is constant
        across the segment, and the owners of its access rows are
        resolved.
        """

    def close_span(self, table: AccessTable, region: int) -> None:
        """A span ended: every owner in ``table`` is resolved."""

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
        self._alloca_callbacks = self._callbacks("on_alloca")
        self._call_callbacks = self._callbacks("on_call")
        self._activation_callbacks = self._callbacks("on_activation")
        self._return_callbacks = self._callbacks("on_return")
        # Segment consumers in registration order: (slot, select_span,
        # consume_selected) for every pass with the span hook.
        self._segment_plan: List[Tuple[int, Callable, Callable]] = [
            (slot, select, self.passes[slot].consume_selected)
            for slot, select in self._hooks("select_span")]
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
        #: per pass (registration order): seconds in its span hooks and
        #: its ``finalize``
        self.pass_seconds: List[float] = [0.0] * len(self.passes)

    def _hooks(self, name: str) -> List[Tuple[int, Callable]]:
        """``(slot, bound method)`` of every pass that overrides ``name``,
        in registration order."""
        return [(slot, getattr(p, name)) for slot, p in enumerate(self.passes)
                if getattr(type(p), name) is not getattr(AnalysisPass, name)]

    def _callbacks(self, name: str) -> Tuple[Callable, ...]:
        return tuple(hook for _, hook in self._hooks(name))

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
        for range_block, lo, hi in pending_ranges:
            self._walk_rows(range_block, lo, hi, REGION_AFTER)
        pending_ranges.clear()
        for slot, pass_ in enumerate(self.passes):
            started = _clock()
            pass_.finalize()
            self.pass_seconds[slot] += _clock() - started
        return EngineWalk(
            record_count=total,
            first_index=first_index,
            last_index=last_index,
            first_loop_dyn_id=first_dyn,
            last_loop_dyn_id=last_dyn,
        )

    def _walk_rows(self, block, lo: int, hi: int, region: int) -> None:
        """Walk rows ``[lo, hi)`` of one block in a single known region,
        span by span."""
        for span_lo in range(lo, hi, _SPAN_ROWS):
            self._walk_span(block, span_lo, min(span_lo + _SPAN_ROWS, hi),
                            region)

    def _walk_span(self, block, lo: int, hi: int, region: int) -> None:
        """Walk span ``[lo, hi)``: its kind column and access table are
        built and every pass selects its rows of the whole span first,
        each segment then resolves its accesses and hands every pass its
        slice (the scope record that ends it is processed after it), the
        close hooks get the finished table, and the span's table and
        selections are dropped on return."""
        kinds = KIND_LUT[np.clip(block.opcode[lo:hi], -1, _MAX_OPCODE + 1)]
        # Scope kinds (engine actions) and unknown opcodes (loud failure)
        # are materialized one record at a time.
        breaks = np.flatnonzero(kinds > KIND_OTHER)
        breaks += lo
        started = _clock()
        table = AccessTable(block, lo, hi, kinds, breaks)
        self.resolve_seconds += _clock() - started
        spent = self.pass_seconds
        plan = []
        for slot, select, consume in self._segment_plan:
            started = _clock()
            selection = select(table, region)
            if selection is not None and len(selection):
                selection.cut(breaks)
                plan.append((slot, consume, selection))
            spent[slot] += _clock() - started
        segment_lo = lo
        for segment, row in enumerate(breaks.tolist()):
            if segment_lo < row:
                self._dispatch_segment(table, segment_lo, region, plan,
                                       segment)
            started = _clock()
            self._activate(block, row, region)
            self._process(block.record(row), int(kinds[row - lo]), region,
                          row)
            self.scope_seconds += _clock() - started
            segment_lo = row + 1
        if segment_lo < hi:
            self._dispatch_segment(table, segment_lo, region, plan,
                                   len(breaks))
        for slot, hook in self._close_plan:
            started = _clock()
            hook(table, region)
            spent[slot] += _clock() - started

    def _dispatch_segment(self, table: AccessTable, lo: int, region: int,
                          plan: List[Tuple], segment: int) -> None:
        """Dispatch the span's ``segment``-th segment, whose first row is
        ``lo``, to every pass, in pass order, once its accesses are
        resolved."""
        self._activate(table.block, lo, region)
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
                consume(table, region, selected)
            now = _clock()
            spent[slot] += now - last
            last = now

    # ------------------------------------------------------------------ #
    # Scope records
    # ------------------------------------------------------------------ #
    def _activate(self, block, row: int, region: int) -> None:
        """Resolve the activation lookahead at ``row``, the record after a
        traced ``Call`` (a segment's first row, or a scope record: Calls
        break segments): when it runs in the callee, the callee's body
        follows, so its activation opens before the record is
        dispatched."""
        pending = self._pending_activation
        if pending is None:
            return
        self._pending_activation = None
        if int(block.function_id[row]) == block.id_of.get(pending, -1):
            self.varmap.enter_scope(pending)
            for callback in self._activation_callbacks:
                callback(pending, region)

    def _process(self, record: TraceRecord, kind: int, region: int,
                 row: int) -> None:
        """Run the engine's action for scope record ``record`` (row ``row``
        of its block) of kind ``kind``, then hand the record to the
        passes."""
        if kind == KIND_ALLOCA:
            self.varmap.add_alloca_record(record)
            for callback in self._alloca_callbacks:
                callback(record, region)
        elif kind == KIND_CALL:
            for callback in self._call_callbacks:
                callback(record, region, row)
            if record.callee:
                self._pending_activation = record.callee
        elif kind == KIND_RET:
            # Close the innermost activation of the returning function (a
            # function with no open scope — e.g. the main-loop function — is
            # a no-op).
            self.varmap.exit_scope(record.function)
            for callback in self._return_callbacks:
                callback(record, region)
        else:
            raise AnalysisError(
                f"trace record #{record.dyn_id} carries unknown opcode "
                f"{record.opcode} ({record.opcode_name!r}); the trace is "
                f"corrupt or from an unsupported producer")
