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
  registers every ``Alloca`` before any access that can see it, opens an
  allocation scope when a traced ``Call``'s body follows, and retires the
  callee's allocations on its ``Ret`` — so each access resolves against
  the allocation state *at its own execution time*;
* a walked row range (one block, one region) goes in *spans* of at most
  ``_SPAN_ROWS`` rows.  Each span's opcodes are read once, through the
  one opcode -> kind table :data:`KIND_LUT`, into the span's kind column.
  Only the rows where the live map's scopes change split the span into
  *segments*: a ``Call`` that binds parameters or whose callee's body
  follows (or that ends the span, so the next row is unseen), a ``Ret``,
  an unknown opcode, and an ``Alloca`` whose extent holds an operand
  address of an earlier row of the span.  Every other ``Alloca``
  registers from the block's columns at the start of its segment, after
  the segment's activation: no access of the segment can tell the
  difference.  Every other ``Call`` (the paper's Fig. 6a single-Call form)
  becomes a ``KIND_ARITHMETIC`` row of the kind column, a data row;
* every memory operand is resolved once: each span gets one
  :class:`AccessTable` — its block, row range and kind column, plus its
  ``Load`` / ``Store`` / ``GetElementPtr`` rows, whose owners the engine
  resolves segment by segment, before the segment is dispatched, through
  one address memo (valid while the live map's revision is unchanged);
* every span hook takes that table: each pass selects the rows it reads
  once per span (:meth:`AnalysisPass.select_span`), consumes one
  segment's slice of that selection at a time
  (:meth:`AnalysisPass.consume_selected`), and reads the finished table
  when the span ends (:meth:`AnalysisPass.close_span`).  The ``Call`` and
  ``Ret`` rows that split a span are materialized one at a time, the
  engine runs its own action for them, and they reach the passes'
  ``on_call`` handlers and the ``on_activation`` / ``on_return`` scope
  events.  An ``Alloca`` reaches no pass hook: a pass counts them in the
  kind column.

Pass execution order is registration order.  The engine times its own
walk: :attr:`AnalysisEngine.decode_seconds` (waiting for the next block),
:attr:`AnalysisEngine.scope_seconds` (finding the scope rows, registering
Allocas and processing the rows that split spans),
:attr:`AnalysisEngine.resolve_seconds` (building the access tables and
resolving their owners) and :attr:`AnalysisEngine.pass_seconds` (each
pass's span hooks and its ``finalize``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter as _clock
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MainLoopSpec
from repro.core.errors import AnalysisError
from repro.core.varmap import COUNT_OPERAND, VariableMap
from repro.ir.opcodes import (
    ARITHMETIC_OPCODE_VALUES,
    FORWARDING_OPCODE_VALUES,
    Opcode,
)
from repro.trace.records import PARAM_INDEX_PREFIX, GlobalSymbol, TraceRecord

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
# ``KIND_OTHER``), and the scope rows (above it: the scope kinds, whose
# engine actions can change the shared map mid-span, and unknown opcodes,
# which fail loudly).  The walk relabels a plain ``Call`` arithmetic; the
# other scope rows stay, and only those that change a scope break
# segments.
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
    hold a scope row (a kind above ``KIND_OTHER``): :meth:`cut` splits it
    at the span's break rows, which are among them.
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
    ``row``'s record kind is ``kinds[row - lo]`` (a plain ``Call`` reads
    ``KIND_ARITHMETIC``).  ``canon`` maps each string id of the block's
    table to its canonical id, the one ``block.id_of`` gives its text
    (None when the table repeats no string); compare string ids through
    :meth:`canonical`.  The access columns list
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

    __slots__ = ("block", "lo", "hi", "kinds", "canon", "rows", "kind",
                 "address", "owners", "_addresses", "_cuts", "_owner_ids")

    def __init__(self, block, lo: int, hi: int, kinds, breaks,
                 canon=None) -> None:
        self.block = block
        self.lo = lo
        self.hi = hi
        self.kinds = kinds
        self.canon = canon
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

    def canonical(self, ids):
        """String ids of the block's table (a numpy array) made canonical:
        two ids of one text compare equal."""
        return ids if self.canon is None else self.canon[ids]

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
    reads the rows that change no scope through one API:
    :meth:`select_span` picks the pass's rows of the span in one set of
    vector ops, :meth:`consume_selected` consumes one segment's slice of
    that selection, and :meth:`close_span` follows the span's last
    segment, when every owner in the table is resolved.  The ``Call``
    records that can open a scope arrive through :meth:`on_call`, and the
    call/return scope events through :meth:`on_activation` /
    :meth:`on_return`; ``Alloca`` rows reach no hook (the engine registers
    them, and the kind column shows them).  The engine inspects which of
    these methods a subclass overrides and calls exactly those.  Every
    callback receives the region constant (``REGION_BEFORE`` /
    ``REGION_INSIDE`` / ``REGION_AFTER``) it executes in.
    """

    # -- scope records and events --------------------------------------- #
    def on_call(self, record: TraceRecord, region: int, row: int) -> None:
        """A ``Call`` record at row ``row`` of the span's block that splits
        its span: it binds parameters, its callee's body follows (the
        scope opens on the next record — see :meth:`on_activation`), or it
        ends its span.  Every other ``Call`` (no parameter, no body) is a
        ``KIND_ARITHMETIC`` row of the kind column instead."""

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
        no scope row: ``Alloca`` / ``Call`` / ``Ret`` or an unknown
        opcode, a kind above ``KIND_OTHER``), or None when the pass reads
        nothing in this span.  The engine drops the selection when the
        span ends.
        """
        return None

    def consume_selected(self, table: AccessTable, region: int,
                         selected) -> None:
        """Consume one segment's slice of this pass's span selection.

        ``selected`` is :meth:`SpanSelection.take` of the segment, never
        empty: its rows in order (a list), or its field tuples.  Segments
        never contain a ``Call`` or ``Ret`` record that changes a scope
        (those carry engine actions and arrive through the scope
        handlers), all rows of a segment share ``region``, the shared
        variable map is constant across the segment (its Allocas are
        registered when it starts), and the owners of its access rows are
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


class _ScopeRows:
    """One block's ``Call`` and ``Alloca`` rows, classified once for all of
    its spans.

    ``call_rows`` are the block's ``Call`` rows (ascending), and
    ``call_plain`` marks those that change no scope when their next row
    is in their span: it does not run in the callee (no traced body
    follows), and no operand binds a parameter (the paper's Fig. 6a
    single-Call form).  ``alloca_rows`` are the ``Alloca`` rows, and
    ``alloca_plain`` marks those that register from columns: a result slot
    after a first operand named ``count`` whose value is an int64 in
    ``[0, 2**32]``, and an extent that does not wrap past the top
    address.  A plain row of either kind also passes
    :meth:`~repro.trace.columnar.ColumnarBlock.decodes_as_scanned`, so
    the rows left undecoded are ones the record decoder would accept.  Per
    Alloca, ``slot`` is its first operand slot and ``[base, end)`` its
    extent (where plain).  ``registrations`` holds the plain ones'
    :meth:`~repro.core.varmap.VariableMap.add_alloca` arguments, and
    ``registered_rows`` their rows (a list).
    """

    __slots__ = ("block", "call_rows", "call_plain", "alloca_rows",
                 "alloca_plain", "slot", "base", "end", "registrations",
                 "registered_rows")

    def __init__(self, block) -> None:
        self.block = block
        self.registrations: List[Tuple] = []
        self.registered_rows: List[int] = []


class AnalysisEngine:
    """Drive registered passes over a trace's columnar blocks in one pass.

    The engine owns the shared live variable map: it registers every
    ``Alloca`` (all functions) before any access that can see it and
    mirrors the trace's call/return structure as allocation scopes — a
    ``Call`` opens a scope only once the next record proves a traced body
    follows (zero-parameter user functions included; builtins, whose next
    record stays in the caller, open nothing), and the matching ``Ret``
    retires it.
    """

    def __init__(self, spec: MainLoopSpec, passes: Sequence[AnalysisPass],
                 variable_map: Optional[VariableMap] = None) -> None:
        self.spec = spec
        self.passes: List[AnalysisPass] = list(passes)
        self.varmap = variable_map if variable_map is not None else VariableMap()
        self._pending_activation: Optional[str] = None
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
        #: the string table the walk's blocks share, and per string id its
        #: canonical id (None: no string repeats), whether it names a
        #: parameter operand (one more entry, for ids past the table), and
        #: the canonical ids of the Alloca count operand's name and of ""
        self._strings: Optional[List[str]] = None
        self._canon: Optional[np.ndarray] = None
        self._params = np.ones(1, dtype=bool)
        self._count_id = -1
        self._empty_id = -1
        #: the scope rows of the block being walked, classified once; the
        #: span's Allocas that register from columns are its
        #: ``registrations[_next_alloca:_last_alloca]``, and the first of
        #: those is the next to register
        self._scope: Optional[_ScopeRows] = None
        self._next_alloca = self._last_alloca = 0
        #: seconds spent waiting for the next block (the decode)
        self.decode_seconds = 0.0
        #: seconds spent finding scope rows, registering Allocas and
        #: processing the rows that split spans
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

    def _bind_strings(self, block) -> None:
        """Build the walk's string-id tables from ``block``'s string table,
        which every block of one walk shares."""
        strings = block.strings
        id_of = block.id_of
        self._strings = strings
        self._canon = (np.array([id_of[text] for text in strings],
                                dtype=np.int64)
                       if len(id_of) < len(strings) else None)
        self._params = np.array(
            [text.startswith(PARAM_INDEX_PREFIX) for text in strings]
            + [True])
        self._count_id = id_of.get(COUNT_OPERAND, -1)
        self._empty_id = id_of.get("", -1)

    def _canonical(self, ids):
        return ids if self._canon is None else self._canon[ids]

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #
    def run_columnar(self, blocks) -> EngineWalk:
        """Walk :class:`~repro.trace.columnar.ColumnarBlock`\\ s once.

        Loop-extent detection is one vectorized line/function mask per
        block, region-unresolved row ranges are buffered as ``(block, lo,
        hi)`` triples, and each walked span is split into segments where
        the live map's scopes change: a pass selects its rows once per
        span (:meth:`AnalysisPass.select_span`) and consumes them segment
        by segment (:meth:`AnalysisPass.consume_selected`).

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
            if block.strings is not self._strings:
                self._bind_strings(block)
            spec_fid = block.id_of.get(spec.function, -1)
            hits = block.loop_rows(spec_fid, spec.start_line, spec.end_line,
                                   self._canon)
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
        self._scope = None
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
        """Walk span ``[lo, hi)``: its kind column, break rows and access
        table are built and every pass selects its rows of the whole span
        first, each segment then registers its Allocas, resolves its
        accesses and hands every pass its slice (the row that ends it is
        processed after it), the close hooks get the finished table, and
        the span's table and selections are dropped on return."""
        kinds = KIND_LUT[np.clip(block.opcode[lo:hi], -1, _MAX_OPCODE + 1)]
        breaks = np.flatnonzero(kinds > KIND_OTHER)
        self._next_alloca = self._last_alloca = 0
        if breaks.size:
            started = _clock()
            breaks = self._break_rows(block, lo, hi, kinds, breaks)
            self.scope_seconds += _clock() - started
        started = _clock()
        table = AccessTable(block, lo, hi, kinds, breaks, self._canon)
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
                self._dispatch_segment(table, segment_lo, row, region, plan,
                                       segment)
            started = _clock()
            self._activate(block, row, region)
            self._process(block, row, int(kinds[row - lo]), region)
            self.scope_seconds += _clock() - started
            segment_lo = row + 1
        if segment_lo < hi:
            self._dispatch_segment(table, segment_lo, hi, region, plan,
                                   len(breaks))
        for slot, hook in self._close_plan:
            started = _clock()
            hook(table, region)
            spent[slot] += _clock() - started

    def _dispatch_segment(self, table: AccessTable, lo: int, hi: int,
                          region: int, plan: List[Tuple],
                          segment: int) -> None:
        """Dispatch the span's ``segment``-th segment, rows ``[lo, hi)``,
        to every pass, in pass order, once its activation is open, its
        Allocas are registered and its accesses are resolved."""
        started = _clock()
        self._activate(table.block, lo, region)
        self._register_allocas(hi)
        now = _clock()
        self.scope_seconds += now - started
        varmap = self.varmap
        if self._memo_revision != varmap.revision:
            self._memo_revision = varmap.revision
            self._memo.clear()
        table.resolve_segment(segment, self._memo, varmap.resolve_id)
        last = _clock()
        self.resolve_seconds += last - now
        spent = self.pass_seconds
        for slot, consume, selection in plan:
            selected = selection.take(segment)
            if selected:
                consume(table, region, selected)
            now = _clock()
            spent[slot] += now - last
            last = now

    # ------------------------------------------------------------------ #
    # Scope rows
    # ------------------------------------------------------------------ #
    def _break_rows(self, block, lo: int, hi: int, kinds, scope):
        """The rows that split span ``[lo, hi)`` into segments, as
        ascending block rows, out of its scope rows (``scope``: their
        positions in the kind column ``kinds``).

        A ``Call`` that changes no scope (:class:`_ScopeRows`) and whose
        next row is in the span becomes ``KIND_ARITHMETIC`` in ``kinds``.
        The span's ``Alloca`` rows that register from columns are listed
        for :meth:`_register_allocas`; one breaks only when an operand
        address of an earlier row of the span falls in its extent
        (registered at its segment's start, it would own that access).
        Every other scope row breaks.
        """
        rows = scope + lo
        kind = kinds[scope]
        breaking = np.ones(len(rows), dtype=bool)
        known = self._scope
        if known is None or known.block is not block:
            known = self._scope = self._classify(block)
        c0, c1 = known.call_rows.searchsorted((lo, hi)).tolist()
        if c0 < c1:
            plain = np.flatnonzero(known.call_plain[c0:c1]
                                   & (known.call_rows[c0:c1] + 1 < hi))
            if plain.size:
                plain = np.flatnonzero(kind == KIND_CALL)[plain]
                kinds[scope[plain]] = KIND_ARITHMETIC
                breaking[plain] = False
        a0, a1 = known.alloca_rows.searchsorted((lo, hi)).tolist()
        plain = np.flatnonzero(known.alloca_plain[a0:a1])
        if plain.size:
            at = plain + a0
            breaking[np.flatnonzero(kind == KIND_ALLOCA)[plain]] = \
                self._touched_before(block, lo, known.slot[at],
                                     known.base[at], known.end[at])
            rows_of = known.registered_rows
            self._next_alloca = bisect_left(rows_of, lo)
            self._last_alloca = bisect_left(rows_of, hi)
        return rows[breaking]

    def _classify(self, block) -> "_ScopeRows":
        """Classify ``block``'s ``Call`` and ``Alloca`` rows (see
        :class:`_ScopeRows`)."""
        known = _ScopeRows(block)
        opcode = block.opcode
        calls = known.call_rows = np.flatnonzero(opcode == Opcode.CALL)
        callee = self._canonical(block.callee_id[calls])
        runs_in = self._canonical(
            block.function_id[np.minimum(calls + 1, block.count - 1)])
        plain = known.call_plain = ((callee == self._empty_id)
                                    | (runs_in != callee))
        pick = np.flatnonzero(plain)
        if pick.size:
            rows = calls[pick]
            slots, bounds = block.operand_slots(rows)
            # A slot whose index names a parameter binds one (a result's
            # index never does in a well-formed trace; one that does only
            # makes its Call a scope record).
            binds = self._params[np.minimum(block.slot_field("index_id",
                                                             slots),
                                            len(self._params) - 1)]
            seen = np.zeros(len(slots) + 1, dtype=np.int64)
            np.cumsum(binds, out=seen[1:])
            plain[pick[(seen[bounds[1:]] > seen[bounds[:-1]])
                       | ~block.decodes_as_scanned(rows, slots,
                                                   bounds)]] = False

        rows = known.alloca_rows = np.flatnonzero(opcode == Opcode.ALLOCA)
        known.alloca_plain = np.zeros(len(rows), dtype=bool)
        known.slot = block.op_start[rows]
        known.base = np.zeros(len(rows), dtype=np.uint64)
        known.end = np.zeros(len(rows), dtype=np.uint64)
        if not rows.size or not block.op_flags.size:
            return known
        first = known.slot
        result = block.op_start[rows + 1] - 1
        pick = np.flatnonzero(block.has_result[rows].astype(bool)
                              & (result > first))
        count, plain = block.int_values(first[pick])
        plain &= ((self._canonical(block.op_name_id[first[pick]])
                   == self._count_id)
                  & (count >= 0) & (count <= 1 << 32))
        plain &= block.decodes_as_scanned(rows[pick],
                                          *block.operand_slots(rows[pick]))
        pick = pick[plain]
        count = count[plain]
        result = result[pick]
        bits = block.slot_field("bits", result)
        base = block.op_address[result]
        element = np.where(bits == 0, 32, bits).astype(np.int64)
        size = (count * np.maximum(1, (element + 7) // 8)).astype(np.uint64)
        # An extent that wraps past the top address is decoded.
        fits = size <= ~base
        pick, count, result, bits, base, size = (
            column[fits] for column in (pick, count, result, bits, base,
                                        size))
        known.alloca_plain[pick] = True
        known.base[pick] = base
        known.end[pick] = base + size
        rows = rows[pick]
        known.registered_rows = rows.tolist()
        strings = block.strings
        known.registrations = list(zip(
            [strings[name] for name in block.op_name_id[result].tolist()],
            base.tolist(), count.tolist(), bits.tolist(),
            [strings[function]
             for function in block.function_id[rows].tolist()],
            block.line[rows].tolist()))
        return known

    @staticmethod
    def _touched_before(block, lo: int, slot, base, end):
        """Per ``Alloca`` of a span that starts at row ``lo`` — its first
        operand slot in ``slot`` (ascending) and its extent ``[base,
        end)`` — whether an operand slot of the span before ``slot``
        carries an address in the extent."""
        start = int(block.op_start[lo])
        addressed = np.flatnonzero(block.op_flags[start:slot[-1]] & 2)
        touched = np.zeros(len(slot), dtype=bool)
        if not addressed.size:
            return touched
        addresses = block.op_address[addressed + start]
        before = addressed.searchsorted(slot - start)
        # An Alloca above every address before it (a stack that grows
        # upwards) owns none of them: only the others are searched.
        highest = np.maximum.accumulate(addresses)
        check = np.flatnonzero((before > 0) & (end > base)
                               & (highest[before - 1] >= base))
        if not check.size:
            return touched
        order = np.argsort(addresses, kind="stable")
        addresses = addresses[order]
        # each address's slot in address order, then one no range ends past
        position = np.append(addressed[order], 0)
        at = addresses.searchsorted(base[check])
        stop = addresses.searchsorted(end[check])
        bounds = np.empty(2 * len(check), dtype=np.int64)
        bounds[0::2] = at
        bounds[1::2] = stop
        # the first slot in each extent (junk where the extent holds none)
        earliest = np.minimum.reduceat(position, bounds)[0::2]
        touched[check] = (stop > at) & (earliest < slot[check] - start)
        return touched

    def _register_allocas(self, until: int) -> int:
        """Register the span's listed Allocas of rows before ``until``
        that are not registered yet, in row order; return how many."""
        start = self._next_alloca
        if start == self._last_alloca:
            return 0
        known = self._scope
        stop = bisect_left(known.registered_rows, until, start,
                           self._last_alloca)
        add = self.varmap.add_alloca
        for alloca in known.registrations[start:stop]:
            add(*alloca)
        self._next_alloca = stop
        return stop - start

    def _activate(self, block, row: int, region: int) -> None:
        """Resolve the activation lookahead at ``row``, the record after a
        traced ``Call`` (a segment's first row, or a row that splits the
        span: such Calls end their segment): when it runs in the callee,
        the callee's body follows, so its activation opens before the
        record is dispatched."""
        pending = self._pending_activation
        if pending is None:
            return
        self._pending_activation = None
        if (int(self._canonical(block.function_id[row]))
                == block.id_of.get(pending, -1)):
            self.varmap.enter_scope(pending)
            for callback in self._activation_callbacks:
                callback(pending, region)

    def _process(self, block, row: int, kind: int, region: int) -> None:
        """Run the engine's action for the row ``row`` of ``block`` that
        splits its span (of kind ``kind``), then hand its record to the
        passes."""
        if kind == KIND_ALLOCA:
            if not self._register_allocas(row + 1):
                self.varmap.add_alloca_record(block.record(row))
            return
        record = block.record(row)
        if kind == KIND_CALL:
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
