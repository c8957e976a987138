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
  the rows it reads once per span
  (:meth:`AnalysisPass.select_span`) and consumes one segment's slice of
  that selection at a time (:meth:`AnalysisPass.consume_selected`); a
  pass without the span hook gets every segment through
  :meth:`AnalysisPass.consume_columns`.  Scope records are materialized
  one at a time and dispatched to the passes' ``on_alloca`` / ``on_call``
  / ``on_ret`` handlers after the engine ran its own action for them.

Pass execution order is registration order; the pipeline registers the
MLI-collection pass first so that later passes observe the variable sets
updated through the current segment.  The engine times its own walk:
:attr:`AnalysisEngine.decode_seconds` (waiting for the next block),
:attr:`AnalysisEngine.scope_seconds` (materializing and processing scope
records) and :attr:`AnalysisEngine.pass_seconds` (each pass's span
selections plus its segment consumption).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter as _clock
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import MainLoopSpec
from repro.core.errors import AnalysisError
from repro.core.varmap import VariableMap
from repro.ir.opcodes import (
    ARITHMETIC_OPCODE_VALUES,
    FORWARDING_OPCODE_VALUES,
    Opcode,
)
from repro.trace.records import GlobalSymbol, TraceRecord

try:  # numpy accelerates the columnar walk's masks; plain loops otherwise
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the list fallbacks
    _np = None

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

#: Opcodes the walk materializes individually (engine actions mutate the
#: shared map / scope structure mid-stream, so these break the segments);
#: every *other* known opcode stays columnar.
_SCOPE_KINDS = (KIND_RET, KIND_ALLOCA, KIND_CALL)
_NONBREAK_OPCODES = frozenset(
    op for op, kind in KIND_BY_OPCODE.items() if kind not in _SCOPE_KINDS)

#: Mirrors ``repro.static.prefilter._POINTER_OPERAND`` (the static layer
#: imports this module, so the engine cannot import it back): opcode ->
#: index of the pointer operand a structured prefilter's tables decide on.
_COLUMNAR_POINTER_OPERAND = {
    int(Opcode.LOAD): 0, int(Opcode.STORE): 1, int(Opcode.GETELEMENTPTR): 0}
_GEP_OPCODE = int(Opcode.GETELEMENTPTR)

if _np is not None:
    # True where the walk must leave segment dispatch: scope opcodes and
    # every in-range value that is not a known opcode (the walk clips
    # out-of-range values onto index 0, which is unknown too).
    _NP_BREAK_LUT = _np.ones(_MAX_OPCODE + 1, dtype=bool)
    for _op in _NONBREAK_OPCODES:
        _NP_BREAK_LUT[_op] = False
    del _op


class SpanSelection:
    """One pass's rows of a span, selected once and sliced per segment.

    ``rows`` are the selected row numbers in ascending order, a numpy
    array or (the numpy-free path, blocks without numpy mirrors) a list.
    ``fields``, when given, carries a payload per selected row: a
    ``(k, len(rows))`` numpy array of k columns beside array rows, or a
    list of k-tuples beside list rows.  A selection must not hold a row
    that breaks segments (a scope or unknown opcode): :meth:`cut` splits
    it at exactly those rows.
    """

    __slots__ = ("rows", "fields", "_bounds", "_lists")

    def __init__(self, rows, fields=None) -> None:
        self.rows = rows
        self.fields = fields
        self._lists = isinstance(rows, list)
        self._bounds: List[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def cut(self, breaks: List[int], np_breaks=None) -> None:
        """Split at the span's break rows: segment ``k`` is the one that
        ends at ``breaks[k]`` (the span's last segment is
        ``len(breaks)``).  ``np_breaks`` is ``breaks`` as a numpy array,
        when the walk has one."""
        rows = self.rows
        if self._lists:
            inner = [bisect_left(rows, row) for row in breaks]
        else:
            inner = rows.searchsorted(
                breaks if np_breaks is None else np_breaks).tolist()
        self._bounds = [0, *inner, len(rows)]

    def take(self, segment: int):
        """Segment ``segment``'s part, empty when it has none: its rows as
        a list, or with fields its payloads as an iterable of tuples (one
        ``tolist`` of the column slices, zipped lazily, so a long segment
        builds no object per row)."""
        lo = self._bounds[segment]
        hi = self._bounds[segment + 1]
        if lo == hi:
            return ()
        fields = self.fields
        if fields is None:
            part = self.rows[lo:hi]
            return part if self._lists else part.tolist()
        if self._lists:
            return fields[lo:hi]
        return zip(*fields[:, lo:hi].tolist())

    def take_kept(self, segment: int, keep) -> list:
        """:meth:`take`, narrowed to the rows in ``keep`` (the static
        prefilter's surviving rows)."""
        part = self.take(segment)
        if not part:
            return []
        if self.fields is None:
            return [row for row in part if row in keep]
        rows = self.rows[self._bounds[segment]:self._bounds[segment + 1]]
        if not self._lists:
            rows = rows.tolist()
        return [item for row, item in zip(rows, part) if row in keep]


class AnalysisPass:
    """Base class for engine passes; override only what you need.

    A pass reads non-scope rows in one of two ways:

    * **span hook** — :meth:`select_span` picks the pass's rows of a whole
      span ``[lo, hi)`` (one block, one region) in one set of vector ops,
      and :meth:`consume_selected` consumes one segment's slice of that
      selection.  The built-in passes work this way;
    * **per segment** — a pass that does not override :meth:`select_span`
      gets every segment through :meth:`consume_columns`.

    Either way it declares the non-scope record kinds it reads in
    :attr:`column_kinds`.  Scope records arrive through the
    ``on_alloca`` / ``on_call`` / ``on_ret`` handlers; the engine inspects
    which of them a subclass overrides and calls exactly those.  Every
    callback receives the region constant (``REGION_BEFORE`` /
    ``REGION_INSIDE`` / ``REGION_AFTER``) it executes in.
    """

    #: Non-scope record kinds (``KIND_*``) the pass reads.  The static
    #: prefilter counts a row outside the loop as skipped only when some
    #: registered pass declared its kind.
    column_kinds: FrozenSet[int] = frozenset()

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
        ``block``, all in ``region`` (optional span hook).

        Return a :class:`SpanSelection` of the span's rows (it must hold
        no ``Alloca`` / ``Call`` / ``Ret`` or unknown-opcode row), or None
        when the pass reads nothing in this span.  The engine drops the
        selection when the span ends.
        """
        return None

    def consume_selected(self, block, region: int, selected) -> None:
        """Consume one segment's slice of this pass's span selection.

        ``selected`` is :meth:`SpanSelection.take` of the segment, never
        empty: its rows in order (a list), or its field tuples — narrowed
        to the static prefilter's surviving rows when it applies.  Segments
        never contain ``Alloca`` / ``Call`` / ``Ret`` records (those carry
        engine actions and arrive through the scope handlers), all rows of
        a segment share ``region``, and the shared variable map is
        constant across the segment.
        """

    def consume_columns(self, block, start: int, stop: int, region: int,
                        rows: Optional[List[int]] = None) -> None:
        """Consume one segment of a decoded block (passes without
        :meth:`select_span`).

        Consume rows ``[start, stop)`` of ``block`` (a
        :class:`~repro.trace.columnar.ColumnarBlock`) — or exactly ``rows``
        (ascending, within that range) when the static prefilter narrowed
        the segment — in row order, under the guarantees
        :meth:`consume_selected` lists.
        """

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
#: stays under 100 kB (six int64 fields per row) and one segment's row
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
                 variable_map: Optional[VariableMap] = None,
                 prefilter: Optional[object] = None) -> None:
        self.spec = spec
        self.passes: List[AnalysisPass] = list(passes)
        self.varmap = variable_map if variable_map is not None else VariableMap()
        # Optional static skip filter (repro.static.prefilter.StaticPrefilter,
        # duck-typed to avoid a core -> static import cycle).  Consulted only
        # for records *outside* the loop region, and only valid for pass sets
        # that — like the pipeline's — gate non-memory kinds to the inside
        # region.  Engine-side actions (Alloca registration, scope
        # open/close) always run; only pass dispatch is skipped.  Filters
        # exposing ``make_skip_plan()`` split the decision into a
        # membership-testable always-skip opcode set plus a closure for the
        # rest.
        self._prefilter_obj = prefilter
        if prefilter is None:
            self._prefilter_skip = None
            self._prefilter_always: frozenset = frozenset()
        else:
            make_plan = getattr(prefilter, "make_skip_plan", None)
            if make_plan is not None:
                self._prefilter_always, self._prefilter_skip = make_plan()
            else:
                self._prefilter_always = frozenset()
                self._prefilter_skip = prefilter.should_skip
        self.skipped_records = 0
        #: per-trace columnar state; built on the first block walked
        self._col_tables_key: Optional[int] = None
        self._col_id_of: Dict[str, int] = {}
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
        # consume_selected) for span-hooked passes, (slot, None,
        # consume_columns) for per-segment ones.
        self._segment_plan: List[Tuple[int, Optional[Callable],
                                       Callable]] = []
        for slot, p in enumerate(self.passes):
            if type(p).select_span is not AnalysisPass.select_span:
                self._segment_plan.append(
                    (slot, p.select_span, p.consume_selected))
            elif (type(p).consume_columns
                    is not AnalysisPass.consume_columns):
                self._segment_plan.append((slot, None, p.consume_columns))
        #: seconds spent waiting for the next block (the decode)
        self.decode_seconds = 0.0
        #: seconds spent materializing and processing scope records
        self.scope_seconds = 0.0
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
        #: opcodes some pass listens to — outside the loop, the prefilter
        #: counts exactly these rows as skipped
        column_kinds = frozenset().union(*(p.column_kinds
                                           for p in self.passes))
        self._subscribed = frozenset(
            [op for op, (_, cbs) in self._plan.items() if cbs]
            + [op for op, kind in KIND_BY_OPCODE.items()
               if kind in column_kinds])

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
        segment (:meth:`AnalysisPass.consume_selected`, or
        :meth:`AnalysisPass.consume_columns` without the span hook).

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
            self._prepare_columnar(block)
            spec_fid = block.id_of.get(spec.function, -1)
            hits = block.loop_rows(spec_fid, spec.start_line, spec.end_line)
            if not hits:
                if first_index is None:
                    self._walk_rows(block, 0, block.count, REGION_BEFORE)
                else:
                    pending_ranges.append((block, 0, block.count))
            else:
                first_hit, last_hit = hits[0], hits[-1]
                if first_index is None:
                    self._walk_rows(block, 0, first_hit, REGION_BEFORE)
                    first_index = block.base_index + first_hit
                    first_dyn = int(block.dyn_id_col()[first_hit])
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
                last_dyn = int(block.dyn_id_col()[last_hit])
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

    def _prepare_columnar(self, block) -> None:
        """Build the per-trace columnar tables (id-keyed prefilter sets).

        Keyed on the block's string-table identity: one build per trace,
        re-entered for free on every subsequent block.
        """
        key = id(block.strings)
        if self._col_tables_key == key:
            return
        self._col_tables_key = key
        self._col_id_of = block.id_of
        if self._prefilter_skip is None:
            return
        always = self._prefilter_always
        subscribed = self._subscribed
        #: opcodes counted as skipped with one membership test
        count_set = frozenset(op for op in subscribed if op in always)
        #: opcodes needing the per-record memory decision
        mem_set = frozenset(op for op in subscribed
                            if op not in always
                            and KIND_BY_OPCODE[op] not in _SCOPE_KINDS)
        self._col_count_set = count_set
        self._col_mem_set = mem_set
        if _np is not None:
            count_lut = _np.zeros(_MAX_OPCODE + 1, dtype=_np.int64)
            mem_lut = _np.zeros(_MAX_OPCODE + 1, dtype=bool)
            for op in count_set:
                count_lut[op] = 1
            for op in mem_set:
                mem_lut[op] = True
            self._col_count_lut = count_lut
            self._col_mem_lut = mem_lut
        # Structured filters (repro.static.prefilter.StaticPrefilter shape)
        # expose their raw tables; translating them to string-table ids
        # turns the per-record decision into two list loads and a frozenset
        # probe.  Anything else falls back to materializing the candidate
        # records for its should_skip closure.
        prefilter = self._prefilter_obj
        registers = getattr(prefilter, "skip_registers", None)
        names = getattr(prefilter, "skip_names", None)
        spec_function = getattr(prefilter, "spec_function", None)
        include = getattr(prefilter, "include_global_accesses_in_calls", None)
        self._col_structured = (
            registers is not None and names is not None
            and spec_function is not None and include is not None
            and mem_set <= _COLUMNAR_POINTER_OPERAND.keys())
        if self._col_structured:
            id_of = block.id_of
            self._col_spec_fid = id_of.get(spec_function, -1)
            self._col_include = include
            self._col_reg_ids = {
                id_of[fn]: frozenset(
                    id_of[n] for n in table if n in id_of)
                for fn, table in registers.items() if fn in id_of}
            self._col_name_ids = {
                id_of[fn]: frozenset(
                    id_of[n] for n in table if n in id_of)
                for fn, table in names.items() if fn in id_of}

    def _break_rows(self, block, lo: int, hi: int):
        """Rows in ``[lo, hi)`` the walk must materialize individually:
        scope opcodes (engine actions) and unknown opcodes (loud failure
        through :meth:`_process`), as a list and — when the block has
        numpy mirrors — the same rows as an array (else None)."""
        if _np is not None and block.np_opcode is not None:
            ops = block.np_opcode[lo:hi]
            clipped = _np.clip(ops, 0, _MAX_OPCODE)
            mask = _NP_BREAK_LUT[clipped] | (clipped != ops)
            rows = _np.flatnonzero(mask)
            rows += lo
            return rows.tolist(), rows
        opcode = block.opcode
        nonbreak = _NONBREAK_OPCODES
        return [row for row in range(lo, hi)
                if opcode[row] not in nonbreak], None

    def _walk_rows(self, block, lo: int, hi: int, region: int) -> None:
        """Walk rows ``[lo, hi)`` of one block in a single known region,
        span by span."""
        for span_lo in range(lo, hi, _SPAN_ROWS):
            self._walk_span(block, span_lo, min(span_lo + _SPAN_ROWS, hi),
                            region)

    def _walk_span(self, block, lo: int, hi: int, region: int) -> None:
        """Walk span ``[lo, hi)``: every span-hooked pass selects its rows
        of the whole span first, each segment then hands every pass its
        slice, and the span's selections are dropped on return."""
        breaks, np_breaks = self._break_rows(block, lo, hi)
        spent = self.pass_seconds
        plan = []
        for slot, select, consume in self._segment_plan:
            if select is None:
                plan.append((slot, consume, None))
                continue
            started = _clock()
            selection = select(block, lo, hi, region)
            if selection is not None and len(selection):
                selection.cut(breaks, np_breaks)
                plan.append((slot, consume, selection))
            spent[slot] += _clock() - started
        record_of = block.record
        process = self._process
        segment_lo = lo
        for segment, row in enumerate(breaks):
            if segment_lo < row:
                self._dispatch_segment(block, segment_lo, row, region, plan,
                                       segment)
            started = _clock()
            process(record_of(row), region)
            self.scope_seconds += _clock() - started
            segment_lo = row + 1
        if segment_lo < hi:
            self._dispatch_segment(block, segment_lo, hi, region, plan,
                                   len(breaks))

    def _dispatch_segment(self, block, lo: int, hi: int, region: int,
                          plan: List[Tuple], segment: int) -> None:
        """Dispatch segment ``[lo, hi)`` — the span's ``segment``-th — to
        every pass, in pass order."""
        # The record after a Call resolves the activation lookahead; inside
        # a segment that can only be the first row (Calls break segments).
        pending = self._pending_activation
        if pending is not None:
            self._pending_activation = None
            if block.function_id[lo] == self._col_id_of.get(pending, -1):
                self.varmap.enter_scope(pending)
                for callback in self._activation_callbacks:
                    callback(pending, region)
        rows: Optional[List[int]] = None
        keep = None
        if self._prefilter_skip is not None and region != REGION_INSIDE:
            rows, skipped = self._columnar_survivors(block, lo, hi, region)
            self.skipped_records += skipped
            if not rows:
                return
            keep = frozenset(rows)
        spent = self.pass_seconds
        last = _clock()
        for slot, consume, selection in plan:
            if selection is None:
                consume(block, lo, hi, region, rows)
            else:
                selected = (selection.take(segment) if keep is None
                            else selection.take_kept(segment, keep))
                if selected:
                    consume(block, region, selected)
            now = _clock()
            spent[slot] += now - last
            last = now

    def _columnar_survivors(self, block, lo: int, hi: int,
                            region: int) -> Tuple[List[int], int]:
        """Prefilter one outside-loop segment: (surviving rows, skipped).

        Rows whose opcode is always-skippable *and* subscribed count as
        skipped in bulk; memory rows go through the structured id-table
        decision (or the filter's own closure over materialized records
        for non-structured filters); rows no pass subscribed to contribute
        nothing.
        """
        skipped = 0
        if _np is not None and block.np_opcode is not None:
            ops = block.np_opcode[lo:hi]
            skipped = int(self._col_count_lut[ops].sum())
            memory_rows = (_np.flatnonzero(self._col_mem_lut[ops])
                           + lo).tolist()
        else:
            count_set = self._col_count_set
            mem_set = self._col_mem_set
            opcode = block.opcode
            memory_rows = []
            for row in range(lo, hi):
                op = opcode[row]
                if op in count_set:
                    skipped += 1
                elif op in mem_set:
                    memory_rows.append(row)
        if not memory_rows:
            return memory_rows, skipped
        survivors: List[int] = []
        keep = survivors.append
        if not self._col_structured:
            skip = self._prefilter_skip
            record_of = block.record
            for row in memory_rows:
                if skip(record_of(row), region):
                    skipped += 1
                else:
                    keep(row)
            return survivors, skipped
        opcode = block.opcode
        function_id = block.function_id
        op_start = block.op_start
        has_result = block.has_result
        op_flags = block.op_flags
        op_name_id = block.op_name_id
        pointer_operand = _COLUMNAR_POINTER_OPERAND
        spec_fid = self._col_spec_fid
        include = self._col_include
        registers_get = self._col_reg_ids.get
        names_get = self._col_name_ids.get
        before = region == REGION_BEFORE
        gep = _GEP_OPCODE
        for row in memory_rows:
            op = opcode[row]
            fid = function_id[row]
            if before:
                if fid != spec_fid and not include:
                    skipped += 1
                    continue
            elif op == gep:
                skipped += 1
                continue
            operand_index = pointer_operand[op]
            start = op_start[row]
            if op_start[row + 1] - start - has_result[row] > operand_index:
                slot = start + operand_index
                table = (registers_get(fid) if op_flags[slot] & 1
                         else names_get(fid))
                if table is not None and op_name_id[slot] in table:
                    skipped += 1
                    continue
            keep(row)
        return survivors, skipped

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
        if callbacks:
            skip = self._prefilter_skip
            if skip is None or region == REGION_INSIDE:
                for callback in callbacks:
                    callback(record, region)
            elif (record.opcode in self._prefilter_always
                    or skip(record, region)):
                self.skipped_records += 1
            else:
                for callback in callbacks:
                    callback(record, region)
        if action == _ACT_CALL and record.callee:
            self._pending_activation = record.callee

    def _emit_region(self, region: int) -> None:
        for callback in self._region_callbacks:
            callback(region)
