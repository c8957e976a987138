"""Data dependency analysis: building the complete DDG.

Implements Sec. IV-B of the paper.  The analysis *selectively* inspects the
dynamic instructions of the main computation loop's dynamic extent and
maintains:

* the **reg-var map** — updated by ``Load``/``Store`` and by the pointer
  assignments of ``GetElementPtr``/``BitCast`` (paper Table I);
* the **reg-reg map** — updated by arithmetic instructions and by
  single-``Call`` records (the Fig. 6a case);
* the **complete DDG** — variable and register vertices with "depends on"
  edges; variable vertices gain their incoming edges when ``Store``
  instructions terminate computations, and function calls with a traced body
  (the Fig. 6b case) connect arguments to parameters through the recorded
  argument/parameter correlation.

Every memory access is attributed to its owning variable by address-interval
lookup (:class:`repro.core.varmap.VariableMap`), which is how the analysis
distinguishes MLI variables from same-named locals (Challenge 2) and follows
data through pointer parameters.

The walk itself is hosted by :class:`repro.core.engine.AnalysisEngine`:
:class:`DependencyPass` reads the segments of data-carrying record kinds
straight off the decoded columns and subscribes to the engine's call/ret
scope events, which keep the attribution honest across calls:

* the engine opens an allocation scope when a traced ``Call``'s body follows
  and retires the callee's Allocas on its ``Ret`` — a dead frame can never
  absorb later accesses to reused stack addresses;
* argument/parameter correlations are kept on a **per-callee binding
  stack** (pushed on activation, popped on return), so recursive or
  repeated calls to the same callee cannot clobber each other's bindings.

The pass shares the engine's live map with every other stage and decides
MLI node kinds from the live before/inside variable sets of the
MLI-collection pass (finalized after the walk, since a variable's
qualifying access can come later in the stream).  When the main loop lives
in a *called* function, the shared map can attribute a pointer access to
the live ancestor frame's actual variable; the MLI/critical classification
is unaffected (MLI candidacy is filtered to globals and loop-function
locals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.ddg import DDG, NodeKind
from repro.core.engine import (
    KIND_ARITHMETIC,
    KIND_BY_OPCODE,
    KIND_FORWARDING,
    KIND_GEP,
    KIND_LOAD,
    KIND_OTHER,
    KIND_STORE,
    REGION_INSIDE,
    AnalysisPass,
    SpanSelection,
)
from repro.core.regmaps import RegRegMap, RegVarMap
from repro.core.varmap import VariableInfo, VariableMap
from repro.trace.records import TraceRecord

try:  # numpy accelerates the span selection; loops otherwise
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the list fallback
    _np = None


#: the record kinds the dependency walk dispatches on
_DISPATCH_KINDS = (KIND_LOAD, KIND_STORE, KIND_GEP, KIND_FORWARDING,
                   KIND_ARITHMETIC)

#: raw opcode -> record kind for the opcodes the walk dispatches on; scope
#: and unknown opcodes are absent (they break segments and reach the
#: engine's scope processing instead)
_KIND_OF_OPCODE = {op: kind for op, kind in KIND_BY_OPCODE.items()
                   if kind in _DISPATCH_KINDS}

#: one past the largest opcode: a span's opcodes clip into
#: ``[0, _CLIP_OPCODE]`` before indexing the numpy kind table, so an
#: unknown opcode past the table's end or below zero selects nothing
#: (the engine fails on it) instead of raising or wrapping around
_CLIP_OPCODE = max(KIND_BY_OPCODE) + 1

#: the same mapping as a numpy gather table (KIND_OTHER elsewhere)
_KIND_NP = None
if _np is not None:
    _KIND_NP = _np.full(_CLIP_OPCODE + 1, KIND_OTHER, dtype=_np.int8)
    for _op, _kind in _KIND_OF_OPCODE.items():
        _KIND_NP[_op] = _kind
    del _op, _kind


def _select_dispatch_rows(block, lo: int, hi: int) -> SpanSelection:
    """The rows of span ``[lo, hi)`` the dependency walk dispatches on.

    Each row's fields are ``(kind, lo_slot, hi_slot, has_result,
    function_id, packed)``, where ``packed`` is the ``function_id << 32 |
    result_name_id`` register-cache key — garbage when the row has no
    result slot (every consumer checks ``has_result`` before using it).
    With the block's numpy mirrors the header fields of the whole span
    gather in a handful of vector ops into one ``(6, rows)`` int64 array;
    without them (the numpy-free path, or a block from the pure-Python
    scan) they are tuples built row by row.
    """
    np_opcode = block.np_opcode
    op_name_np = block.np_op_name_id
    if (_KIND_NP is None or np_opcode is None or op_name_np is None
            or block.np_op_start is None or not op_name_np.size):
        kind_of = _KIND_OF_OPCODE.get
        opcode = block.opcode
        op_start = block.op_start
        has_result = block.has_result
        function_id = block.function_id
        op_name_id = block.op_name_id
        rows = []
        fields = []
        for row in range(lo, hi):
            kind = kind_of(opcode[row])
            if kind is None:
                continue
            lo_slot = op_start[row]
            hi_slot = op_start[row + 1]
            fid = function_id[row]
            packed = (fid << 32 | op_name_id[hi_slot - 1] if hi_slot > lo_slot
                      else fid << 32)
            rows.append(row)
            fields.append((kind, lo_slot, hi_slot, has_result[row], fid,
                           packed))
        return SpanSelection(rows, fields)
    kinds = _KIND_NP[_np.clip(np_opcode[lo:hi], 0, _CLIP_OPCODE)]
    rows = _np.flatnonzero(kinds != KIND_OTHER)
    # Filled field by field: one (6, rows) array and one field-sized
    # temporary at a time, not six field arrays plus their stack.
    fields = _np.empty((6, len(rows)), dtype=_np.int64)
    fields[0] = kinds[rows]
    rows += lo
    op_start = block.np_op_start
    fields[1] = op_start[rows]
    fields[2] = op_start[rows + 1]
    fields[3] = block.np_has_result[rows]
    fields[4] = block.np_function_id[rows]
    _np.left_shift(fields[4], 32, out=fields[5])
    fields[5] |= op_name_np[fields[2] - 1]
    return SpanSelection(rows, fields)


#: memo-miss sentinel (``None`` is a valid resolution outcome)
_MISS = object()


@dataclass
class DependencyResult:
    """Artefacts produced by the dependency analysis."""

    complete_ddg: DDG
    reg_var_map: RegVarMap
    reg_reg_map: RegRegMap
    variable_map: VariableMap
    #: last binding observed per (callee, parameter) — reporting view of the
    #: per-activation binding stacks the analysis maintains internally
    param_bindings: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: number of records actually inspected (the "selective" subset)
    inspected_records: int = 0


class DependencyPass(AnalysisPass):
    """Engine pass building the complete DDG over the inside region.

    ``before_vars``/``inside_vars`` are the *live* collection dicts of a
    :class:`~repro.core.preprocessing.MLICollectionPass` registered ahead
    of this pass on the same engine.  A node is provisionally MLI when its
    key is in both sets at creation time; :meth:`finalize` re-labels the
    nodes whose membership was only proven later in the stream.
    """

    column_kinds = frozenset((KIND_LOAD, KIND_STORE, KIND_GEP,
                              KIND_FORWARDING, KIND_ARITHMETIC))

    def __init__(self, varmap: VariableMap,
                 before_vars: Optional[Dict[str, VariableInfo]] = None,
                 inside_vars: Optional[Dict[str, VariableInfo]] = None) -> None:
        self.varmap = varmap
        self._before_vars = before_vars if before_vars is not None else {}
        self._inside_vars = inside_vars if inside_vars is not None else {}
        self.ddg = DDG()
        self.reg_var = RegVarMap()
        self.reg_reg = RegRegMap()
        self.param_bindings: Dict[Tuple[str, str], str] = {}
        #: callee name -> stack of per-activation {parameter: source key}
        #: frames; the innermost frame is the one lookups must see, so
        #: recursion cannot clobber an outer activation's bindings.  A frame
        #: entry may be None: the parameter is explicitly *unbound* for that
        #: activation (non-register argument) and must not leak a previous
        #: activation's binding.
        self._binding_stacks: Dict[str, List[Dict[str, Optional[str]]]] = {}
        #: (callee, frame) computed from the latest Call record; consumed by
        #: :meth:`on_activation` when the engine proves a traced body follows.
        self._pending_frame: Optional[Tuple[str, Dict[str, Optional[str]]]] = None
        self._inspected = 0
        #: columnar caches — ``function id << 32 | name id`` -> register
        #: node key, guarded by the owning string table's identity, plus
        #: the variable node keys already created through the columnar path
        self._col_strings_key: Optional[int] = None
        self._col_reg_keys: Dict[int, str] = {}
        self._col_var_seen: Set[str] = set()
        #: edges already inserted through the columnar path — ``add_edge``
        #: is idempotent set insertion and nothing removes edges during the
        #: walk, so eliding the repeat call is exact
        self._col_edge_seen: Set[Tuple[str, str]] = set()
        #: reg-reg links already inserted the same way (packed result key
        #: followed by the operand name ids; :meth:`RegRegMap.link` is
        #: likewise add-only set insertion) — id-based, so it resets with
        #: the string table alongside ``_col_reg_keys``
        self._col_link_seen: Set[Tuple[int, ...]] = set()
        #: address -> resolution memo, valid while the live map's revision
        #: is unchanged (scope records between segments may mutate it; the
        #: revision check at segment entry catches exactly those)
        self._col_memo: Dict = {}
        self._col_memo_rev = -1

    # ------------------------------------------------------------------ #
    # Node helpers
    # ------------------------------------------------------------------ #
    def _register_node(self, function: str, register: str) -> str:
        key = f"{function}%{register}"
        self.ddg.add_node(key, NodeKind.REGISTER, label=f"{function}:%{register}")
        return key

    def _variable_node(self, key: str, name: str) -> str:
        is_mli = key in self._before_vars and key in self._inside_vars
        self.ddg.add_node(key, NodeKind.MLI if is_mli else NodeKind.LOCAL,
                          label=name)
        return key

    def _address_node(self, address: int) -> Optional[str]:
        """The variable node owning ``address`` in the live map, if any."""
        info = self.varmap.resolve(address)
        if info is None:
            return None
        return self._variable_node(info.key, info.name)

    def _lookup_binding(self, function: str, name: str) -> Optional[str]:
        """The innermost activation's binding for parameter ``name``.

        If the innermost frame knows the parameter, its value is
        authoritative — including an explicit None (unbound for this
        activation; a previous activation's binding must not leak in).  The
        flat last-binding view is only consulted when no frame knows the
        name, e.g. for regions that begin mid-activation where no ``Call``
        record was seen for the open frame.
        """
        frames = self._binding_stacks.get(function)
        if frames and name in frames[-1]:
            return frames[-1][name]
        return self.param_bindings.get((function, name))

    def _resolve_memref(self, function: str, name: str) -> Optional[str]:
        """Variable node key for a memory operand the live map did not
        attribute: the binding stacks first, then a function-local named
        vertex."""
        binding = self._lookup_binding(function, name)
        if binding is not None:
            return binding
        if name:
            key = f"{function}:{name}"
            self.ddg.add_node(key, NodeKind.LOCAL, label=name)
            return key
        return None

    # ------------------------------------------------------------------ #
    # Scope records
    # ------------------------------------------------------------------ #
    def on_alloca(self, record: TraceRecord, region: int) -> None:
        # Registration happens in the engine (shared map); the pass only
        # keeps the "selective iteration" statistic faithful.
        if region == REGION_INSIDE:
            self._inspected += 1

    def on_call(self, record: TraceRecord, region: int) -> None:
        if region != REGION_INSIDE:
            return
        self._inspected += 1
        function = record.function
        params = record.parameter_operands()
        args = record.argument_operands()
        frame: Dict[str, Optional[str]] = {}
        if not params:
            # Single-Call form (builtin / external, Fig. 6a): behave like an
            # arithmetic instruction over the argument registers.  It may
            # still be a zero-parameter *user* function whose body follows —
            # the engine's activation detection on the next record decides.
            if record.result is not None:
                result_name = record.result.name
                arg_registers = [op.name for op in args if op.is_register]
                result_key = self._register_node(function, result_name)
                for name in arg_registers:
                    self.ddg.add_edge(self._register_node(function, name),
                                      result_key)
                self.reg_reg.link(function, result_name, arg_registers)
        else:
            # Call followed by its body (Fig. 6b): record the argument/
            # parameter correlation so the callee's parameter accesses
            # connect back to the caller's variables.  Every parameter gets
            # a frame entry — None marks it explicitly unbound for this
            # activation.
            for position, param in enumerate(params):
                source_key: Optional[str] = None
                if position < len(args) and args[position].is_register:
                    arg = args[position]
                    source_key = self.reg_var.lookup(function, arg.name)
                    if source_key is None and arg.address is not None:
                        # The register holds a pointer — attribute it by
                        # address.
                        source_key = self._address_node(arg.address)
                    if source_key is None:
                        source_key = self._register_node(function, arg.name)
                frame[param.name] = source_key
                if source_key is not None:
                    self.param_bindings[(record.callee, param.name)] = \
                        source_key
        if record.callee:
            self._pending_frame = (record.callee, frame)

    def on_activation(self, callee: str, region: int) -> None:
        if region != REGION_INSIDE:
            return
        pending = self._pending_frame
        self._pending_frame = None
        frame: Dict[str, Optional[str]] = {}
        if pending is not None and pending[0] == callee:
            frame = pending[1]
        self._binding_stacks.setdefault(callee, []).append(frame)

    def on_return(self, record: TraceRecord, region: int) -> None:
        # Returns carry no data dependencies (not counted as "inspected"),
        # but they close the callee's activation: the engine has already
        # retired its Allocas; pop its parameter-binding frame here.
        if region != REGION_INSIDE:
            return
        frames = self._binding_stacks.get(record.function)
        if frames:
            frames.pop()

    # ------------------------------------------------------------------ #
    # Segments
    # ------------------------------------------------------------------ #
    def select_span(self, block, lo: int, hi: int,
                    region: int) -> Optional[SpanSelection]:
        """Every data-carrying row of the span, inside the loop only."""
        if region != REGION_INSIDE:
            return None
        return _select_dispatch_rows(block, lo, hi)

    def consume_selected(self, block, region: int, selected) -> None:
        """Build the DDG from one segment, straight off the columns.

        ``selected`` yields the segment's pre-gathered dispatch fields
        (:func:`_select_dispatch_rows`).  Three costs are lifted out of the
        row loop:

        * register node keys cache per ``(function id, name id)`` pair
          (key strings and ``add_node`` probes are paid once per register,
          not once per record; node creation is first-wins, so skipping the
          re-add is exact);
        * variable nodes already created through this path skip the re-add
          the same way (``finalize`` settles MLI kinds regardless);
        * address resolutions memoize for the duration of the segment —
          scope records break segments, so the live map cannot change under
          the memo.
        """
        strings = block.strings
        op_flags = block.op_flags
        op_name_id = block.op_name_id
        op_address = block.op_address
        resolve = self.varmap.resolve
        add_node = self.ddg.add_node
        add_edge = self.ddg.add_edge
        reg_entries = self.reg_var.entries
        reg_lookup = self.reg_var.lookup
        reg_link = self.reg_reg.link
        variable_node = self._variable_node
        resolve_memref = self._resolve_memref
        if self._col_strings_key != id(strings):
            self._col_strings_key = id(strings)
            self._col_reg_keys = {}
            self._col_link_seen = set()
        reg_keys = self._col_reg_keys
        reg_keys_get = reg_keys.get
        var_seen = self._col_var_seen
        var_seen_add = var_seen.add
        edge_seen = self._col_edge_seen
        edge_seen_add = edge_seen.add
        link_seen = self._col_link_seen
        link_seen_add = link_seen.add
        register_kind = NodeKind.REGISTER
        memo = self._col_memo
        if self._col_memo_rev != self.varmap.revision:
            self._col_memo_rev = self.varmap.revision
            memo.clear()
        memo_get = memo.get
        miss = _MISS
        inspected = 0
        for kind, lo_slot, hi_slot, result, fid, packed in selected:
            inspected += 1
            n_ops = hi_slot - lo_slot - result
            if kind == KIND_LOAD:
                if not n_ops or not result:
                    continue
                function = strings[fid]
                address = op_address[lo_slot]
                info = memo_get(address, miss)
                if info is miss:
                    info = resolve(address)
                    memo[address] = info
                if info is not None:
                    var_key = info.key
                    if var_key not in var_seen:
                        variable_node(var_key, info.name)
                        var_seen_add(var_key)
                else:
                    var_key = resolve_memref(
                        function, strings[op_name_id[lo_slot]])
                    if var_key is None:
                        continue
                result_id = packed & 0xFFFFFFFF
                result_name = strings[result_id]
                result_key = reg_keys_get(packed)
                if result_key is None:
                    result_key = f"{function}%{result_name}"
                    add_node(result_key, register_kind,
                             f"{function}:%{result_name}")
                    reg_keys[packed] = result_key
                edge = (var_key, result_key)
                if edge not in edge_seen:
                    add_edge(var_key, result_key)
                    edge_seen_add(edge)
                reg_entries[(function, result_name)] = var_key
            elif kind == KIND_ARITHMETIC:
                if not result:
                    continue
                function = strings[fid]
                result_id = packed & 0xFFFFFFFF
                result_key = reg_keys_get(packed)
                if result_key is None:
                    result_name = strings[result_id]
                    result_key = f"{function}%{result_name}"
                    add_node(result_key, register_kind,
                             f"{function}:%{result_name}")
                    reg_keys[packed] = result_key
                input_ids = []
                for slot in range(lo_slot, lo_slot + n_ops):
                    if op_flags[slot] & 1:
                        name_id = op_name_id[slot]
                        packed_in = fid << 32 | name_id
                        reg_key = reg_keys_get(packed_in)
                        if reg_key is None:
                            name = strings[name_id]
                            reg_key = f"{function}%{name}"
                            add_node(reg_key, register_kind,
                                     f"{function}:%{name}")
                            reg_keys[packed_in] = reg_key
                        edge = (reg_key, result_key)
                        if edge not in edge_seen:
                            add_edge(reg_key, result_key)
                            edge_seen_add(edge)
                        input_ids.append(name_id)
                link_key = (packed, *input_ids)
                if link_key not in link_seen:
                    reg_link(function, strings[result_id],
                             [strings[i] for i in input_ids])
                    link_seen_add(link_key)
            elif kind == KIND_STORE:
                if n_ops < 2:
                    continue
                function = strings[fid]
                address = op_address[lo_slot + 1]
                info = memo_get(address, miss)
                if info is miss:
                    info = resolve(address)
                    memo[address] = info
                if info is not None:
                    var_key = info.key
                    if var_key not in var_seen:
                        variable_node(var_key, info.name)
                        var_seen_add(var_key)
                else:
                    var_key = resolve_memref(
                        function, strings[op_name_id[lo_slot + 1]])
                    if var_key is None:
                        continue
                if op_flags[lo_slot] & 1:
                    value_id = op_name_id[lo_slot]
                    value_name = strings[value_id]
                    packed = fid << 32 | value_id
                    reg_key = reg_keys_get(packed)
                    if reg_key is None:
                        reg_key = f"{function}%{value_name}"
                        add_node(reg_key, register_kind,
                                 f"{function}:%{value_name}")
                        reg_keys[packed] = reg_key
                    edge = (reg_key, var_key)
                    if edge not in edge_seen:
                        add_edge(reg_key, var_key)
                        edge_seen_add(edge)
                    reg_entries[(function, value_name)] = var_key
                else:
                    value_name = strings[op_name_id[lo_slot]]
                    if value_name:
                        binding = self._lookup_binding(function, value_name)
                        if binding is not None:
                            edge = (binding, var_key)
                            if edge not in edge_seen:
                                add_edge(binding, var_key)
                                edge_seen_add(edge)
            elif kind == KIND_GEP:
                if not result:
                    continue
                function = strings[fid]
                result_id = packed & 0xFFFFFFFF
                result_name = strings[result_id]
                result_key = reg_keys_get(packed)
                if result_key is None:
                    result_key = f"{function}%{result_name}"
                    add_node(result_key, register_kind,
                             f"{function}:%{result_name}")
                    reg_keys[packed] = result_key
                if n_ops:
                    address = op_address[lo_slot]
                    info = memo_get(address, miss)
                    if info is miss:
                        info = resolve(address)
                        memo[address] = info
                    if info is not None:
                        var_key = info.key
                        if var_key not in var_seen:
                            variable_node(var_key, info.name)
                            var_seen_add(var_key)
                    else:
                        var_key = resolve_memref(
                            function, strings[op_name_id[lo_slot]])
                    if var_key is not None:
                        reg_entries[(function, result_name)] = var_key
                for slot in range(lo_slot + 1, lo_slot + n_ops):
                    if op_flags[slot] & 1:
                        name_id = op_name_id[slot]
                        packed_in = fid << 32 | name_id
                        reg_key = reg_keys_get(packed_in)
                        if reg_key is None:
                            name = strings[name_id]
                            reg_key = f"{function}%{name}"
                            add_node(reg_key, register_kind,
                                     f"{function}:%{name}")
                            reg_keys[packed_in] = reg_key
                        edge = (reg_key, result_key)
                        if edge not in edge_seen:
                            add_edge(reg_key, result_key)
                            edge_seen_add(edge)
            elif kind == KIND_FORWARDING:
                if not result:
                    continue
                function = strings[fid]
                result_id = packed & 0xFFFFFFFF
                result_name = strings[result_id]
                result_key = reg_keys_get(packed)
                if result_key is None:
                    result_key = f"{function}%{result_name}"
                    add_node(result_key, register_kind,
                             f"{function}:%{result_name}")
                    reg_keys[packed] = result_key
                for slot in range(lo_slot, lo_slot + n_ops):
                    if op_flags[slot] & 1:
                        name_id = op_name_id[slot]
                        name = strings[name_id]
                        packed_in = fid << 32 | name_id
                        reg_key = reg_keys_get(packed_in)
                        if reg_key is None:
                            reg_key = f"{function}%{name}"
                            add_node(reg_key, register_kind,
                                     f"{function}:%{name}")
                            reg_keys[packed_in] = reg_key
                        edge = (reg_key, result_key)
                        if edge not in edge_seen:
                            add_edge(reg_key, result_key)
                            edge_seen_add(edge)
                        source = reg_lookup(function, name)
                        if source is None:
                            fallback = op_address[slot]
                            if fallback is not None:
                                info = memo_get(fallback, miss)
                                if info is miss:
                                    info = resolve(fallback)
                                    memo[fallback] = info
                                if info is not None:
                                    source = info.key
                                    if source not in var_seen:
                                        variable_node(source, info.name)
                                        var_seen_add(source)
                        if source is not None:
                            reg_entries[(function, result_name)] = source
                        link_key = (packed, name_id)
                        if link_key not in link_seen:
                            reg_link(function, result_name, [name])
                            link_seen_add(link_key)
        self._inspected += inspected

    def finalize(self) -> None:
        # A node created before its owner's MLI membership was proven (the
        # qualifying loop access came later) carries a stale LOCAL kind; the
        # final before/inside intersection is now known.
        for key in self._before_vars:
            if key in self._inside_vars:
                self.ddg.set_node_kind(key, NodeKind.MLI)

    def result(self) -> DependencyResult:
        return DependencyResult(
            complete_ddg=self.ddg,
            reg_var_map=self.reg_var,
            reg_reg_map=self.reg_reg,
            variable_map=self.varmap,
            param_bindings=self.param_bindings,
            inspected_records=self._inspected,
        )
