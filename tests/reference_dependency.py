"""The dependency pass's per-row walk, kept as the reference.

:class:`ReferenceDependencyPass` is the row loop that built the complete
DDG before :class:`repro.core.dependency.DependencyPass` computed each
span's effects in vector ops: it consumes every data-carrying row of a
segment one Python row at a time, in stream order, and creates each node
at its first touch.  ``test_dependency_reference.py`` walks both passes
over the same blocks and requires equal results.  ``on_call`` takes the
row of its record, as the engine now passes it, and ignores it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.ddg import DDG, NodeKind
from repro.core.dependency import DependencyResult
from repro.core.engine import (
    KIND_ARITHMETIC,
    KIND_FORWARDING,
    KIND_GEP,
    KIND_LOAD,
    KIND_OTHER,
    KIND_STORE,
    REGION_INSIDE,
    AccessTable,
    AnalysisPass,
    SpanSelection,
)
from repro.core.varmap import VariableMap
from repro.trace.records import TraceRecord


def _select_dispatch_rows(table: AccessTable) -> SpanSelection:
    """The rows of ``table``'s span the dependency walk dispatches on: the
    data-carrying kinds (Load, Store, GEP, forwarding and arithmetic).

    Each row's fields are ``(kind, lo_slot, hi_slot, has_result,
    function_id, packed, access)``, where ``packed`` is the ``function_id
    << 32 | result_name_id`` register-cache key — garbage when the row has
    no result slot (every consumer checks ``has_result`` before using it)
    — and ``access`` the row's index in the span's access table
    (meaningful for Load / Store / GEP rows only).  The header fields of
    the whole span gather from the block's columns in a handful of vector
    ops into one ``(7, rows)`` int64 array.
    """
    kinds = table.kinds
    rows = np.flatnonzero(kinds < KIND_OTHER)
    # Filled field by field: one (7, rows) array and one field-sized
    # temporary at a time, not seven field arrays plus their stack.
    fields = np.empty((7, len(rows)), dtype=np.int64)
    fields[0] = kinds[rows]
    rows += table.lo
    block = table.block
    op_start = block.op_start
    fields[1] = op_start[rows]
    fields[2] = op_start[rows + 1]
    fields[3] = block.has_result[rows]
    fields[4] = block.function_id[rows]
    np.left_shift(fields[4], 32, out=fields[5])
    op_name_id = block.op_name_id
    if op_name_id.size:  # a block without any operand slot has no result
        fields[5] |= op_name_id[fields[2] - 1]
    fields[6] = table.rows.searchsorted(rows)
    return SpanSelection(rows, fields)


class ReferenceDependencyPass(AnalysisPass):
    """Engine pass building the complete DDG over the inside region.

    Memory operands attribute through the owners of the span's access
    table.  Variable nodes are created ``LOCAL``; call :meth:`mark_mli`
    with the MLI keys once the walk is done.
    """

    def __init__(self, varmap: VariableMap) -> None:
        self.varmap = varmap
        self.ddg = DDG()
        #: the reg-var map: ``(function, register name)`` -> variable node
        self.reg_var: Dict[Tuple[str, str], str] = {}
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
        #: the block whose operand columns ``_op_flags`` / ``_op_name_id``
        #: list (the row loop reads them element by element)
        self._block = None
        self._op_flags: List[int] = []
        self._op_name_id: List[int] = []
        #: the string table the id-keyed caches below index
        self._strings: Optional[List[str]] = None
        #: ``function id << 32 | name id`` -> register node key
        self._reg_keys: Dict[int, str] = {}
        #: edges already inserted by the row loop — ``add_edge`` is
        #: idempotent set insertion and nothing removes edges during the
        #: walk, so eliding the repeat call is exact
        self._edge_seen: Set[Tuple[str, str]] = set()
        #: owner id -> its variable node key, once the node exists
        self._owner_keys: List[Optional[str]] = []

    # ------------------------------------------------------------------ #
    # Node helpers
    # ------------------------------------------------------------------ #
    def _register_node(self, function: str, register: str) -> str:
        key = f"{function}%{register}"
        self.ddg.add_node(key, NodeKind.REGISTER, label=f"{function}:%{register}")
        return key

    def _new_register_key(self, packed: int) -> str:
        """The register node ``packed`` (``function id << 32 | name id``
        in ``_strings``) names, created and cached on its first use."""
        strings = self._strings
        key = self._reg_keys[packed] = self._register_node(
            strings[packed >> 32], strings[packed & 0xFFFFFFFF])
        return key

    def _variable_node(self, key: str, name: str) -> str:
        self.ddg.add_node(key, NodeKind.LOCAL, label=name)
        return key

    def _new_owner_key(self, owner: int) -> str:
        """The variable node of owner id ``owner``, created and cached on
        its first use."""
        info = self.varmap.registrations[owner]
        key = self._owner_keys[owner] = self._variable_node(info.key,
                                                            info.name)
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
            return self._variable_node(f"{function}:{name}", name)
        return None

    # ------------------------------------------------------------------ #
    # Scope records
    # ------------------------------------------------------------------ #
    def on_alloca(self, record: TraceRecord, region: int) -> None:
        # Registration happens in the engine (shared map); the pass only
        # keeps the "selective iteration" statistic faithful.
        if region == REGION_INSIDE:
            self._inspected += 1

    def on_call(self, record: TraceRecord, region: int,
                row: int) -> None:
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
                result_key = self._register_node(function,
                                                 record.result.name)
                for op in args:
                    if op.is_register:
                        self.ddg.add_edge(
                            self._register_node(function, op.name),
                            result_key)
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
                    source_key = self.reg_var.get((function, arg.name))
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
    # Spans
    # ------------------------------------------------------------------ #
    def select_span(self, table: AccessTable,
                    region: int) -> Optional[SpanSelection]:
        """Every data-carrying row of the span, inside the loop only."""
        if region != REGION_INSIDE:
            return None
        block = table.block
        if block is not self._block:
            self._block = block
            self._op_flags = block.op_flags.tolist()
            self._op_name_id = block.op_name_id.tolist()
            if block.strings is not self._strings:
                self._strings = block.strings
                self._reg_keys = {}
        return _select_dispatch_rows(table)

    def consume_selected(self, table: AccessTable, region: int,
                         selected) -> None:
        """Build the DDG from one segment, straight off the columns.

        ``selected`` yields the segment's pre-gathered dispatch fields
        (:func:`_select_dispatch_rows`).  Memory operands take their owner
        from the access table (resolved for this segment before it is
        consumed).  Three costs are lifted out of the row loop:

        * register node keys cache per ``(function id, name id)`` pair
          (key strings and ``add_node`` probes are paid once per register,
          not once per record; node creation is first-wins, so skipping the
          re-add is exact);
        * variable node keys cache per owner id the same way;
        * edges already inserted are not inserted again.

        Each kind creates its nodes in a fixed order, which the node order
        of the canonical report follows.
        """
        strings = self._strings
        op_flags = self._op_flags
        op_name_id = self._op_name_id
        op_address = table.block.op_address
        owners = table.owners
        registrations = self.varmap.registrations
        owner_keys = self._owner_keys
        if len(owner_keys) < len(registrations):
            owner_keys.extend([None] * (len(registrations) - len(owner_keys)))
        new_owner_key = self._new_owner_key
        reg_keys_get = self._reg_keys.get
        new_register_key = self._new_register_key
        add_edge = self.ddg.add_edge
        reg_entries = self.reg_var
        reg_lookup = reg_entries.get
        resolve_memref = self._resolve_memref
        edge_seen = self._edge_seen
        edge_seen_add = edge_seen.add
        inspected = 0
        for kind, lo_slot, hi_slot, result, fid, packed, access in selected:
            inspected += 1
            n_ops = hi_slot - lo_slot - result
            if kind == KIND_LOAD:
                if not n_ops or not result:
                    continue
                function = strings[fid]
                owner = owners[access]
                if owner >= 0:
                    var_key = owner_keys[owner] or new_owner_key(owner)
                else:
                    var_key = resolve_memref(
                        function, strings[op_name_id[lo_slot]])
                    if var_key is None:
                        continue
                result_key = reg_keys_get(packed) or new_register_key(packed)
                edge = (var_key, result_key)
                if edge not in edge_seen:
                    add_edge(var_key, result_key)
                    edge_seen_add(edge)
                reg_entries[(function, strings[packed & 0xFFFFFFFF])] = \
                    var_key
            elif kind == KIND_ARITHMETIC:
                if not result:
                    continue
                result_key = reg_keys_get(packed) or new_register_key(packed)
                for slot in range(lo_slot, lo_slot + n_ops):
                    if op_flags[slot] & 1:
                        packed_in = fid << 32 | op_name_id[slot]
                        reg_key = (reg_keys_get(packed_in)
                                   or new_register_key(packed_in))
                        edge = (reg_key, result_key)
                        if edge not in edge_seen:
                            add_edge(reg_key, result_key)
                            edge_seen_add(edge)
            elif kind == KIND_STORE:
                if n_ops < 2:
                    continue
                function = strings[fid]
                owner = owners[access]
                if owner >= 0:
                    var_key = owner_keys[owner] or new_owner_key(owner)
                else:
                    var_key = resolve_memref(
                        function, strings[op_name_id[lo_slot + 1]])
                    if var_key is None:
                        continue
                value_id = op_name_id[lo_slot]
                value_name = strings[value_id]
                if op_flags[lo_slot] & 1:
                    packed_in = fid << 32 | value_id
                    reg_key = (reg_keys_get(packed_in)
                               or new_register_key(packed_in))
                    edge = (reg_key, var_key)
                    if edge not in edge_seen:
                        add_edge(reg_key, var_key)
                        edge_seen_add(edge)
                    reg_entries[(function, value_name)] = var_key
                elif value_name:
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
                result_key = reg_keys_get(packed) or new_register_key(packed)
                if n_ops:
                    owner = owners[access]
                    if owner >= 0:
                        var_key = owner_keys[owner] or new_owner_key(owner)
                    else:
                        var_key = resolve_memref(
                            function, strings[op_name_id[lo_slot]])
                    if var_key is not None:
                        reg_entries[(function,
                                     strings[packed & 0xFFFFFFFF])] = var_key
                for slot in range(lo_slot + 1, lo_slot + n_ops):
                    if op_flags[slot] & 1:
                        packed_in = fid << 32 | op_name_id[slot]
                        reg_key = (reg_keys_get(packed_in)
                                   or new_register_key(packed_in))
                        edge = (reg_key, result_key)
                        if edge not in edge_seen:
                            add_edge(reg_key, result_key)
                            edge_seen_add(edge)
            elif kind == KIND_FORWARDING:
                if not result:
                    continue
                function = strings[fid]
                result_name = strings[packed & 0xFFFFFFFF]
                result_key = reg_keys_get(packed) or new_register_key(packed)
                for slot in range(lo_slot, lo_slot + n_ops):
                    if op_flags[slot] & 1:
                        name_id = op_name_id[slot]
                        packed_in = fid << 32 | name_id
                        reg_key = (reg_keys_get(packed_in)
                                   or new_register_key(packed_in))
                        edge = (reg_key, result_key)
                        if edge not in edge_seen:
                            add_edge(reg_key, result_key)
                            edge_seen_add(edge)
                        source = reg_lookup((function, strings[name_id]))
                        if source is None and op_flags[slot] & 2:
                            # No register names the operand: attribute the
                            # pointer it carries (outside the access table)
                            # through the live map, as it stands for this
                            # segment.
                            source = self._address_node(
                                int(op_address[slot]))
                        if source is not None:
                            reg_entries[(function, result_name)] = source
        self._inspected += inspected

    def finalize(self) -> None:
        # Let the walk's last block go before identify and publish run.
        self._block = None
        self._op_flags = self._op_name_id = []

    def mark_mli(self, keys: Iterable[str]) -> None:
        """Relabel the nodes of the MLI variables ``keys`` (the walk's
        before/inside intersection) as ``MLI``."""
        for key in keys:
            self.ddg.set_node_kind(key, NodeKind.MLI)

    def result(self) -> DependencyResult:
        return DependencyResult(
            complete_ddg=self.ddg,
            reg_var_map=self.reg_var,
            variable_map=self.varmap,
            param_bindings=self.param_bindings,
            inspected_records=self._inspected,
        )
