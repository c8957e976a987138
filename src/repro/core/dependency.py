"""Data dependency analysis: building the complete DDG.

Implements Sec. IV-B of the paper.  The analysis *selectively* inspects the
dynamic instructions of the main computation loop's dynamic extent and
maintains:

* the **reg-var map** (paper Fig. 5a) — a dict from ``(function,
  register name)`` to the variable node the register was loaded from or
  points into, updated in execution order by ``Load`` / ``Store`` and by
  the pointer assignments of ``GetElementPtr`` / ``BitCast`` (paper
  Table I).  Registers are keyed by function because register numbering
  restarts in every function;
* the **complete DDG** — variable and register vertices with "depends on"
  edges.  The paper's reg-reg map (Fig. 5b) is the DDG's
  register-to-register edges, added by arithmetic and forwarding
  instructions and by single-``Call`` records (the Fig. 6a case);
  variable vertices gain their incoming edges when ``Store``
  instructions terminate computations, and function calls with a traced body
  (the Fig. 6b case) connect arguments to parameters through the recorded
  argument/parameter correlation.

Every memory access is attributed to its owning variable by address-interval
lookup (:class:`repro.core.varmap.VariableMap`), which is how the analysis
distinguishes MLI variables from same-named locals (Challenge 2) and follows
data through pointer parameters.  The engine resolves each ``Load`` /
``Store`` / ``GetElementPtr`` pointer operand once, into the span's access
table (:class:`repro.core.engine.AccessTable`); the pass reads its owners
from there and resolves through the live map itself only for the rare
addresses outside the table (a forwarding operand no register names, a
call argument).

The walk is hosted by :class:`repro.core.engine.AnalysisEngine`, and
:class:`DependencyPass` takes the rows of the inside spans in two parts:

* **what a row does by its own columns, in bulk.**  A row's node touches,
  its edges and, for a ``Load`` / ``GetElementPtr`` / ``Store`` with a
  resolved owner, its reg-var write depend only on its kind, its first two
  operand slots and its owner.  A span's columns give each row's *shape*
  and register codes in one set of vector ops when the span opens; when it
  closes and every owner is final, its variables fill in, its reg-var
  writes reach the map (only the registers whose entry changed, the last
  write per register winning), and the walked spans queue up until they
  hold ``_BATCH_ROWS`` data rows.  Then one set of vector ops over the
  queued rows turns the columns into node *codes* (up to three touches per
  row, in the row's touch order) and edges, checks them against those that
  exist, and hands Python only new nodes and new edges;
* **what reads state that changes inside a span, in order.**  A forwarding
  row's register operands read the reg-var map (and may attribute their
  pointer through the live map), a ``Store`` of a named non-register value
  and a memory row without an owner read the binding stacks, and ``Call``
  / activation / ``Ret`` read or change both.  These run by the per-row
  rules at their own point in the walk (a span selection holds the rows,
  with the operand slots past the first two; owner-less rows are walked
  before the binding stacks next change).  A reg-var read sees the last
  write before it in stream order: the span's per-row writes and its bulk
  rows, whose owners are final up to the reading row, else the map.  The
  node touches, edges and writes of these rows are kept with their
  positions and join the bulk effects in row order.

A node is created at its first touch in stream order, through
:meth:`DDG.add_node`'s get-or-create by key string (so two codes that name
one key give one node), and the canonical report's node order follows.
Each row touches its nodes in a fixed order: a ``Load`` its variable, then
its result; arithmetic its result, then each register operand; a ``Store``
its variable, then its value register; a ``GetElementPtr`` its result, its
variable, then each register index; forwarding its result, then each
register operand and any variable its address falls back to.

The scope handlers keep the attribution honest across calls:

* the engine opens an allocation scope when a traced ``Call``'s body follows
  and retires the callee's Allocas on its ``Ret`` — a dead frame can never
  absorb later accesses to reused stack addresses;
* argument/parameter correlations are kept on a **per-callee binding
  stack** (pushed on activation, popped on return), so recursive or
  repeated calls to the same callee cannot clobber each other's bindings.

The pass shares the engine's live map with every other stage.  Variable
nodes are created ``LOCAL``; :meth:`DependencyPass.mark_mli` relabels the
MLI variables once the walk has proven them (a variable's qualifying access
can come late in the stream).  When the main loop lives in a *called*
function, the shared map can attribute a pointer access to the live
ancestor frame's actual variable; the MLI/critical classification is
unaffected (MLI candidacy is filtered to globals and loop-function
locals).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.ddg import DDG, NodeKind
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
from repro.core.varmap import OwnerColumn, VariableMap
from repro.trace.records import TraceRecord

#: A node *code* names a node by its columns: a register is
#: ``function id << 32 | name id`` (ids made canonical: one id per
#: string), a variable ``-2 - variable id`` (one id per variable key), and
#: ``_NO_NODE`` marks a touch a row does not make.
_NO_NODE = -1
_LOW32 = 0xFFFFFFFF
#: ends every sorted code and edge array, so a ``searchsorted`` position
#: always indexes it (no code or packed edge reaches it)
_SENTINEL = np.iinfo(np.int64).max
_POSITION = itemgetter(0, 1)
#: data rows whose nodes and edges are added at once: a span's fixed cost
#: in vector ops is paid once per this many rows, not once per span
_BATCH_ROWS = 8192


# The bulk path reads a row's effects off its *shape*: its kind, whether it
# has a result, its operand count (up to three), whether its first two
# operands are registers and whether its first operand is named.  A shape's
# plan gives the sources of its up to three touches in touch order, its
# edges between them, the register its reg-var write names (the value is
# its variable) and whether it reads its owner or takes the per-row path.
#: touch and write sources: the columns of a span's source matrix
_NONE, _VAR, _RESULT, _OP0, _OP1 = range(5)
#: the edges a row can add, as (parent touch, child touch)
_EDGE_PAIRS = ((0, 1), (1, 0), (2, 0))


def _plan(kind: int, result: int, operands: int, reg0: int, reg1: int,
          named0: int) -> Tuple[bool, bool, Tuple[int, int, int],
                                Tuple[int, ...], int]:
    """``(per_row, reads_owner, touches, edges, write)`` of a data row of
    this shape (``edges`` index :data:`_EDGE_PAIRS`).  The bulk path takes
    the touches, edges and write; ``per_row`` rows also take the per-row
    step (:meth:`DependencyPass._finish`): a forwarding row's reg-var
    reads and write, a ``Store``'s binding read, operand slots past the
    first two."""
    nothing = (False, False, (_NONE, _NONE, _NONE), (), _NONE)
    if kind == KIND_LOAD:
        if operands and result:
            return False, True, (_VAR, _RESULT, _NONE), (0,), _RESULT
        return nothing
    if kind == KIND_STORE:
        if operands < 2:
            return nothing
        if reg0:
            return False, True, (_VAR, _OP0, _NONE), (1,), _OP0
        return bool(named0), True, (_VAR, _NONE, _NONE), (), _NONE
    if not result:
        return nothing
    wide = operands > 2
    index = _OP1 if reg1 else _NONE
    if kind == KIND_GEP:
        if not operands:
            return False, False, (_RESULT, _NONE, _NONE), (), _NONE
        return (wide, True, (_RESULT, _VAR, index), (2,) if reg1 else (),
                _RESULT)
    # arithmetic and forwarding: the result, then each register operand
    per_row = wide or (kind == KIND_FORWARDING and bool(reg0 or reg1))
    return (per_row, False, (_RESULT, _OP0 if reg0 else _NONE, index),
            tuple(edge for edge, on in ((1, reg0), (2, reg1)) if on), _NONE)


#: shape = kind << 6 | result << 5 | operands << 3 | reg0 << 2 | reg1 << 1
#: | named0, for the five data kinds; ``_IDLE`` does nothing (a row whose
#: owner did not resolve: the per-row path walked it)
_IDLE = (KIND_ARITHMETIC + 1) << 6
_PLANS = [_plan(shape >> 6, shape >> 5 & 1, shape >> 3 & 3, shape >> 2 & 1,
                shape >> 1 & 1, shape & 1)
          for shape in range(_IDLE)] + [_plan(KIND_LOAD, 0, 0, 0, 0, 0)]
_PER_ROW = np.array([plan[0] for plan in _PLANS])
_READS_OWNER = np.array([plan[1] for plan in _PLANS])
#: per shape, the source of each touch (one row per touch) and whether
#: each of ``_EDGE_PAIRS`` is added (one row per pair)
_TOUCHES = np.array([plan[2] for plan in _PLANS], dtype=np.int64).T.copy()
_EDGES = np.array([[edge in plan[3] for plan in _PLANS]
                   for edge in range(len(_EDGE_PAIRS))])
_WRITE = np.array([plan[4] for plan in _PLANS], dtype=np.int64)
#: a data kind's part of the shape
_KIND_SHAPE = np.arange(KIND_ARITHMETIC + 1, dtype=np.int64) << 6
del _PLANS


@dataclass
class DependencyResult:
    """Artefacts produced by the dependency analysis."""

    complete_ddg: DDG
    #: the reg-var map as the walk left it: ``(function, register name)``
    #: -> variable node key
    reg_var_map: Dict[Tuple[str, str], str]
    variable_map: VariableMap
    #: last binding observed per (callee, parameter) — reporting view of the
    #: per-activation binding stacks the analysis maintains internally
    param_bindings: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: number of records actually inspected (the "selective" subset)
    inspected_records: int = 0


class _Columns:
    """The data rows of one span (``rows``) as columns: each row's shape,
    its sources (``sources[source]`` holds each row's :data:`_NONE` /
    :data:`_VAR` / :data:`_RESULT` / :data:`_OP0` / :data:`_OP1` code;
    the variables are filled when the span closes), its reg-var write's
    register (``write_key``, or ``_NO_NODE``) and which rows are memory
    rows (``memory``: the access table's rows, in order)."""

    __slots__ = ("rows", "shape", "sources", "write_key", "memory")

    def readers(self) -> np.ndarray:
        """Per access row: it reads its owner."""
        return _READS_OWNER[self.shape[self.memory]]


class _Span:
    """One inside span's state while it is walked.

    ``touches`` are the per-row path's node touches as ``(row, order,
    payload)``, ``edges`` its edges and ``writes`` its reg-var writes as
    ``(row, code, value)`` (``last_write`` keeps the latest per code), all
    in row order (block rows); a payload is a node code, a node key string
    (edge endpoints only) or a ``(key, kind, label)`` triple for a node no
    code names.  ``checked`` counts the access rows whose owners were
    checked for -1.  A closed span queues as ``(base, columns, touches,
    edges)``: its block's first record index (a row's position in the walk
    is ``base + row``) and what its nodes and edges are made of.
    """

    __slots__ = ("table", "base", "owners", "columns", "checked",
                 "touches", "edges", "writes", "last_write", "bulk_rows",
                 "bulk_keys", "bulk_access", "bulk_written")

    def __init__(self, table: AccessTable) -> None:
        self.table = table
        self.base = table.block.base_index
        self.owners = table.owners
        self.columns: Optional[_Columns] = None
        self.checked = 0
        self.touches: List[Tuple[int, float, Any]] = []
        self.edges: List[Tuple[Any, Any]] = []
        self.writes: List[Tuple[int, int, str]] = []
        self.last_write: Dict[int, Tuple[int, str]] = {}
        #: the bulk rows' reg-var writes, listed on the span's first read:
        #: their rows and access indices in row order, their registers'
        #: codes in reverse (an owner-less row's code is struck out once a
        #: read passes it), and the set of those codes
        self.bulk_rows: Optional[List[int]] = None
        self.bulk_keys: List[int] = []
        self.bulk_access: List[int] = []
        self.bulk_written: Set[int] = set()


class DependencyPass(AnalysisPass):
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
        #: the inside span being walked, and the walked spans whose nodes
        #: and edges wait to be added, with their data rows
        self._span: Optional[_Span] = None
        self._queue: List[Tuple[int, Optional[_Columns], list, list]] = []
        self._queued_rows = 0
        #: the string table register codes index, its text -> id map, and
        #: per string id its canonical id (the one ``id_of`` gives its
        #: text; the array only when the table repeats a string) and
        #: whether the string is empty
        self._strings: Optional[List[str]] = None
        self._id_of: Dict[str, int] = {}
        self._canon: Optional[np.ndarray] = None
        self._canon_list: List[int] = []
        self._empty = np.empty(0, dtype=bool)
        #: variable id -> its node key and label; owner id -> variable id
        self._var_ids: Dict[str, int] = {}
        self._var_keys: List[str] = []
        self._var_labels: List[str] = []
        self._var_of = OwnerColumn(varmap, self._variable_id, np.int64)
        #: node key -> node id, and node id -> key, for every DDG node
        self._node_ids: Dict[str, int] = {}
        self._node_keys: List[str] = []
        #: code -> node id for every code whose node exists, also as
        #: sorted arrays for the bulk lookup
        self._code_node: Dict[int, int] = {}
        self._codes = np.array([_SENTINEL], dtype=np.int64)
        self._code_ids = np.array([-1], dtype=np.int64)
        #: every edge added, as sorted ``parent id << 32 | child id``
        self._edges = np.array([_SENTINEL], dtype=np.int64)
        #: the reg-var map by register code: the variable id each holds
        #: (-1: a value no variable id names)
        self._reg_mirror: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Codes and nodes
    # ------------------------------------------------------------------ #
    def _variable_id(self, info) -> int:
        """The variable id of registration ``info`` (one per key)."""
        var = self._var_ids.get(info.key)
        if var is None:
            var = self._var_ids[info.key] = len(self._var_keys)
            self._var_keys.append(info.key)
            self._var_labels.append(info.name)
        return var

    def _use_strings(self, strings: List[str], id_of: Dict[str, int]) -> None:
        """Bind the walk's string table, which register codes index: every
        block of one walk shares it."""
        if self._strings is not None:
            if strings is not self._strings:
                raise ValueError("the blocks of one walk share one string "
                                 "table")
            return
        self._strings = strings
        self._id_of = id_of
        self._canon_list = [id_of[text] for text in strings]
        self._canon = (np.array(self._canon_list, dtype=np.int64)
                       if len(id_of) < len(strings) else None)
        self._empty = np.array([not text for text in strings], dtype=bool)

    def _node(self, key: str, kind: NodeKind, label: str) -> int:
        """The id of node ``key``, created (``kind``, ``label``) on its
        first touch."""
        node = self._node_ids.get(key)
        if node is None:
            self.ddg.add_node(key, kind, label)
            node = self._node_ids[key] = len(self._node_keys)
            self._node_keys.append(key)
        return node

    def _describe(self, code: int) -> Tuple[str, NodeKind, str]:
        """The key, kind and label of the node ``code`` names."""
        if code >= 0:
            strings = self._strings
            function = strings[code >> 32]
            register = strings[code & _LOW32]
            return (f"{function}%{register}", NodeKind.REGISTER,
                    f"{function}:%{register}")
        var = -2 - code
        return self._var_keys[var], NodeKind.LOCAL, self._var_labels[var]

    def _node_of(self, payload) -> int:
        """The node id of an edge endpoint the per-row path recorded."""
        if isinstance(payload, int):
            return self._code_node[payload]
        return self._node_ids[payload]

    def _owner_code(self, owner: int) -> int:
        return -2 - self._variable_id(self.varmap.registrations[owner])

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

    # ------------------------------------------------------------------ #
    # The per-row path
    # ------------------------------------------------------------------ #
    def _read_reg(self, code: int, function: str,
                  row: int) -> Optional[str]:
        """The reg-var entry of register ``code`` (of ``function``) as row
        ``row`` reads it: the last write before it in stream order — in
        the span (its per-row writes and its bulk rows, whose owners are
        final up to ``row``), else in the map, which holds every closed
        span's writes."""
        span = self._span
        latest = span.last_write.get(code)
        if span.bulk_rows is None:
            self._list_bulk_writes(span)
        if code in span.bulk_written:
            value = self._bulk_write(span, code, row, latest)
            if value is not None:
                return value
        if latest is not None:
            return latest[1]
        return self.reg_var.get((function, self._strings[code & _LOW32]))

    @staticmethod
    def _list_bulk_writes(span: _Span) -> None:
        """List ``span``'s bulk reg-var writes for :meth:`_bulk_write`."""
        columns = span.columns
        if columns is None:
            span.bulk_rows = []
            return
        writing = np.flatnonzero(columns.write_key != _NO_NODE)
        span.bulk_rows = columns.rows[writing].tolist()
        span.bulk_keys = columns.write_key[writing][::-1].tolist()
        # a memory row's index in the access table
        access = np.cumsum(columns.memory) - 1
        span.bulk_access = access[writing].tolist()
        span.bulk_written = set(span.bulk_keys)

    def _bulk_write(self, span: _Span, code: int, row: int,
                    latest: Optional[Tuple[int, str]]) -> Optional[str]:
        """The value of ``span``'s last bulk write to register ``code``
        before row ``row``, unless ``latest``, its last per-row write,
        comes after it."""
        rows = span.bulk_rows
        keys = span.bulk_keys
        last = len(rows) - 1
        owners = span.owners
        # The bulk writes before ``row``, latest first (``bulk_keys`` runs
        # backwards).  An owner-less row's write is a per-row write; its
        # owner is final, so its code is struck out and no later read
        # passes it again.
        at = last + 1 - bisect_left(rows, row)
        while True:
            try:
                at = keys.index(code, at)
            except ValueError:
                return None
            if latest is not None and rows[last - at] < latest[0]:
                return None
            owner = owners[span.bulk_access[last - at]]
            if owner >= 0:
                return self.varmap.registrations[owner].key
            keys[at] = _NO_NODE

    def _write(self, row: int, code: int, value: str) -> None:
        span = self._span
        span.writes.append((row, code, value))
        span.last_write[code] = (row, value)

    def _touch(self, row: int, order: float, payload) -> None:
        """Keep a per-row touch of a node that does not exist yet, at
        position ``order`` within row ``row``'s touches."""
        if (payload not in self._code_node if isinstance(payload, int)
                else payload[0] not in self._node_ids):
            self._span.touches.append((row, order, payload))

    def _owner_of(self, row: int) -> int:
        table = self._span.table
        return table.owners[int(table.rows.searchsorted(row))]

    def _finish(self, row: int, kind: int, first: int, operands: int,
                result: int, code0: int) -> None:
        """The rest of a row's per-row step, at its point in the walk: a
        ``Store``'s binding read, and the operand slots past the first two
        (the shape's plan did the first two; :meth:`consume_selected` reads
        a forwarding row's first two)."""
        if kind in (KIND_STORE, KIND_GEP) and self._owner_of(row) < 0:
            self._unresolved_row(row)
            return
        span = self._span
        strings = self._strings
        function = strings[code0 >> 32]
        if kind == KIND_STORE:  # a named non-register value
            binding = self._lookup_binding(function, strings[code0 & _LOW32])
            if binding is not None:
                span.edges.append(
                    (binding, self._owner_code(self._owner_of(row))))
            return
        block = span.table.block
        for k in range(2, operands):
            slot = first + k
            flags = int(block.op_flags[slot])
            if not flags & 1:
                continue
            code = (code0 >> 32 << 32
                    | self._canon_list[int(block.op_name_id[slot])])
            self._touch(row, k + 1, code)
            span.edges.append((code, result))
            if kind != KIND_FORWARDING:
                continue
            source = self._read_reg(code, function, row)
            if source is None and flags & 2:
                source = self._address_source(row, slot, k + 1.5)
            if source is not None:
                span.writes.append((row, result, source))
                span.last_write[result] = (row, source)

    def _address_source(self, row: int, slot: int,
                        order: float) -> Optional[str]:
        """The variable owning the pointer in operand slot ``slot`` of row
        ``row``, touched at ``order``: no register names the operand, so
        its address (outside the access table) attributes it through the
        live map, as it stands for this row."""
        owner = self.varmap.resolve_id(
            int(self._span.table.block.op_address[slot]))
        if owner < 0:
            return None
        self._touch(row, order, self._owner_code(owner))
        return self.varmap.registrations[owner].key

    def _unresolved_row(self, row: int) -> None:
        """Walk a ``Load`` / ``Store`` / ``GetElementPtr`` row whose owner
        did not resolve by the per-row rules, at its point in the walk: its
        variable comes from the binding stacks or a function-local name."""
        span = self._span
        block = span.table.block
        strings = self._strings
        canon = self._canon_list
        kind = int(span.table.kinds[row - span.table.lo])
        first = int(block.op_start[row])
        end = int(block.op_start[row + 1])
        n_ops = end - first - int(block.has_result[row])
        fid = int(block.function_id[row])
        function = strings[fid]
        fcode = canon[fid] << 32
        flags = block.op_flags
        names = block.op_name_id
        touched: List = []
        # the variable: the binding stacks, else a function-local name
        name = strings[int(names[first + (kind == KIND_STORE)])]
        var = self._lookup_binding(function, name)
        if var is None and name:
            var = f"{function}:{name}"
            touched.append((var, NodeKind.LOCAL, name))
        if kind == KIND_GEP:
            code = fcode | canon[int(names[end - 1])]
            touched.insert(0, code)
            if var is not None:
                self._write(row, code, var)
            for slot in range(first + 1, first + n_ops):
                if flags[slot] & 1:
                    register = fcode | canon[int(names[slot])]
                    touched.append(register)
                    span.edges.append((register, code))
        elif var is None:
            return
        elif kind == KIND_LOAD:
            code = fcode | canon[int(names[end - 1])]
            touched.append(code)
            span.edges.append((var, code))
            self._write(row, code, var)
        elif flags[first] & 1:  # a Store of a register
            code = fcode | canon[int(names[first])]
            touched.append(code)
            span.edges.append((code, var))
            self._write(row, code, var)
        elif strings[int(names[first])]:  # a Store of a named value
            binding = self._lookup_binding(function,
                                           strings[int(names[first])])
            if binding is not None:
                span.edges.append((binding, var))
        for order, payload in enumerate(touched):
            self._touch(row, order, payload)

    def _unresolved_rows(self) -> List[int]:
        """The span's memory rows walked since the last call whose owner
        is -1, which read it and have no per-row step: they read the
        binding stacks, so they run before the stacks next change."""
        span = self._span
        owners = span.owners
        checked = span.checked
        if checked == len(owners):
            return []
        end = span.checked = len(owners)
        c = span.columns
        if c is None or -1 not in owners[checked:]:
            return []
        shape = c.shape[c.memory][checked:end]
        unresolved = np.flatnonzero((np.array(owners[checked:]) < 0)
                                    & _READS_OWNER[shape] & ~_PER_ROW[shape])
        return span.table.rows[unresolved + checked].tolist()

    def _walk_unresolved(self) -> None:
        for row in self._unresolved_rows():
            self._unresolved_row(row)

    # ------------------------------------------------------------------ #
    # Scope records
    # ------------------------------------------------------------------ #
    def on_alloca(self, record: TraceRecord, region: int) -> None:
        # Registration happens in the engine (shared map); the pass only
        # keeps the "selective iteration" statistic faithful.
        if region == REGION_INSIDE:
            self._inspected += 1

    def on_call(self, record: TraceRecord, region: int, row: int) -> None:
        if region != REGION_INSIDE:
            return
        self._inspected += 1
        self._walk_unresolved()
        id_of = self._id_of
        function = record.function
        fcode = id_of[function] << 32
        params = record.parameter_operands()
        args = record.argument_operands()
        frame: Dict[str, Optional[str]] = {}
        touched: List = []
        if not params:
            # Single-Call form (builtin / external, Fig. 6a): behave like an
            # arithmetic instruction over the argument registers.  It may
            # still be a zero-parameter *user* function whose body follows —
            # the engine's activation detection on the next record decides.
            if record.result is not None:
                result = fcode | id_of[record.result.name]
                touched.append(result)
                for op in args:
                    if op.is_register:
                        register = fcode | id_of[op.name]
                        touched.append(register)
                        self._span.edges.append((register, result))
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
                    register = fcode | id_of[arg.name]
                    source_key = self._read_reg(register, function, row)
                    if source_key is None and arg.address is not None:
                        # The register holds a pointer — attribute it by
                        # address.
                        owner = self.varmap.resolve_id(arg.address)
                        if owner >= 0:
                            touched.append(self._owner_code(owner))
                            source_key = self.varmap.registrations[owner].key
                    if source_key is None:
                        touched.append(register)
                        source_key = f"{function}%{arg.name}"
                frame[param.name] = source_key
                if source_key is not None:
                    self.param_bindings[(record.callee, param.name)] = \
                        source_key
        for order, payload in enumerate(touched):
            self._touch(row, order, payload)
        if record.callee:
            self._pending_frame = (record.callee, frame)

    def on_activation(self, callee: str, region: int) -> None:
        if region != REGION_INSIDE:
            return
        self._walk_unresolved()
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
        self._walk_unresolved()
        frames = self._binding_stacks.get(record.function)
        if frames:
            frames.pop()

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def select_span(self, table: AccessTable,
                    region: int) -> Optional[SpanSelection]:
        """Read the span's data rows into columns, inside the loop only,
        and select the rows with a per-row step (:meth:`_finish`).

        Every row's shape and register codes come from the block's columns
        in one set of vector ops; the owners that complete them are read
        when the span closes.
        """
        if region != REGION_INSIDE:
            return None
        block = table.block
        self._use_strings(block.strings, block.id_of)
        span = self._span = _Span(table)
        picked = np.flatnonzero(table.kinds < KIND_OTHER)
        self._inspected += len(picked)
        flags = block.op_flags
        if not picked.size or not flags.size:
            # A block without any operand slot has no row that touches a
            # node or reads an owner.
            return None
        kind = table.kinds[picked]
        rows = picked + table.lo
        first = block.op_start[rows]
        end = block.op_start[rows + 1]
        result = block.has_result[rows]
        operands = end - first - result
        slot0 = np.minimum(first, len(flags) - 1)
        slot1 = np.minimum(first + 1, len(flags) - 1)
        names = block.op_name_id
        name0 = names[slot0]
        shape = _KIND_SHAPE[kind]
        shape |= result << 5
        shape |= np.minimum(operands, 3) << 3
        shape |= ((flags[slot0] & 1) & (operands >= 1)) << 2
        shape |= ((flags[slot1] & 1) & (operands >= 2)) << 1
        shape |= ~self._empty[name0]
        function = block.function_id[rows]
        results = names[end - 1]
        name1 = names[slot1]
        canon = self._canon
        if canon is not None:  # the string table repeats a string
            function = canon[function]
            results = canon[results]
            name0 = canon[name0]
            name1 = canon[name1]
        function <<= 32
        sources = np.empty((5, len(rows)), dtype=np.int64)
        sources[_NONE] = _NO_NODE
        sources[_VAR] = _NO_NODE
        np.bitwise_or(function, results, out=sources[_RESULT])
        np.bitwise_or(function, name0, out=sources[_OP0])
        np.bitwise_or(function, name1, out=sources[_OP1])
        c = span.columns = _Columns()
        c.rows = rows
        c.shape = shape
        c.sources = sources
        c.write_key = sources.ravel()[_WRITE[shape] * len(rows)
                                      + np.arange(len(rows))]
        c.memory = kind <= KIND_GEP
        per_row = _PER_ROW[shape]
        if not per_row.any():
            return None
        pick = np.flatnonzero(per_row)
        fields = np.empty((8, len(pick)), dtype=np.int64)
        fields[0] = rows[pick]
        fields[1] = kind[pick]
        fields[2] = first[pick]
        fields[3] = operands[pick]
        fields[4] = sources[_RESULT, pick]
        fields[5] = sources[_OP0, pick]
        fields[6] = sources[_OP1, pick]
        # bits 0-1: the first two operands are registers; bits 2-3: they
        # carry an address
        fields[7] = ((shape[pick] >> 2 & 1) | (shape[pick] & 2)
                     | (flags[slot0[pick]] & 2) << 1
                     | (flags[slot1[pick]] & 2) << 2)
        return SpanSelection(fields[0], fields)

    def consume_selected(self, table: AccessTable, region: int,
                         selected) -> None:
        """Take one segment's per-row steps (and the owner-less memory rows
        walked since the last scope event), in row order: a forwarding
        row's reg-var reads and write, then :meth:`_finish`."""
        unresolved = self._unresolved_rows()
        if unresolved:
            selected = sorted([*selected, *((row,) for row in unresolved)])
        span = self._span
        strings = self._strings
        read = self._read_reg
        for fields in selected:
            if len(fields) == 1:
                self._unresolved_row(fields[0])
                continue
            row, kind, first, operands, result, code0, code1, bits = fields
            if kind == KIND_FORWARDING:
                # ``bits``: operands 0 and 1 are registers (bits 0-1) and
                # carry an address (bits 2-3)
                function = strings[code0 >> 32]
                for k in (0, 1):
                    if not bits >> k & 1:
                        continue
                    source = read(code1 if k else code0, function, row)
                    if source is None and bits >> k & 4:
                        source = self._address_source(row, first + k,
                                                      k + 1.5)
                    if source is not None:
                        span.writes.append((row, result, source))
                        span.last_write[result] = (row, source)
                if operands <= 2:
                    continue
            self._finish(row, kind, first, operands, result, code0)

    def close_span(self, table: AccessTable, region: int) -> None:
        """Complete the span's columns with its owners, now final, apply
        its reg-var writes and queue it: the queued spans' nodes and edges
        are added together (:meth:`_flush`) once they hold ``_BATCH_ROWS``
        data rows, and when the walk ends."""
        if region != REGION_INSIDE:
            return
        self._walk_unresolved()
        span = self._span
        self._span = None
        c = span.columns
        if c is not None:
            owners = table.owner_ids()
            if owners.size:
                # An owner of -1 picks the last variable: its row is idle.
                c.sources[_VAR][c.memory] = -2 - self._var_of.array()[owners]
                if (owners < 0).any():
                    idle = np.flatnonzero(c.memory)[(owners < 0)
                                                    & c.readers()]
                    c.shape = c.shape.copy()
                    c.shape[idle] = _IDLE
                    c.write_key[idle] = _NO_NODE
            self._queued_rows += len(c.rows)
            # (a span without columns has no row that writes)
            self._apply_writes(c.rows, c.write_key, c.sources[_VAR],
                               span.writes)
        self._queue.append((span.base, c, span.touches, span.edges))
        if self._queued_rows >= _BATCH_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Add the queued spans' nodes, the bulk rows' and the per-row
        path's in first-touch order, then their new edges."""
        queue = self._queue
        self._queue = []
        self._queued_rows = 0
        spans = [(base, c) for base, c, _, _ in queue if c is not None]
        if spans:
            # Rows become positions in the walk: the queue may span blocks.
            rows = np.concatenate([c.rows + base for base, c in spans])
            shape = np.concatenate([c.shape for _, c in spans])
            sources = np.concatenate([c.sources for _, c in spans], axis=1)
            # touch[k] holds each row's k-th touch
            touch = sources.ravel()[_TOUCHES[:, shape] * len(rows)
                                    + np.arange(len(rows))]
            edges = _EDGES[:, shape]
        else:
            touch = np.empty((3, 0), dtype=np.int64)
            rows = touch[0]
            edges = np.empty((len(_EDGE_PAIRS), 0), dtype=bool)
        flat = touch.ravel()
        touched = np.flatnonzero(flat != _NO_NODE)
        codes = flat[touched]
        # Each distinct code once, and each touch's rank among them.
        order = np.argsort(codes)
        ordered = codes[order]
        step = np.empty(len(codes), dtype=bool)
        step[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
        starts = np.flatnonzero(step)
        distinct = ordered[starts]
        known = self._codes
        new = known[known.searchsorted(distinct)] != distinct
        events = [(base + row, sub, payload) for base, _, touches, _ in queue
                  for row, sub, payload in touches]
        if new.any():
            # A new code's first touch in stream order: the least
            # ``row * 3 + k`` among its touches.
            at = touched[order]
            first = np.minimum.reduceat(at % len(rows) * 3 + at // len(rows),
                                        starts)[new]
            first.sort()
            bulk = zip(rows[first // 3].tolist(), (first % 3).tolist(),
                       touch[first % 3, first // 3].tolist())
            events = sorted([*events, *bulk], key=_POSITION) if events \
                else bulk
        if events:
            self._create(events)
        rank = np.empty(len(codes), dtype=np.int64)
        rank[order] = np.cumsum(step) - 1
        ids = np.full(len(flat), -1, dtype=np.int64)
        ids[touched] = self._code_ids[
            self._codes.searchsorted(distinct)][rank]
        self._add_edges(ids.reshape(3, -1), edges,
                        [edge for _, _, _, per_row in queue
                         for edge in per_row])

    def _create(self, events) -> None:
        """Create the nodes of ``events`` (``(row, order, payload)`` in
        touch order) that do not exist yet."""
        new_codes: List[int] = []
        new_ids: List[int] = []
        code_node = self._code_node
        node = self._node
        describe = self._describe
        for _, _, payload in events:
            if isinstance(payload, tuple):
                node(*payload)
            elif payload not in code_node:
                new_ids.append(node(*describe(payload)))
                code_node[payload] = new_ids[-1]
                new_codes.append(payload)
        if new_codes:
            new = np.array(new_codes, dtype=np.int64)
            order = np.argsort(new)
            at = self._codes.searchsorted(new[order])
            self._codes = np.insert(self._codes, at, new[order])
            self._code_ids = np.insert(self._code_ids, at,
                                       np.array(new_ids)[order])

    def _add_edges(self, ids, enabled, per_row) -> None:
        """Add the edges the graph does not hold yet: the bulk rows'
        (``enabled[pair]`` flags the rows that add :data:`_EDGE_PAIRS`
        ``[pair]``, ``ids[k]`` holds each row's k-th touch's node id) and
        the per-row path's (``per_row``)."""
        packed = [(ids[parent] << 32 | ids[child])[enabled[pair]]
                  for pair, (parent, child) in enumerate(_EDGE_PAIRS)]
        if per_row:
            node_of = self._node_of
            packed.append(np.array(
                [node_of(parent) << 32 | node_of(child)
                 for parent, child in per_row], dtype=np.int64))
        if not packed:
            return
        edges = np.sort(np.concatenate(packed))
        # Each edge once, and no self-loop (``DDG.add_edge`` ignores one).
        keep = (edges >> 32) != (edges & _LOW32)
        keep[1:] &= edges[1:] != edges[:-1]
        edges = edges[keep]
        known = self._edges
        at = known.searchsorted(edges)
        new = known[at] != edges
        if not new.any():
            return
        keys = self._node_keys
        add_edge = self.ddg.add_edge
        for edge in edges[new].tolist():
            add_edge(keys[edge >> 32], keys[edge & _LOW32])
        self._edges = np.insert(known, at[new], edges[new])

    def _apply_writes(self, rows, write_key, variable, per_row) -> None:
        """Apply a span's reg-var writes — its bulk rows' (each writes the
        key of the variable its ``variable`` code names) and its per-row
        path's (``per_row``): per register the last in row order,
        registers new to the map in the order of their first write.  Only
        registers whose value changed reach the map (``_reg_mirror`` holds
        each register's variable id, or -1 for a value no variable id
        names)."""
        writing = np.flatnonzero(write_key != _NO_NODE)
        keys = write_key[writing].tolist()
        values = (-2 - variable[writing]).tolist()
        # A dict keeps each register where its first write put it and the
        # value of its last; a per-row write's value is its key string.
        if per_row:
            last: Dict[int, Any] = {}
            lo = 0
            bounds = rows[writing].searchsorted(
                [row for row, _, _ in per_row]).tolist()
            for bound, (_, key, text) in zip(bounds, per_row):
                last.update(zip(keys[lo:bound], values[lo:bound]))
                last[key] = text
                lo = bound
            last.update(zip(keys[lo:], values[lo:]))
        else:
            last = dict(zip(keys, values))
        mirror = self._reg_mirror
        strings = self._strings
        var_keys = self._var_keys
        entries = []
        for key, value in last.items():
            if value.__class__ is int:
                if mirror.get(key) == value:
                    continue
                mirror[key] = value
                value = var_keys[value]
            else:
                mirror[key] = -1
            entries.append(((strings[key >> 32], strings[key & _LOW32]),
                            value))
        self.reg_var.update(entries)

    def finalize(self) -> None:
        if self._queue:
            self._flush()
        # Let the walk's last block go before identify and publish run.
        self._span = None

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
