"""Static dataflow primitives over the IR: def-use chains, an
alias-conservative pointer analysis, and per-block variable liveness.

Everything in this module is *static*: it looks only at
:class:`repro.ir.module.Module` objects, never at a trace.  The value
domain is a flat may-point-to lattice over **abstract variable ids**:

* ``("g", name)`` — the module global ``name``;
* ``("l", function, name)`` — the local ``name`` (an ``Alloca``) of
  ``function``;
* :data:`TOP` — the lattice top: "any variable at all".

A set of ids is a *may* set: the analysis guarantees that the concrete
variable a pointer operand resolves to at run time is covered by the set
(or the set contains :data:`TOP`).  That over-approximation direction is
what makes the static MLI candidates of :mod:`repro.static.summary` a
sound superset of the dynamic MLI set, which the cross-check oracle of
:mod:`repro.static.check` relies on (see ``docs/static.md`` for the full
soundness argument, including the in-bounds-indexing caveat).

Pointer-typed function parameters and pointer-typed memory cells are
resolved **interprocedurally**: a module-level fixpoint
(:func:`compute_points_to`) joins the pointee sets of every call site's
actual argument into the formal parameter's set, and the pointee sets of
every pointer value stored into a variable into that variable's *cell*
set — so an array passed by pointer keeps its identity inside the callee
(through the parameter spill-and-reload idiom the frontend emits)
instead of collapsing to :data:`TOP`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BitCastInst,
    CallInst,
    CastInst,
    CmpInst,
    GEPInst,
    Instruction,
    LoadInst,
    PrintInst,
    StoreInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import PointerType
from repro.ir.values import Argument, Constant, GlobalVariable, Register, Value

#: An abstract variable identity: ``("g", name)``, ``("l", func, name)``
#: or the :data:`TOP` sentinel.
VarId = Tuple[str, ...]

#: Lattice top: "could be any variable".  Kept as a member of pointee /
#: source sets rather than a separate flag so set unions stay plain.
TOP: VarId = ("top",)

#: The singleton set {TOP}.
TOP_SET: FrozenSet[VarId] = frozenset({TOP})

_EMPTY: FrozenSet[VarId] = frozenset()

#: Bound on pointer-chain walks; mirrors the 64-step bound of
#: :func:`repro.analysis.induction._resolve_variable`.
_CHAIN_BOUND = 64


def global_id(name: str) -> VarId:
    """The abstract id of module global ``name``."""
    return ("g", name)


def local_id(function: str, name: str) -> VarId:
    """The abstract id of local ``name`` in ``function``."""
    return ("l", function, name)


def format_var_id(var_id: VarId) -> str:
    """Human-readable rendering, e.g. ``@big`` or ``main:i`` or ``<top>``."""
    if var_id == TOP:
        return "<top>"
    if var_id[0] == "g":
        return f"@{var_id[1]}"
    return f"{var_id[1]}:{var_id[2]}"


def var_id_name(var_id: VarId) -> Optional[str]:
    """The source-level variable name behind ``var_id`` (None for TOP)."""
    if var_id == TOP:
        return None
    return var_id[-1]


# --------------------------------------------------------------------------- #
# Def-use chains
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DefSite:
    """Where a virtual register is defined."""

    block: BasicBlock
    index: int
    inst: Instruction


@dataclass(frozen=True)
class UseSite:
    """One operand position reading a virtual register."""

    block: BasicBlock
    index: int
    inst: Instruction
    operand_index: int


@dataclass
class DefUseChains:
    """Register definition sites and all their uses, for one function."""

    function: Function
    defs: Dict[int, DefSite] = field(default_factory=dict)
    uses: Dict[int, List[UseSite]] = field(default_factory=dict)

    def def_inst(self, rid: int) -> Optional[Instruction]:
        site = self.defs.get(rid)
        return site.inst if site is not None else None


def build_def_use(function: Function) -> DefUseChains:
    """Collect every register's definition site and use sites."""
    chains = DefUseChains(function=function)
    for block in function.blocks:
        for index, inst in enumerate(block.instructions):
            if inst.result is not None:
                chains.defs[inst.result.rid] = DefSite(
                    block=block, index=index, inst=inst)
            for operand_index, operand in enumerate(inst.operands):
                if isinstance(operand, Register):
                    chains.uses.setdefault(operand.rid, []).append(UseSite(
                        block=block, index=index, inst=inst,
                        operand_index=operand_index))
    return chains


def definitions(function: Function) -> Dict[int, Instruction]:
    """``rid -> defining instruction`` over one function."""
    defs: Dict[int, Instruction] = {}
    for inst in function.instructions():
        if inst.result is not None:
            defs[inst.result.rid] = inst
    return defs


# --------------------------------------------------------------------------- #
# Interprocedural may-point-to
# --------------------------------------------------------------------------- #
#: ``function name -> parameter name -> may-pointee ids``.
ParamPointees = Dict[str, Dict[str, Set[VarId]]]


@dataclass
class PointsToState:
    """The interprocedural points-to facts the fixpoint accumulates.

    ``param_pointees`` joins every call site's pointer-typed actual into
    the callee's formal parameter; ``cell_pointees`` joins every
    pointer-typed *stored value* into the variable (cell) it is stored
    into — this is what lets a ``Load`` of a spilled pointer parameter
    resolve instead of going to :data:`TOP`.  ``store_to_top`` records
    that some pointer value was stored through an unresolvable pointer,
    after which *every* pointer load must answer :data:`TOP`.
    """

    param_pointees: ParamPointees = field(default_factory=dict)
    cell_pointees: Dict[VarId, Set[VarId]] = field(default_factory=dict)
    store_to_top: bool = False


class PointerAnalysis:
    """Alias-conservative may-point-to resolution for pointer operands.

    ``resolve(value, function)`` returns the may set of variables the
    pointer ``value`` can address.  The walk follows GEP bases, casts and
    bitcasts to the underlying ``Alloca`` / :class:`GlobalVariable`;
    pointer-typed formal parameters use the interprocedural call-site
    join (a parameter with no recorded caller resolves to the empty set —
    its code never runs); a pointer loaded back out of memory resolves
    through the cell sets of :class:`PointsToState`.  An unknown
    register, an over-long chain, or any load after a store-through-TOP
    resolve to :data:`TOP_SET`.
    """

    def __init__(self, module: Module) -> None:
        self.module = module
        self.defs: Dict[str, Dict[int, Instruction]] = {
            name: definitions(function)
            for name, function in module.functions.items()}
        self.state: PointsToState = compute_points_to(module, self.defs)

    @property
    def param_pointees(self) -> ParamPointees:
        return self.state.param_pointees

    def resolve(self, value: Value, function: Function) -> FrozenSet[VarId]:
        return _pointer_targets(value, function, self.defs[function.name],
                                self.state)


def _pointer_targets(value: Value, function: Function,
                     defs: Dict[int, Instruction],
                     state: PointsToState,
                     depth: int = 0) -> FrozenSet[VarId]:
    current = value
    while depth <= _CHAIN_BOUND:
        depth += 1
        if isinstance(current, GlobalVariable):
            return frozenset({global_id(current.name)})
        if isinstance(current, Argument):
            bound = state.param_pointees.get(function.name, {}) \
                .get(current.name)
            if bound is None:
                return _EMPTY
            return frozenset(bound)
        if isinstance(current, Constant):
            return _EMPTY
        if isinstance(current, Register):
            inst = defs.get(current.rid)
            if inst is None:
                return TOP_SET
            if isinstance(inst, AllocaInst):
                return frozenset({local_id(function.name, inst.var_name)})
            if isinstance(inst, (GEPInst, BitCastInst, CastInst)):
                current = inst.operands[0]
                continue
            if isinstance(inst, LoadInst):
                # A pointer read back out of memory: answer through the
                # cell sets.  A cell never stored to holds no valid
                # pointer, so a missing cell contributes nothing.
                if state.store_to_top:
                    return TOP_SET
                cells = _pointer_targets(inst.operands[0], function, defs,
                                         state, depth)
                if TOP in cells:
                    return TOP_SET
                out: Set[VarId] = set()
                for cell in cells:
                    out |= state.cell_pointees.get(cell, set())
                return frozenset(out)
            # Produced by a call or arithmetic: nothing tracks it — top.
            return TOP_SET
        return TOP_SET
    return TOP_SET


def compute_points_to(module: Module,
                      defs: Dict[str, Dict[int, Instruction]],
                      ) -> PointsToState:
    """Fixpoint join of pointer facts over every call site and store.

    For each ``call g(..., a_i, ...)`` in the module, the may-pointee set
    of the pointer-typed actual ``a_i`` (resolved in the *caller*, with
    the facts known so far) joins into formal ``param_names[i]`` of
    ``g``; for each store of a pointer-typed value, the value's pointees
    join into the cell set of every variable the store may target (a
    store through an unresolvable pointer poisons the whole cell space
    via ``store_to_top``).  Iterated to a fixpoint so chains of calls and
    spill/reload sequences propagate; the lattice is finite (ids + TOP)
    and the joins monotone, so this terminates.
    """
    state = PointsToState()
    changed = True
    while changed:
        changed = False
        for caller in module.functions.values():
            caller_defs = defs[caller.name]
            for inst in caller.instructions():
                if isinstance(inst, StoreInst):
                    value = inst.operands[0]
                    if not isinstance(value.type, PointerType):
                        continue
                    value_pts = _pointer_targets(value, caller, caller_defs,
                                                 state)
                    targets = _pointer_targets(inst.operands[1], caller,
                                               caller_defs, state)
                    if TOP in targets:
                        if not state.store_to_top:
                            state.store_to_top = True
                            changed = True
                        continue
                    for target in targets:
                        slot = state.cell_pointees.setdefault(target, set())
                        if not value_pts <= slot:
                            slot |= value_pts
                            changed = True
                elif (isinstance(inst, CallInst) and not inst.is_builtin
                        and inst.callee in module.functions):
                    slots = state.param_pointees.setdefault(inst.callee, {})
                    for param, arg in zip(inst.param_names, inst.operands):
                        if not isinstance(arg.type, PointerType):
                            continue
                        targets = _pointer_targets(arg, caller, caller_defs,
                                                   state)
                        slot = slots.setdefault(param, set())
                        if not targets <= slot:
                            slot |= targets
                            changed = True
    return state


# --------------------------------------------------------------------------- #
# Value sources (static data-dependence of a stored value)
# --------------------------------------------------------------------------- #
def value_sources(value: Value, function: Function,
                  pointers: PointerAnalysis,
                  ret_summaries: Dict[str, Set[VarId]],
                  _depth: int = 0) -> FrozenSet[VarId]:
    """The variables whose values may flow into ``value``.

    Mirrors how the dynamic dependency pass builds register chains
    (:mod:`repro.core.dependency`): a ``Load`` contributes the loaded
    variable (and nothing upstream of its pointer — dynamically a load
    adds only the ``var -> result`` edge); arithmetic / comparison /
    cast chains union their register operands; a GEP result carries its
    *index* sources (the dynamic pass draws ``index -> result`` edges,
    never ``base -> result``); a user call contributes the callee's
    return-value sources; an ``Alloca`` result (an address value)
    contributes nothing.  :data:`TOP` enters on any unknown.
    """
    if _depth > _CHAIN_BOUND:
        return TOP_SET
    if isinstance(value, Constant):
        return _EMPTY
    if isinstance(value, GlobalVariable):
        return frozenset({global_id(value.name)})
    if isinstance(value, Argument):
        # The spill of parameter ``x`` stores the Argument into the local
        # ``x``; call-site edges (summary.py) already route the actual
        # argument's sources into that local's id.
        return frozenset({local_id(function.name, value.name)})
    if not isinstance(value, Register):
        return TOP_SET
    inst = pointers.defs[function.name].get(value.rid)
    if inst is None:
        return TOP_SET
    if isinstance(inst, AllocaInst):
        return _EMPTY
    if isinstance(inst, LoadInst):
        return pointers.resolve(inst.operands[0], function)
    if isinstance(inst, GEPInst):
        sources: Set[VarId] = set()
        for operand in inst.operands[1:]:
            sources |= value_sources(operand, function, pointers,
                                     ret_summaries, _depth + 1)
        return frozenset(sources)
    if isinstance(inst, CallInst):
        if inst.is_builtin or inst.callee not in pointers.module.functions:
            sources = set()
            for operand in inst.operands:
                sources |= value_sources(operand, function, pointers,
                                         ret_summaries, _depth + 1)
            return frozenset(sources)
        return frozenset(ret_summaries.get(inst.callee, TOP_SET))
    if isinstance(inst, (BinaryInst, CmpInst, CastInst, BitCastInst)):
        sources = set()
        for operand in inst.operands:
            sources |= value_sources(operand, function, pointers,
                                     ret_summaries, _depth + 1)
        return frozenset(sources)
    return TOP_SET


# --------------------------------------------------------------------------- #
# Liveness
# --------------------------------------------------------------------------- #
@dataclass
class BlockVarFlow:
    """Upward-exposed variable uses and must-kills of one block."""

    gen: FrozenSet[VarId]
    kill: FrozenSet[VarId]


@dataclass
class LivenessResult:
    """Backward may-liveness of variables over one function's CFG."""

    function: Function
    flow: Dict[BasicBlock, BlockVarFlow]
    live_in: Dict[BasicBlock, FrozenSet[VarId]]
    live_out: Dict[BasicBlock, FrozenSet[VarId]]


def _block_flow(block: BasicBlock, function: Function,
                pointers: PointerAnalysis,
                read_summaries: Dict[str, Set[VarId]]) -> BlockVarFlow:
    gen: Set[VarId] = set()
    kill: Set[VarId] = set()
    fname = function.name
    for inst in block.instructions:
        if isinstance(inst, (LoadInst, GEPInst)):
            for var in pointers.resolve(inst.operands[0], function):
                if var not in kill:
                    gen.add(var)
        elif isinstance(inst, StoreInst):
            targets = pointers.resolve(inst.operands[1], function)
            if len(targets) == 1 and TOP not in targets:
                target = next(iter(targets))
                if _is_scalar_store(inst, function, pointers):
                    kill.add(target)
        elif isinstance(inst, CallInst) and not isinstance(inst, PrintInst):
            callee_reads: Set[VarId] = set()
            if not inst.is_builtin:
                callee_reads |= read_summaries.get(inst.callee, {TOP})
            for operand in inst.operands:
                if isinstance(operand.type, PointerType):
                    callee_reads |= pointers.resolve(operand, function)
            for var in callee_reads:
                visible = (var == TOP or var[0] == "g"
                           or (var[0] == "l" and var[1] == fname))
                if visible and var not in kill:
                    gen.add(var)
    return BlockVarFlow(gen=frozenset(gen), kill=frozenset(kill))


def _is_scalar_store(inst: StoreInst, function: Function,
                     pointers: PointerAnalysis) -> bool:
    """True when the store must fully overwrite its (single) target —
    a direct store to a scalar Alloca or scalar global, no GEP in the
    pointer chain.  Partial (element) writes never kill liveness."""
    pointer = inst.operands[1]
    if isinstance(pointer, GlobalVariable):
        return not pointer.is_array
    if isinstance(pointer, Register):
        producer = pointers.defs[function.name].get(pointer.rid)
        return isinstance(producer, AllocaInst)
    return False


def compute_liveness(function: Function, cfg: ControlFlowGraph,
                     pointers: PointerAnalysis,
                     read_summaries: Dict[str, Set[VarId]]) -> LivenessResult:
    """Classic backward may-liveness over variables (not registers).

    ``live_in(b) = gen(b) ∪ (live_out(b) − kill(b))`` and
    ``live_out(b) = ⋃ live_in(succ)``, iterated to a fixpoint.  A block's
    *gen* is its upward-exposed variable reads (loads and GEP address
    computations, plus what its calls may read); *kill* is only taken
    for must-overwrite scalar stores, so array elements stay live —
    exactly the conservatism the soundness argument needs.
    """
    flow = {block: _block_flow(block, function, pointers, read_summaries)
            for block in function.blocks}
    live_in: Dict[BasicBlock, FrozenSet[VarId]] = {
        block: frozenset() for block in function.blocks}
    live_out: Dict[BasicBlock, FrozenSet[VarId]] = {
        block: frozenset() for block in function.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(function.blocks):
            out: Set[VarId] = set()
            for succ in cfg.successors.get(block, []):
                out |= live_in[succ]
            block_flow = flow[block]
            new_in = frozenset(block_flow.gen | (out - block_flow.kill))
            new_out = frozenset(out)
            if new_in != live_in[block] or new_out != live_out[block]:
                live_in[block] = new_in
                live_out[block] = new_out
                changed = True
    return LivenessResult(function=function, flow=flow,
                          live_in=live_in, live_out=live_out)


def compute_read_summaries(module: Module,
                           pointers: PointerAnalysis) -> Dict[str, Set[VarId]]:
    """``function -> may-read variable ids`` (transitively through calls).

    Used by liveness at call sites and by the static report.  The join
    runs to a fixpoint so mutual recursion converges; builtin calls read
    nothing beyond their (value) arguments.
    """
    reads: Dict[str, Set[VarId]] = {name: set() for name in module.functions}
    changed = True
    while changed:
        changed = False
        for name, function in module.functions.items():
            acc = set(reads[name])
            for inst in function.instructions():
                if isinstance(inst, (LoadInst, GEPInst)):
                    acc |= pointers.resolve(inst.operands[0], function)
                elif (isinstance(inst, CallInst)
                        and not isinstance(inst, PrintInst)
                        and not inst.is_builtin
                        and inst.callee in reads):
                    acc |= reads[inst.callee]
            if acc != reads[name]:
                reads[name] = acc
                changed = True
    return reads
