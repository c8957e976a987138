"""Whole-module static analysis: CFG/dominators/loops per function, the
static main-loop identification, the static MLI-candidate set, and the
static DDG over-approximation.

:func:`analyze_module` is the one entry point.  Given a module (and
optionally the dynamic pipeline's :class:`~repro.core.config.MainLoopSpec`)
it computes:

* per-function :class:`FunctionSummary` objects — CFG, dominator tree,
  natural loops, def-use chains and variable liveness — reusing the
  :mod:`repro.analysis` primitives rather than re-deriving them;
* the **static main loop**: the outermost natural loop of the spec
  function whose header branch lies in the MCLR line range (the static
  twin of what the dynamic walk derives from record lines);
* the **static MLI candidates**: every variable a statically-inside
  instruction may access, restricted (like the dynamic MLI population)
  to globals and spec-function locals.  "Statically inside" covers the
  in-range loops' blocks, any spec-function instruction with a line in
  range, and the full bodies of functions transitively callable from
  there — a superset of the dynamic extent, which is what makes
  ``dynamic MLI ⊆ candidates`` a theorem rather than a hope;
* the **static DDG**: a var-level may-dependence graph whose edge
  ``u → v`` means "a run could make ``v`` depend on ``u``".  Every
  var→var edge the dynamic analysis can produce is covered by an
  ancestor path here (checked fleet-wide by ``tests/test_static_check.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dominators import DominatorTree
from repro.analysis.induction import find_main_loop
from repro.analysis.loops import Loop, LoopInfo, find_loops
from repro.core.config import MainLoopSpec
from repro.ir.instructions import (
    AllocaInst,
    CallInst,
    GEPInst,
    Instruction,
    LoadInst,
    PrintInst,
    RetInst,
    StoreInst,
)
from repro.ir.module import Function, Module
from repro.ir.types import PointerType
from repro.ir.values import Register
from repro.static.dataflow import (
    TOP,
    DefUseChains,
    LivenessResult,
    PointerAnalysis,
    VarId,
    build_def_use,
    compute_liveness,
    compute_read_summaries,
    global_id,
    local_id,
    value_sources,
    var_id_name,
)


@dataclass
class FunctionSummary:
    """All static artefacts of one function."""

    function: Function
    cfg: ControlFlowGraph
    dom: DominatorTree
    loop_info: LoopInfo
    defuse: DefUseChains
    liveness: LivenessResult

    @property
    def name(self) -> str:
        return self.function.name


class StaticDDG:
    """Var-level may-dependence graph over abstract variable ids.

    Edges follow the dynamic convention: ``parent → child`` means "child
    may depend on parent".  :data:`~repro.static.dataflow.TOP` is a real
    node: a store through an unresolvable pointer adds ``source → TOP``
    (it may define *any* variable) and an unresolvable source adds
    ``TOP → target`` (the target may depend on *anything*).
    :meth:`may_depend` folds both readings into one query.
    """

    def __init__(self) -> None:
        self._parents: Dict[VarId, Set[VarId]] = {}
        self._name_index: Dict[str, Set[VarId]] = {}

    def add_node(self, var_id: VarId) -> None:
        if var_id not in self._parents:
            self._parents[var_id] = set()
            name = var_id_name(var_id)
            if name is not None:
                self._name_index.setdefault(name, set()).add(var_id)

    def add_edge(self, parent: VarId, child: VarId) -> None:
        self.add_node(parent)
        self.add_node(child)
        if parent != child:
            self._parents[child].add(parent)

    def nodes(self) -> List[VarId]:
        return list(self._parents)

    def parents_of(self, var_id: VarId) -> Set[VarId]:
        return set(self._parents.get(var_id, set()))

    def edges(self) -> List[Tuple[VarId, VarId]]:
        out = []
        for child, parents in self._parents.items():
            for parent in parents:
                out.append((parent, child))
        return out

    def ids_for_name(self, name: str) -> Set[VarId]:
        """Every known id carrying source-level ``name`` (any owner)."""
        return set(self._name_index.get(name, set()))

    def ancestors_of(self, var_id: VarId) -> Set[VarId]:
        """Transitive parents of ``var_id`` (not including itself)."""
        seen: Set[VarId] = set()
        work = list(self._parents.get(var_id, set()))
        while work:
            current = work.pop()
            if current in seen:
                continue
            seen.add(current)
            work.extend(self._parents.get(current, set()))
        return seen

    def may_depend(self, child: VarId, parent: VarId) -> bool:
        """May ``child``'s value depend on ``parent``?

        True when ``parent`` is a static ancestor of ``child``, when the
        child's ancestry reaches :data:`TOP` (it may depend on anything),
        or when ``parent`` flows into a TOP-target store (it may feed
        anything).  Unknown ids are conservatively dependent — the graph
        only speaks for ids it has seen.
        """
        if child == parent:
            return True
        if child not in self._parents or parent not in self._parents:
            return True
        ancestors = self.ancestors_of(child)
        if TOP in ancestors:
            return True
        if parent in ancestors:
            return True
        # parent → ... → TOP: the unresolvable store may have defined child.
        top_ancestry = self.ancestors_of(TOP)
        return parent in top_ancestry

    @property
    def edge_count(self) -> int:
        return sum(len(parents) for parents in self._parents.values())


@dataclass
class StaticModuleAnalysis:
    """The full static picture of one module (plus spec-derived results)."""

    module: Module
    pointers: PointerAnalysis
    functions: Dict[str, FunctionSummary]
    read_summaries: Dict[str, Set[VarId]]
    call_graph: Dict[str, Set[str]]
    static_ddg: StaticDDG
    #: ``function -> value-register rid -> may-store-target ids`` for every
    #: store whose stored value is that register (DDG-edge feasibility).
    store_value_targets: Dict[str, Dict[int, Set[VarId]]]
    spec: Optional[MainLoopSpec] = None
    #: The statically identified main computation loop (None without a
    #: spec, or when no loop header lies in the MCLR range).
    main_loop: Optional[Loop] = None
    #: Functions whose bodies are statically reachable from inside the
    #: main loop (the spec function included).
    inside_functions: FrozenSet[str] = frozenset()
    #: Static MLI candidates: globals / spec-function locals that a
    #: statically-inside instruction may access.
    candidate_ids: FrozenSet[VarId] = frozenset()
    #: True when an inside access resolved to TOP and the candidate set
    #: was widened to the whole global + spec-local universe.
    saw_top: bool = False

    @property
    def candidate_names(self) -> FrozenSet[str]:
        names = set()
        for var_id in self.candidate_ids:
            name = var_id_name(var_id)
            if name is not None:
                names.add(name)
        return frozenset(names)


# --------------------------------------------------------------------------- #
# Construction
# --------------------------------------------------------------------------- #
def _build_call_graph(module: Module) -> Dict[str, Set[str]]:
    graph: Dict[str, Set[str]] = {name: set() for name in module.functions}
    for name, function in module.functions.items():
        for inst in function.instructions():
            if (isinstance(inst, CallInst) and not isinstance(inst, PrintInst)
                    and not inst.is_builtin
                    and inst.callee in module.functions):
                graph[name].add(inst.callee)
    return graph


def _return_summaries(module: Module,
                      pointers: PointerAnalysis) -> Dict[str, Set[VarId]]:
    """``function -> may-sources of its return value`` (fixpoint)."""
    summaries: Dict[str, Set[VarId]] = {name: set()
                                        for name in module.functions}
    changed = True
    while changed:
        changed = False
        for name, function in module.functions.items():
            acc = set(summaries[name])
            for inst in function.instructions():
                if isinstance(inst, RetInst) and inst.operands:
                    acc |= value_sources(inst.operands[0], function,
                                         pointers, summaries)
            if acc != summaries[name]:
                summaries[name] = acc
                changed = True
    return summaries


def _build_static_ddg(module: Module, pointers: PointerAnalysis,
                      ret_summaries: Dict[str, Set[VarId]],
                      ) -> Tuple[StaticDDG, Dict[str, Dict[int, Set[VarId]]]]:
    ddg = StaticDDG()
    store_value_targets: Dict[str, Dict[int, Set[VarId]]] = {}
    for gvar in module.globals:
        ddg.add_node(global_id(gvar.name))
    for name, function in module.functions.items():
        by_rid: Dict[int, Set[VarId]] = {}
        store_value_targets[name] = by_rid
        for inst in function.instructions():
            if isinstance(inst, AllocaInst):
                ddg.add_node(local_id(name, inst.var_name))
            elif isinstance(inst, StoreInst):
                targets = pointers.resolve(inst.operands[1], function)
                sources = value_sources(inst.operands[0], function,
                                        pointers, ret_summaries)
                value = inst.operands[0]
                if isinstance(value, Register):
                    by_rid.setdefault(value.rid, set()).update(targets)
                for target in targets:
                    for source in sources:
                        ddg.add_edge(source, target)
                    if not sources:
                        ddg.add_node(target)
            elif (isinstance(inst, CallInst)
                    and not isinstance(inst, PrintInst)
                    and not inst.is_builtin
                    and inst.callee in module.functions):
                # The callee spills parameter p into its local p; route the
                # actual argument's sources into that local (the static twin
                # of the dynamic binding → var edge).  For a pointer-typed
                # actual the dynamic binding names the *pointed-to* variable
                # (an array decays through a GEP whose value sources are only
                # its indices), so the pointee set is the edge source there.
                for param, arg in zip(inst.param_names, inst.operands):
                    slot_id = local_id(inst.callee, param)
                    if isinstance(arg.type, PointerType):
                        sources = pointers.resolve(arg, function)
                    else:
                        sources = value_sources(arg, function, pointers,
                                                ret_summaries)
                    for source in sources:
                        ddg.add_edge(source, slot_id)
    return ddg, store_value_targets


def _statically_inside(module: Module, spec: MainLoopSpec,
                       summary: FunctionSummary,
                       ) -> Tuple[List[Tuple[Function, Instruction]],
                                  FrozenSet[str]]:
    """Instructions that may execute inside the main loop's dynamic extent.

    The dynamic extent is bounded by records at in-range spec-function
    lines; everything executed between them is loop-body code or callee
    code reached from it.  Statically that is covered by: blocks of every
    loop whose header line is in range, any spec-function instruction
    with an in-range line, and the whole bodies of transitively called
    functions.
    """
    function = summary.function
    inside: List[Tuple[Function, Instruction]] = []
    in_loop_blocks = set()
    for loop in summary.loop_info.loops_with_header_line(
            spec.start_line, spec.end_line):
        in_loop_blocks |= loop.blocks
    for block in function.blocks:
        for inst in block.instructions:
            if block in in_loop_blocks or (
                    inst.line and spec.contains_line(inst.line)):
                inside.append((function, inst))

    call_graph = _build_call_graph(module)
    seen: Set[str] = {function.name}
    work: List[str] = []
    for _, inst in inside:
        if (isinstance(inst, CallInst) and not isinstance(inst, PrintInst)
                and not inst.is_builtin and inst.callee in module.functions):
            work.append(inst.callee)
    while work:
        callee = work.pop()
        if callee in seen:
            continue
        seen.add(callee)
        callee_fn = module.functions[callee]
        inside.extend((callee_fn, inst) for inst in callee_fn.instructions())
        work.extend(call_graph.get(callee, set()))
    return inside, frozenset(seen)


def _candidate_universe(module: Module, spec: MainLoopSpec) -> Set[VarId]:
    universe: Set[VarId] = {global_id(g.name) for g in module.globals}
    function = module.functions.get(spec.function)
    if function is not None:
        for inst in function.instructions():
            if isinstance(inst, AllocaInst):
                universe.add(local_id(spec.function, inst.var_name))
    return universe


def _collect_candidates(module: Module, spec: MainLoopSpec,
                        summary: FunctionSummary,
                        pointers: PointerAnalysis,
                        ) -> Tuple[FrozenSet[VarId], FrozenSet[str], bool]:
    inside, inside_functions = _statically_inside(module, spec, summary)
    accessed: Set[VarId] = set()
    saw_top = False
    for owner, inst in inside:
        if isinstance(inst, (LoadInst, GEPInst)):
            pointer = inst.operands[0]
        elif isinstance(inst, StoreInst):
            pointer = inst.operands[1]
        else:
            continue
        targets = pointers.resolve(pointer, owner)
        if TOP in targets:
            saw_top = True
        accessed |= targets
    if saw_top:
        candidates = _candidate_universe(module, spec)
    else:
        # The dynamic MLI population is globals plus spec-function locals;
        # accesses resolving to other functions' locals can never join the
        # dynamic MLI set, so they are not candidates either.
        candidates = {
            var_id for var_id in accessed
            if var_id[0] == "g"
            or (var_id[0] == "l" and var_id[1] == spec.function)}
    return frozenset(candidates), inside_functions, saw_top


def analyze_module(module: Module, spec: Optional[MainLoopSpec] = None,
                   ) -> StaticModuleAnalysis:
    """Run the full static analysis over ``module``.

    Args:
        module: the compiled IR module.
        spec: the dynamic pipeline's main-loop location; enables the
            spec-derived results (static main loop, MLI candidates).

    Returns:
        The populated :class:`StaticModuleAnalysis`.
    """
    pointers = PointerAnalysis(module)
    read_summaries = compute_read_summaries(module, pointers)

    functions: Dict[str, FunctionSummary] = {}
    for name, function in module.functions.items():
        loop_info = find_loops(function)
        cfg = loop_info.cfg
        functions[name] = FunctionSummary(
            function=function,
            cfg=cfg,
            dom=loop_info.dom,
            loop_info=loop_info,
            defuse=build_def_use(function),
            liveness=compute_liveness(function, cfg, pointers,
                                      read_summaries),
        )

    ret_summaries = _return_summaries(module, pointers)
    static_ddg, store_value_targets = _build_static_ddg(
        module, pointers, ret_summaries)

    analysis = StaticModuleAnalysis(
        module=module,
        pointers=pointers,
        functions=functions,
        read_summaries=read_summaries,
        call_graph=_build_call_graph(module),
        static_ddg=static_ddg,
        store_value_targets=store_value_targets,
        spec=spec,
    )

    if spec is not None and spec.function in functions:
        summary = functions[spec.function]
        analysis.main_loop = find_main_loop(
            summary.function, spec.start_line, spec.end_line,
            loop_info=summary.loop_info)
        candidates, inside_functions, saw_top = _collect_candidates(
            module, spec, summary, pointers)
        analysis.candidate_ids = candidates
        analysis.inside_functions = inside_functions
        analysis.saw_top = saw_top
    return analysis
