"""The static-vs-dynamic cross-check oracle.

The dynamic pipeline's results come from one path — instrument, trace,
walk — so a bug in the walk has no independent witness.  This module is
that witness: :func:`cross_check` takes a finished
:class:`~repro.core.report.AutoCheckReport` and the module it was traced
from, and verifies the dynamic answers against the static
over-approximation of :mod:`repro.static.summary`:

* the main computation loop exists statically where the
  :class:`~repro.core.config.MainLoopSpec` says it is;
* every dynamic MLI variable is a static MLI candidate
  (``dynamic MLI ⊆ static candidates``);
* every edge of the dynamic complete DDG is statically feasible — a
  register edge must match an operand of the register's defining
  instruction, a ``var → register`` edge must come from a load that may
  read that variable, a ``register → var`` edge from a store that may
  write it, and a ``var → var`` edge must have an ancestor path in the
  static DDG;
* every contracted-DDG edge is covered by static var-level ancestry.

Each violation is a **named** :class:`StaticDiagnostic` carrying
structured context (diagnostic code, function, block, instruction index,
offending edge) rather than a bare string — the shape the fleet tests
and the ``--static-check`` CLI flag assert on.  An empty return value
means the oracle passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.core.config import MainLoopSpec
from repro.core.ddg import DDG, NodeKind
from repro.core.report import AutoCheckReport
from repro.ir.instructions import LoadInst
from repro.ir.module import Module
from repro.static.dataflow import TOP, VarId, local_id
from repro.static.summary import StaticModuleAnalysis, analyze_module

#: Diagnostic codes (the "name" of a named diagnostic).
SPEC_FUNCTION_MISSING = "SPEC_FUNCTION_MISSING"
STATIC_MAIN_LOOP_NOT_FOUND = "STATIC_MAIN_LOOP_NOT_FOUND"
MLI_NOT_STATIC_CANDIDATE = "MLI_NOT_STATIC_CANDIDATE"
UNKNOWN_REGISTER = "UNKNOWN_REGISTER"
INFEASIBLE_DDG_EDGE = "INFEASIBLE_DDG_EDGE"
INFEASIBLE_CONTRACTED_EDGE = "INFEASIBLE_CONTRACTED_EDGE"


@dataclass(frozen=True)
class StaticDiagnostic:
    """One cross-check violation, with structured context.

    ``code`` names the violation class (one of the module-level
    constants); the location fields are filled in as far as the static
    side can attribute the problem (a register edge names the defining
    instruction's function, block and in-block index).
    """

    code: str
    message: str
    function: Optional[str] = None
    block: Optional[str] = None
    instruction_index: Optional[int] = None
    edge: Optional[Tuple[str, str]] = None

    def __str__(self) -> str:
        parts = [f"{self.code}: {self.message}"]
        context = []
        if self.function is not None:
            context.append(f"function={self.function}")
        if self.block is not None:
            context.append(f"block={self.block}")
        if self.instruction_index is not None:
            context.append(f"instruction={self.instruction_index}")
        if self.edge is not None:
            context.append(f"edge={self.edge[0]} -> {self.edge[1]}")
        if context:
            parts.append(" [" + ", ".join(context) + "]")
        return "".join(parts)


class StaticCheckError(Exception):
    """Raised by :func:`require_clean` when the oracle found violations."""

    def __init__(self, diagnostics: List[StaticDiagnostic]) -> None:
        self.diagnostics = diagnostics
        lines = [f"static cross-check failed with "
                 f"{len(diagnostics)} diagnostic(s):"]
        lines.extend(f"  - {diag}" for diag in diagnostics)
        super().__init__("\n".join(lines))


# --------------------------------------------------------------------------- #
# Dynamic DDG node decoding
# --------------------------------------------------------------------------- #
def _node_var_ids(key: str, kind: NodeKind,
                  analysis: StaticModuleAnalysis) -> Optional[Set[VarId]]:
    """The abstract ids a dynamic var node may stand for, or ``None`` for
    register nodes.

    A ``name@addr`` key drops the owning function, so the name maps to
    *every* known id carrying it (name-level conservative); a ``f:name``
    fallback local is exact.
    """
    if kind is NodeKind.REGISTER:
        return None
    if "@" in key:
        name = key.rsplit("@", 1)[0]
        ids = analysis.static_ddg.ids_for_name(name)
        return ids if ids else None
    if ":" in key:
        function, _, name = key.partition(":")
        return {local_id(function, name)}
    ids = analysis.static_ddg.ids_for_name(key)
    return ids if ids else None


def _register_ref(key: str) -> Optional[Tuple[str, int]]:
    """Parse a ``function%rid`` register key."""
    function, sep, rid = key.rpartition("%")
    if not sep:
        return None
    try:
        return function, int(rid)
    except ValueError:
        return None


def _register_context(analysis: StaticModuleAnalysis, function: str,
                      rid: int) -> Tuple[Optional[str], Optional[int]]:
    summary = analysis.functions.get(function)
    if summary is None:
        return None, None
    site = summary.defuse.defs.get(rid)
    if site is None:
        return None, None
    return site.block.name, site.index


# --------------------------------------------------------------------------- #
# Edge feasibility
# --------------------------------------------------------------------------- #
def _call_adjacent(analysis: StaticModuleAnalysis, f: str, g: str) -> bool:
    return (g in analysis.call_graph.get(f, set())
            or f in analysis.call_graph.get(g, set()))


def _check_edge(parent_key: str, child_key: str, ddg: DDG,
                analysis: StaticModuleAnalysis,
                diagnostics: List[StaticDiagnostic]) -> None:
    parent_kind = ddg.node(parent_key).kind
    child_kind = ddg.node(child_key).kind
    edge = (parent_key, child_key)

    child_reg = (_register_ref(child_key)
                 if child_kind is NodeKind.REGISTER else None)
    parent_reg = (_register_ref(parent_key)
                  if parent_kind is NodeKind.REGISTER else None)

    if child_reg is not None:
        function, rid = child_reg
        defs = analysis.pointers.defs.get(function)
        if defs is None or rid not in defs:
            block, index = _register_context(analysis, function, rid)
            diagnostics.append(StaticDiagnostic(
                code=UNKNOWN_REGISTER,
                message=(f"dynamic DDG references register %{rid} of "
                         f"{function!r}, which the IR never defines"),
                function=function, block=block, instruction_index=index,
                edge=edge))
            return
        def_inst = defs[rid]
        block, index = _register_context(analysis, function, rid)
        if parent_reg is not None:
            pfunc, prid = parent_reg
            if pfunc == function:
                operand_rids = {op.rid for op in def_inst.operands
                                if op.is_register}
                if prid in operand_rids:
                    return
            elif _call_adjacent(analysis, function, pfunc):
                # Cross-function register flow rides the call/return
                # machinery; adjacency in the call graph is the static
                # envelope for it.
                return
            diagnostics.append(StaticDiagnostic(
                code=INFEASIBLE_DDG_EDGE,
                message=(f"register edge {parent_key} -> {child_key} does "
                         f"not match any operand of %{rid}'s defining "
                         f"instruction"),
                function=function, block=block, instruction_index=index,
                edge=edge))
            return
        parent_ids = _node_var_ids(parent_key, parent_kind, analysis)
        if parent_ids is None:
            # The static side never saw this variable name — nothing to
            # contradict (conservative pass).
            return
        if isinstance(def_inst, LoadInst):
            pointees = analysis.pointers.resolve(
                def_inst.operands[0], analysis.functions[function].function)
            if TOP in pointees or pointees & parent_ids:
                return
        diagnostics.append(StaticDiagnostic(
            code=INFEASIBLE_DDG_EDGE,
            message=(f"variable edge {parent_key} -> {child_key} has no "
                     f"load of that variable defining %{rid}"),
            function=function, block=block, instruction_index=index,
            edge=edge))
        return

    child_ids = _node_var_ids(child_key, child_kind, analysis)
    if child_ids is None:
        return
    if parent_reg is not None:
        pfunc, prid = parent_reg
        targets = analysis.store_value_targets.get(pfunc, {}).get(prid)
        if targets is not None and (TOP in targets or targets & child_ids):
            return
        block, index = _register_context(analysis, pfunc, prid)
        diagnostics.append(StaticDiagnostic(
            code=INFEASIBLE_DDG_EDGE,
            message=(f"store edge {parent_key} -> {child_key}: no store of "
                     f"%{prid} may write that variable"),
            function=pfunc, block=block, instruction_index=index, edge=edge))
        return

    parent_ids = _node_var_ids(parent_key, parent_kind, analysis)
    if parent_ids is None:
        return
    for child_id in child_ids:
        for parent_id in parent_ids:
            if analysis.static_ddg.may_depend(child_id, parent_id):
                return
    diagnostics.append(StaticDiagnostic(
        code=INFEASIBLE_DDG_EDGE,
        message=(f"variable edge {parent_key} -> {child_key} has no "
                 f"static dependence path"),
        edge=edge))


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def cross_check(module: Module, spec: MainLoopSpec,
                report: AutoCheckReport, *,
                analysis: Optional[StaticModuleAnalysis] = None,
                ) -> List[StaticDiagnostic]:
    """Verify ``report`` against the static analysis of ``module``.

    Returns the (possibly empty) list of violations; never raises on a
    violation — use :func:`require_clean` for the raising form.
    """
    diagnostics: List[StaticDiagnostic] = []
    if spec.function not in module.functions:
        diagnostics.append(StaticDiagnostic(
            code=SPEC_FUNCTION_MISSING,
            message=(f"main-loop function {spec.function!r} does not exist "
                     f"in the module"),
            function=spec.function))
        return diagnostics
    if analysis is None:
        analysis = analyze_module(module, spec=spec)

    if analysis.main_loop is None:
        diagnostics.append(StaticDiagnostic(
            code=STATIC_MAIN_LOOP_NOT_FOUND,
            message=(f"no natural loop of {spec.function!r} has its header "
                     f"branch in lines {spec.mclr}"),
            function=spec.function))

    candidate_names = analysis.candidate_names
    for name in report.mli_variable_names:
        if name not in candidate_names:
            diagnostics.append(StaticDiagnostic(
                code=MLI_NOT_STATIC_CANDIDATE,
                message=(f"dynamic MLI variable {name!r} is not in the "
                         f"static candidate set "
                         f"({len(candidate_names)} candidates)"),
                function=spec.function))

    complete = report.complete_ddg
    if isinstance(complete, DDG):
        for parent_key, child_key in sorted(complete.edges()):
            _check_edge(parent_key, child_key, complete, analysis,
                        diagnostics)

    contracted = report.contracted_ddg
    if isinstance(contracted, DDG):
        for parent_key, child_key in sorted(contracted.edges()):
            parent_ids = _node_var_ids(
                parent_key, contracted.node(parent_key).kind, analysis)
            child_ids = _node_var_ids(
                child_key, contracted.node(child_key).kind, analysis)
            if parent_ids is None or child_ids is None:
                continue
            feasible = any(
                analysis.static_ddg.may_depend(child_id, parent_id)
                for child_id in child_ids for parent_id in parent_ids)
            if not feasible:
                diagnostics.append(StaticDiagnostic(
                    code=INFEASIBLE_CONTRACTED_EDGE,
                    message=(f"contracted edge {parent_key} -> {child_key} "
                             f"has no static dependence path"),
                    edge=(parent_key, child_key)))
    return diagnostics


def require_clean(module: Module, spec: MainLoopSpec,
                  report: AutoCheckReport, *,
                  analysis: Optional[StaticModuleAnalysis] = None) -> None:
    """:func:`cross_check`, raising :class:`StaticCheckError` on violations."""
    diagnostics = cross_check(module, spec, report, analysis=analysis)
    if diagnostics:
        raise StaticCheckError(diagnostics)
