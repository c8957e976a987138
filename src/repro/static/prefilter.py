"""Static engine prefilter: skip pass dispatch for records the IR proves
irrelevant.

The :class:`~repro.core.engine.AnalysisEngine` decodes every record and
dispatches it to every subscribed pass, even when the static analysis
can prove the record cannot contribute to the report.  This module turns
the static MLI-candidate set of :mod:`repro.static.summary` into a
per-record skip decision the engine consults **outside the loop region**:

* ``REGION_INSIDE`` records are never skipped — the dependency pass
  materializes every inside record into the serialized complete DDG, so
  the inside region is bit-for-bit load-bearing;
* outside the loop, only ``Load`` / ``Store`` / ``GetElementPtr``
  records can reach a pass that does anything (the pipeline's passes
  gate every other kind to the inside region), so other kinds
  skip unconditionally — and ``GetElementPtr`` also skips in the after
  region, where only the R/W extraction (loads/stores) listens;
* a memory record skips when its pointer operand provably resolves only
  to variables outside the candidate set: register operands through the
  per-function may-point-to sets (``skip_registers``), named
  global/argument operands through a name check (``skip_names``).

Soundness leans on ``dynamic MLI ⊆ static candidates`` (the cross-check
oracle's invariant) plus the in-bounds-indexing assumption spelled out
in ``docs/static.md``: a pointer that statically addresses only
non-candidate variables must not alias a candidate at run time.  Report
equality under the prefilter is asserted fleet-wide by
``tests/test_static_prefilter.py`` and ``benchmarks/bench_static_prefilter.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Tuple

from repro.core.engine import REGION_BEFORE
from repro.ir.instructions import (
    AllocaInst,
    BitCastInst,
    CastInst,
    GEPInst,
    LoadInst,
)
from repro.ir.opcodes import Opcode
from repro.ir.types import PointerType
from repro.static.dataflow import TOP, global_id, local_id, var_id_name
from repro.static.summary import StaticModuleAnalysis
from repro.trace.records import TraceRecord

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_GEP = int(Opcode.GETELEMENTPTR)

#: opcode -> index of the pointer operand in the trace record.
_POINTER_OPERAND = {_LOAD: 0, _STORE: 1, _GEP: 0}

#: opcodes that skip unconditionally outside the loop region: every kind
#: that is not a Load/Store/GEP reaches no pipeline pass there, so
#: the engine can resolve them with a set-membership test and never call
#: into the filter (the per-record call overhead would otherwise eat the
#: savings on arithmetic/branch-heavy traces).
ALWAYS_SKIP_OPCODES = frozenset(
    int(op) for op in Opcode if int(op) not in _POINTER_OPERAND)


@dataclass(frozen=True)
class StaticPrefilter:
    """Skip tables handed to the engine (immutable once built).

    ``skip_registers[fn]`` holds the *operand names* of registers (the
    trace spells register operands as their rid string) whose static
    pointee sets are fully known and candidate-free; ``skip_names[fn]``
    holds non-register operand names — globals, ``fn``'s locals and
    parameter bindings — every possible referent of which is provably
    non-candidate in ``fn``.  ``fingerprint`` is the owning analysis'
    digest — it joins the artifact-store cache key when prefiltering is
    on.
    """

    spec_function: str
    include_global_accesses_in_calls: bool
    skip_registers: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    skip_names: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    fingerprint: str = ""

    def should_skip(self, record: TraceRecord, region: int) -> bool:
        """Decide one record (the engine only asks outside the loop).

        The engine guarantees ``region != REGION_INSIDE`` here; the
        filter never needs to (and never may) reason about inside
        records.
        """
        operand_index = _POINTER_OPERAND.get(record.opcode)
        if operand_index is None:
            # Non-memory kinds reach no pass outside the loop region.
            return True
        if region == REGION_BEFORE:
            if (record.function != self.spec_function
                    and not self.include_global_accesses_in_calls):
                # The MLI collection rejects foreign-function records
                # outright when the global-access switch is off, and
                # nothing else listens before the loop.
                return True
        elif record.opcode == _GEP:
            # After the loop only the R/W extraction listens, and it only
            # handles loads and stores.
            return True
        operands = record.operands
        if len(operands) <= operand_index:
            return False
        operand = operands[operand_index]
        if operand.is_register:
            table = self.skip_registers.get(record.function)
        else:
            table = self.skip_names.get(record.function)
        return table is not None and operand.name in table

    def make_skip_plan(self) -> Tuple[
            FrozenSet[int], Callable[[TraceRecord, int], bool]]:
        """Build the engine's fast dispatch plan.

        Returns ``(always_skip_opcodes, memory_skip)``: a frozenset of raw
        opcode values the engine may skip outside the loop with a bare
        membership test, and a closure deciding the remaining (Load /
        Store / GEP) records.  The closure binds every table and constant
        as a local so the per-record cost stays well under the pass
        callbacks it replaces; it is semantically the restriction of
        :meth:`should_skip` to memory opcodes.
        """
        pointer_operand = _POINTER_OPERAND
        gep = _GEP
        region_before = REGION_BEFORE
        spec_function = self.spec_function
        include = self.include_global_accesses_in_calls
        registers_get = dict(self.skip_registers).get
        names_get = dict(self.skip_names).get

        def memory_skip(record: TraceRecord, region: int) -> bool:
            function = record.function
            if region == region_before:
                if function != spec_function and not include:
                    return True
            elif record.opcode == gep:
                return True
            operands = record.operands
            operand_index = pointer_operand[record.opcode]
            if len(operands) <= operand_index:
                return False
            operand = operands[operand_index]
            table = (registers_get(function) if operand.is_register
                     else names_get(function))
            return table is not None and operand.name in table

        return ALWAYS_SKIP_OPCODES, memory_skip

    def skippable_count(self) -> int:
        """Total skip-table entries (for reports and sanity checks)."""
        return (sum(len(v) for v in self.skip_registers.values())
                + sum(len(v) for v in self.skip_names.values()))


def build_prefilter(analysis: StaticModuleAnalysis) -> StaticPrefilter:
    """Derive the skip tables from a spec-bearing static analysis.

    A register is skippable in its function when every variable its
    pointer chain may address is known (no :data:`TOP`) and none is a
    static MLI candidate.  A name is skippable in a function when every
    variable the name can refer to there — the global of that name, the
    function's own local of that name, and for parameter names the full
    interprocedural pointee set of the parameter — is known, TOP-free
    and candidate-free.
    """
    if analysis.spec is None:
        raise ValueError("build_prefilter needs a spec-bearing analysis "
                         "(analyze_module(..., spec=...))")
    candidates = analysis.candidate_ids
    skip_registers: Dict[str, FrozenSet[str]] = {}
    skip_names: Dict[str, FrozenSet[str]] = {}
    for name, summary in analysis.functions.items():
        function = summary.function
        registers = set()
        for rid, site in summary.defuse.defs.items():
            inst = site.inst
            if not isinstance(inst, (AllocaInst, GEPInst, BitCastInst,
                                     CastInst, LoadInst)):
                continue
            result = inst.result
            if result is None or not isinstance(result.type, PointerType):
                continue
            pointees = analysis.pointers.resolve(result, function)
            if not pointees:
                continue
            if TOP in pointees or pointees & candidates:
                continue
            registers.add(str(rid))
        if registers:
            skip_registers[name] = frozenset(registers)

        # Named (non-register) pointer operands: the tracer resolves most
        # pointer chains down to a variable name, so this is the table
        # that carries the skip volume.  A name is skippable in this
        # function only when *every* variable it can refer to here — the
        # global of that name, this function's local of that name, and
        # (for parameter names) everything the parameter may point to —
        # is known, TOP-free and candidate-free.
        bearers: Dict[str, set] = {}
        for gvar in analysis.module.globals:
            bearers.setdefault(gvar.name, set()).add(global_id(gvar.name))
        for inst in function.instructions():
            if isinstance(inst, AllocaInst) and inst.var_name:
                bearers.setdefault(inst.var_name, set()).add(
                    local_id(name, inst.var_name))
        for param, pointees in \
                analysis.pointers.param_pointees.get(name, {}).items():
            bearers.setdefault(param, set()).update(pointees)
            # A resolved binding is spelled with the *pointee's* name, so
            # the pointee also bears its own name in this function.
            for var_id in pointees:
                pointee_name = var_id_name(var_id)
                if pointee_name is not None:
                    bearers.setdefault(pointee_name, set()).add(var_id)
                else:
                    bearers.setdefault(param, set()).add(TOP)
        names = {
            bearer_name for bearer_name, ids in bearers.items()
            if ids and TOP not in ids and not ids & candidates}
        if names:
            skip_names[name] = frozenset(names)

    return StaticPrefilter(
        spec_function=analysis.spec.function,
        include_global_accesses_in_calls=(
            analysis.include_global_accesses_in_calls),
        skip_registers=skip_registers,
        skip_names=skip_names,
        fingerprint=analysis.fingerprint(),
    )
