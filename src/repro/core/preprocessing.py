"""Pre-processing: MLI-variable identification (paper Fig. 3).

Implements the workflow of paper Fig. 3 as one pass of the engine walk:

1. the walk partitions the dynamic trace into Part A (before the main
   computation loop), Part B (the main computation loop's dynamic extent)
   and Part C (after the loop), using the loop's source line range and
   containing function supplied by the user (see
   :class:`repro.core.engine.AnalysisEngine`);
2. :class:`MLICollectionPass` collects the variables accessed in Part A and
   in Part B — bypassing the intervals of function calls inside the loop
   (Challenge 1, Sec. V-B) and resolving every access to its owning
   allocation by memory address (Challenge 2, Sec. V-C) through the
   bisect-indexed live-interval store of
   :class:`repro.core.varmap.VariableMap` (O(log intervals) per access, no
   per-element index);
3. the two collections are matched: variables accessed both before and
   inside the loop are the Main-Loop-Input (MLI) variables.

Note on "arithmetic variables": the paper collects variables *participating
in arithmetic operations*.  At ``-O0`` every interesting variable access goes
through ``Load``/``Store`` (array accesses additionally through
``GetElementPtr``), and plain definitions such as ``sum = 0`` must also be
collected for the matching to work (``sum``/``s``/``r`` in the paper's own
Fig. 4 example are initialised by constant stores).  We therefore collect the
memory operands of ``Load``/``Store``/``GetElementPtr`` records; this is the
superset interpretation that reproduces the paper's reported MLI sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import MainLoopSpec
from repro.core.engine import REGION_AFTER, AnalysisPass, SpanSelection
from repro.core.varmap import VariableInfo, VariableMap
from repro.ir.opcodes import Opcode

#: memo-miss sentinel (``None`` is a valid resolution outcome)
_MISS = object()

#: opcode -> index of the pointer operand the MLI pass collects from
_POINTER_OPERAND = {
    int(Opcode.LOAD): 0, int(Opcode.STORE): 1, int(Opcode.GETELEMENTPTR): 0}

#: the opcodes that carry a pointer operand — what the MLI span selection
#: picks
_POINTER_OPCODES = tuple(_POINTER_OPERAND)


@dataclass(frozen=True)
class MLIVariable:
    """One Main-Loop-Input variable."""

    info: VariableInfo

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def base_address(self) -> int:
        return self.info.base_address

    @property
    def is_array(self) -> bool:
        return self.info.is_array

    @property
    def size_bytes(self) -> int:
        return self.info.size_bytes

    @property
    def key(self) -> str:
        return self.info.key


@dataclass
class PreprocessingResult:
    """Output of the pre-processing module."""

    variable_map: VariableMap
    mli_variables: List[MLIVariable]
    before_variables: Dict[str, VariableInfo]
    inside_variables: Dict[str, VariableInfo]

    def mli_names(self) -> List[str]:
        return [var.name for var in self.mli_variables]

    def mli_keys(self) -> List[str]:
        return [var.key for var in self.mli_variables]

    def find(self, name: str) -> Optional[MLIVariable]:
        for var in self.mli_variables:
            if var.name == name:
                return var
        return None


def _match_mli(before_vars: Dict[str, VariableInfo],
               inside_vars: Dict[str, VariableInfo]) -> List[MLIVariable]:
    """Variables accessed both before and inside the loop, stably ordered."""
    mli = [MLIVariable(info=info) for key, info in inside_vars.items()
           if key in before_vars]
    # Stable, readable order: globals first, then by name.
    mli.sort(key=lambda var: (not var.info.is_global, var.name))
    return mli


class MLICollectionPass(AnalysisPass):
    """Engine pass: collect the before/inside variable sets in one walk.

    The collection rules: memory operands of ``Load``/``Store``/
    ``GetElementPtr`` records, records of other functions bypassed
    (Challenge 1) unless the global-access switch admits globals they
    touch.  Resolution goes through the engine's shared *live* map, i.e.
    against the allocations live at each access's own execution time.  The
    shared map indexes *every* function's allocations, but MLI candidates
    are globals and the main-loop function's own allocations (Challenge 2):
    a resolved owner outside that population (e.g. a live ancestor frame's
    local, reachable through a pointer when the main loop lives in a nested
    function) is rejected.

    Register this pass *first*: later passes (DDG, R/W extraction) read
    ``before_vars``/``inside_vars`` to decide MLI candidacy and must observe
    the sets updated through the current segment.
    """

    def __init__(self, varmap: VariableMap, spec: MainLoopSpec,
                 include_global_accesses_in_calls: bool = False) -> None:
        self.varmap = varmap
        self.spec = spec
        self.include_global_accesses_in_calls = include_global_accesses_in_calls
        self.before_vars: Dict[str, VariableInfo] = {}
        self.inside_vars: Dict[str, VariableInfo] = {}
        self.mli_variables: List[MLIVariable] = []
        #: columnar resolution memo + the map revision it is valid for
        self._col_memo: Dict = {}
        self._col_memo_rev = -1

    def select_span(self, block, lo: int, hi: int,
                    region: int) -> Optional[SpanSelection]:
        """Load/GEP/Store rows of the span — without the global-access
        switch only the spec function's (a foreign-function record can
        only collect through that switch)."""
        if region == REGION_AFTER:
            return None
        spec_fid = (None if self.include_global_accesses_in_calls
                    else block.id_of.get(self.spec.function, -1))
        return SpanSelection(block.match_rows(lo, hi, _POINTER_OPCODES,
                                              function_id=spec_fid))

    def consume_selected(self, block, region: int, selected) -> None:
        """Collect the segment's accessed variables, straight off the
        columns."""
        opcode = block.opcode
        function_id = block.function_id
        op_start = block.op_start
        has_result = block.has_result
        op_address = block.op_address
        resolve = self.varmap.resolve
        pointer_operand = _POINTER_OPERAND
        spec_function = self.spec.function
        spec_fid = block.id_of.get(spec_function, -1)
        include = self.include_global_accesses_in_calls
        sink = self.inside_vars if region else self.before_vars
        # Per-address resolutions memoize while the live map's revision is
        # unchanged (only scope records between segments can mutate it;
        # the revision check at segment entry catches exactly those).
        memo = self._col_memo
        if self._col_memo_rev != self.varmap.revision:
            self._col_memo_rev = self.varmap.revision
            memo.clear()
        memo_get = memo.get
        miss = _MISS
        for row in selected:
            operand_index = pointer_operand[opcode[row]]
            lo_slot = op_start[row]
            if op_start[row + 1] - lo_slot - has_result[row] <= operand_index:
                continue
            address = op_address[lo_slot + operand_index]
            if address is None:
                continue
            info = memo_get(address, miss)
            if info is miss:
                info = resolve(address)
                memo[address] = info
            if info is None:
                continue
            if not (info.is_global or info.function == spec_function):
                continue
            if function_id[row] != spec_fid and not (include
                                                     and info.is_global):
                continue
            if info.key not in sink:
                sink[info.key] = info

    def finalize(self) -> None:
        self.mli_variables = _match_mli(self.before_vars, self.inside_vars)

    def result(self) -> PreprocessingResult:
        """Package the collected sets as a :class:`PreprocessingResult`."""
        return PreprocessingResult(
            variable_map=self.varmap,
            mli_variables=self.mli_variables,
            before_variables=self.before_vars,
            inside_variables=self.inside_vars,
        )
