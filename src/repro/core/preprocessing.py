"""Pre-processing: MLI-variable identification (paper Fig. 3).

Implements the workflow of paper Fig. 3 as one pass of the engine walk:

1. the walk partitions the dynamic trace into Part A (before the main
   computation loop), Part B (the main computation loop's dynamic extent)
   and Part C (after the loop), using the loop's source line range and
   containing function supplied by the user (see
   :class:`repro.core.engine.AnalysisEngine`);
2. :class:`MLICollectionPass` collects the variables accessed in Part A and
   in Part B — bypassing the intervals of function calls inside the loop
   (Challenge 1, Sec. V-B) and attributing every access to its owning
   allocation by memory address (Challenge 2, Sec. V-C).  It reads the
   owners from each span's access table
   (:class:`repro.core.engine.AccessTable`), where the engine resolved
   every memory operand once against the live interval store of
   :class:`repro.core.varmap.VariableMap`, and collects a whole span with
   numpy masks and one ``np.unique``;
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

import numpy as np

from repro.core.config import MainLoopSpec
from repro.core.engine import REGION_AFTER, AccessTable, AnalysisPass
from repro.core.varmap import OwnerColumn, VariableInfo, VariableMap


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
    touch.  Each span's accesses come from the engine's access table, so
    every owner is the allocation live at the access's own execution time.
    The shared map indexes *every* function's allocations, but MLI
    candidates are globals and the main-loop function's own allocations
    (Challenge 2, :meth:`~repro.core.config.MainLoopSpec.is_candidate`): a
    resolved owner outside that population (e.g. a live ancestor frame's
    local, reachable through a pointer when the main loop lives in a
    nested function) is rejected.

    A span's variables are collected when the span ends, in the order of
    their first access; the sets are final once the walk is.
    """

    def __init__(self, varmap: VariableMap, spec: MainLoopSpec,
                 include_global_accesses_in_calls: bool = False) -> None:
        self.varmap = varmap
        self.spec = spec
        self.include_global_accesses_in_calls = include_global_accesses_in_calls
        self.before_vars: Dict[str, VariableInfo] = {}
        self.inside_vars: Dict[str, VariableInfo] = {}
        self.mli_variables: List[MLIVariable] = []
        #: per owner: a global, or an allocation of the main-loop function
        self._candidate = OwnerColumn(varmap, spec.is_candidate, bool)
        self._is_global = OwnerColumn(varmap, lambda info: info.is_global,
                                      bool)

    def close_span(self, table: AccessTable, region: int) -> None:
        """Collect the span's accessed variables in first-access order."""
        if region == REGION_AFTER or not len(table):
            return
        owners = table.owner_ids()
        keep = np.flatnonzero(owners >= 0)
        owners = owners[keep]
        qualifies = self._candidate.array()[owners]
        block = table.block
        in_spec = (table.canonical(block.function_id[table.rows[keep]])
                   == block.id_of.get(self.spec.function, -1))
        if self.include_global_accesses_in_calls:
            in_spec |= self._is_global.array()[owners]
        owners = owners[qualifies & in_spec]
        if not owners.size:
            return
        unique, first = np.unique(owners, return_index=True)
        registrations = self.varmap.registrations
        sink = self.inside_vars if region else self.before_vars
        for owner in unique[np.argsort(first)].tolist():
            info = registrations[owner]
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
