"""Critical-variable identification heuristics (paper Sec. IV-C, Fig. 7).

Four dependency classes are recognised:

* **WAR** (Write-After-Read): within the loop the variable is read before it
  is (later) overwritten, i.e. its value carries information across
  iterations — it must be checkpointed or the restarted loop would consume a
  stale value.
* **RAPO** (Read-After-Partially-Overwritten): an array whose leading writes
  in an iteration only touch part of its elements before it is read — the
  untouched elements carry state from earlier iterations.
* **Outcome**: the main loop's output — written in the loop and read after
  it.
* **Index**: the outermost induction variable of the main computation loop
  (identified statically; always checkpointed so the restart can jump to the
  right iteration).

Priority when several classes apply: Index, then WAR, then RAPO, then
Outcome (matching how the paper labels its Table II variables, e.g. FT's
``y`` is WAR even though it is also read after the loop, while ``sum`` is the
Outcome).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.preprocessing import PreprocessingResult
from repro.core.report import CriticalVariable, DependencyType
from repro.core.rwdeps import RWDependencies
from repro.core.varmap import VariableInfo


def _is_war(writes) -> bool:
    """First loop access is a read and a later write exists.

    ``writes`` is the variable's loop events' write column, in stream
    order."""
    return bool(writes.size) and not writes[0] and bool(writes[1:].any())


def _is_rapo(info: VariableInfo, writes, offsets, post_count: int) -> bool:
    """Array partially overwritten before being read (in or after the loop).

    ``offsets`` are the loop events' element offsets, relative to the
    array's base address, so the coverage check against
    ``info.element_count`` holds for any array size.
    """
    if not info.is_array or not writes.size or not writes[0]:
        return False
    reads = np.flatnonzero(~writes)
    if not reads.size and not post_count:
        return False
    leading = offsets[:reads[0]] if reads.size else offsets
    return len(set(leading.tolist())) < info.element_count


def _is_outcome(writes, post_writes) -> bool:
    """Written inside the loop and read after it."""
    return (bool(post_writes.size) and bool(writes.any())
            and not bool(post_writes.all()))


def classify_variables(preprocessing: PreprocessingResult,
                       rw: RWDependencies,
                       induction: Optional[str] = None,
                       induction_info: Optional[VariableInfo] = None,
                       ) -> List[CriticalVariable]:
    """Apply the WAR / RAPO / Outcome / Index heuristics.

    ``induction`` is the name of the outermost main-loop induction variable
    (from the static loop analysis); it is reported with the *Index* class
    and excluded from the other heuristics even if it also matches them.
    """
    critical: List[CriticalVariable] = []
    induction_key: Optional[str] = None

    for variable in preprocessing.mli_variables:
        info = variable.info
        if induction is not None and info.name == induction:
            induction_key = info.key
            continue
        events = rw.accesses_of(info.key)
        post_writes = rw.accesses_of(info.key, post=True).write
        dependency: Optional[DependencyType] = None
        if _is_war(events.write):
            dependency = DependencyType.WAR
        elif _is_rapo(info, events.write, events.offset, post_writes.size):
            dependency = DependencyType.RAPO
        elif _is_outcome(events.write, post_writes):
            dependency = DependencyType.OUTCOME
        if dependency is not None:
            critical.append(CriticalVariable(
                name=info.name,
                dependency=dependency,
                size_bytes=info.size_bytes,
                base_address=info.base_address,
                decl_line=info.decl_line,
                is_array=info.is_array,
                is_global=info.is_global,
            ))

    if induction is not None:
        info = induction_info
        if info is None:
            mli_match = next((var.info for var in preprocessing.mli_variables
                              if var.name == induction), None)
            info = mli_match
        critical.append(CriticalVariable(
            name=induction,
            dependency=DependencyType.INDEX,
            size_bytes=info.size_bytes if info else 4,
            base_address=info.base_address if info else 0,
            decl_line=info.decl_line if info else 0,
            is_array=False,
            is_global=info.is_global if info else False,
        ))

    return critical
