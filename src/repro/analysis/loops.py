"""Natural-loop detection over the IR control-flow graph.

A natural loop is identified by a back edge ``latch -> header`` where the
header dominates the latch; its body is the set of blocks that can reach the
latch without passing through the header.  Loops sharing a header are merged
(as LLVM's ``LoopInfo`` does), and a parent/child nesting forest is built so
the *outermost* loop containing the main computation range can be selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.analysis.dominators import DominatorTree, compute_dominators
from repro.ir.module import BasicBlock, Function


@dataclass(eq=False)
class Loop:
    """A single natural loop."""

    header: BasicBlock
    blocks: Set[BasicBlock] = field(default_factory=set)
    latches: List[BasicBlock] = field(default_factory=list)
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        depth = 1
        current = self.parent
        while current is not None:
            depth += 1
            current = current.parent
        return depth

    @property
    def is_outermost(self) -> bool:
        return self.parent is None

    @property
    def header_line(self) -> int:
        """Source line of the loop's controlling branch (the header terminator)."""
        terminator = self.header.terminator
        if terminator is not None and terminator.line:
            return terminator.line
        return self.header.first_line

    def line_range(self) -> range:
        """Conservative source line span covered by the loop body."""
        lines = [inst.line for block in self.blocks for inst in block.instructions
                 if inst.line]
        if not lines:
            return range(0, 0)
        return range(min(lines), max(lines) + 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Loop header={self.header.name} depth={self.depth} "
                f"blocks={len(self.blocks)}>")


@dataclass
class LoopInfo:
    """All loops of a function plus the CFG/dominator artefacts used."""

    function: Function
    cfg: ControlFlowGraph
    dom: DominatorTree
    loops: List[Loop] = field(default_factory=list)

    def outermost(self) -> List[Loop]:
        return [loop for loop in self.loops if loop.is_outermost]

    def loops_with_header_line(self, start_line: int, end_line: int) -> List[Loop]:
        return [loop for loop in self.loops
                if start_line <= loop.header_line <= end_line]


def _collect_loop_body(header: BasicBlock, latch: BasicBlock,
                       cfg: ControlFlowGraph) -> Set[BasicBlock]:
    body: Set[BasicBlock] = {header, latch}
    work: List[BasicBlock] = [latch]
    while work:
        block = work.pop()
        if block is header:
            continue
        for pred in cfg.predecessors.get(block, []):
            if pred not in body:
                body.add(pred)
                work.append(pred)
    return body


def find_loops(function: Function) -> LoopInfo:
    """Detect all natural loops of ``function`` and build the nesting forest."""
    cfg = build_cfg(function)
    dom = compute_dominators(cfg)
    reachable = cfg.reachable_blocks()

    by_header: Dict[BasicBlock, Loop] = {}
    for block in function.blocks:
        if block not in reachable:
            continue
        for succ in cfg.successors.get(block, []):
            if dom.dominates(succ, block):
                # back edge block -> succ
                loop = by_header.setdefault(succ, Loop(header=succ))
                loop.latches.append(block)
                loop.blocks |= _collect_loop_body(succ, block, cfg)

    loops = list(by_header.values())

    # Establish nesting: the parent of a loop is the smallest loop strictly
    # containing it.
    for loop in loops:
        best: Optional[Loop] = None
        for other in loops:
            if other is loop:
                continue
            if (loop.header in other.blocks and loop.blocks <= other.blocks
                    and (best is None
                         or len(other.blocks) < len(best.blocks))):
                best = other
        loop.parent = best
        if best is not None:
            best.children.append(loop)

    info = LoopInfo(function=function, cfg=cfg, dom=dom, loops=loops)
    return info
