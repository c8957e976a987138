"""Module / function / basic-block containers for the LLVM-like IR."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.ir.instructions import Instruction
from repro.ir.types import IRType, VOID
from repro.ir.values import Argument, GlobalVariable


@dataclass(eq=False)
class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    name: str
    label: int = 0
    instructions: List[Instruction] = field(default_factory=list)
    parent: Optional["Function"] = None

    def append(self, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.append(inst)
        return inst

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        targets = getattr(term, "targets", [])
        return list(targets)

    @property
    def first_line(self) -> int:
        for inst in self.instructions:
            if inst.line:
                return inst.line
        return 0

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


@dataclass(eq=False)
class Function:
    """An IR function: named arguments plus an ordered list of basic blocks."""

    name: str
    return_type: IRType = VOID
    args: List[Argument] = field(default_factory=list)
    blocks: List[BasicBlock] = field(default_factory=list)
    #: 1-based source line of the ``{`` opening the function body.
    line: int = 0

    def add_block(self, name: Optional[str] = None) -> BasicBlock:
        label = len(self.blocks)
        block = BasicBlock(name=name or f"bb{label}", label=label, parent=self)
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name!r} has no blocks")
        return self.blocks[0]

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


@dataclass(eq=False)
class Module:
    """A compiled mini-C translation unit."""

    name: str = "module"
    globals: List[GlobalVariable] = field(default_factory=list)
    functions: Dict[str, Function] = field(default_factory=dict)
    #: The original mini-C source text (used by error messages and reports).
    source: str = ""

    def add_global(self, gvar: GlobalVariable) -> GlobalVariable:
        self.globals.append(gvar)
        return gvar

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def function(self, name: str) -> Function:
        return self.functions[name]

    def global_variable(self, name: str) -> GlobalVariable:
        for gvar in self.globals:
            if gvar.name == name:
                return gvar
        raise KeyError(name)

    def instruction_count(self) -> int:
        return sum(
            len(block.instructions)
            for function in self.functions.values()
            for block in function.blocks
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Module {self.name}: {len(self.globals)} globals, "
                f"{len(self.functions)} functions>")
