"""A convenience builder for constructing IR, used by the code generator.

The builder keeps track of the current insertion block and hands out
per-function virtual register ids in creation order — mirroring the
temporary-register numbering LLVM-Tracer shows in the paper's figures.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BitCastInst,
    BranchInst,
    CallInst,
    CastInst,
    CmpInst,
    GEPInst,
    Instruction,
    LoadInst,
    PrintInst,
    RetInst,
    StoreInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.opcodes import Opcode
from repro.ir.types import F64, I32, IRType, PointerType
from repro.ir.values import Constant, Register, Value


class IRBuilder:
    """Append instructions to a function under construction."""

    def __init__(self, module: Module, function: Function) -> None:
        self.module = module
        self.function = function
        self._register_counter = 0
        self.block: Optional[BasicBlock] = None

    # ------------------------------------------------------------------ #
    # Positioning helpers
    # ------------------------------------------------------------------ #
    def new_block(self, name: Optional[str] = None) -> BasicBlock:
        return self.function.add_block(name)

    def set_block(self, block: BasicBlock) -> None:
        self.block = block

    def new_register(self, rtype: IRType) -> Register:
        self._register_counter += 1
        return Register(type=rtype, rid=self._register_counter)

    @property
    def current_block_terminated(self) -> bool:
        return self.block is not None and self.block.is_terminated

    def _insert(self, inst: Instruction) -> Instruction:
        if self.block is None:
            raise RuntimeError("no insertion block selected")
        if self.block.is_terminated:
            # Dead code after return/branch (e.g. code after `return`): drop
            # it — the verifier checks every block has exactly one terminator.
            return inst
        return self.block.append(inst)

    # ------------------------------------------------------------------ #
    # Instruction constructors
    # ------------------------------------------------------------------ #
    def alloca(self, allocated_type: IRType, var_name: str,
               line: int = 0, column: int = 0) -> Register:
        result = self.new_register(PointerType(allocated_type))
        inst = AllocaInst(opcode=Opcode.ALLOCA, operands=[], result=result,
                          line=line, column=column,
                          allocated_type=allocated_type, var_name=var_name)
        self._insert(inst)
        return result

    def load(self, pointer: Value, value_type: IRType,
             line: int = 0, column: int = 0) -> Register:
        result = self.new_register(value_type)
        inst = LoadInst(opcode=Opcode.LOAD, operands=[pointer], result=result,
                        line=line, column=column)
        self._insert(inst)
        return result

    def store(self, value: Value, pointer: Value,
              line: int = 0, column: int = 0) -> None:
        inst = StoreInst(opcode=Opcode.STORE, operands=[value, pointer],
                         result=None, line=line, column=column)
        self._insert(inst)

    def binary(self, opcode: Opcode, lhs: Value, rhs: Value, rtype: IRType,
               line: int = 0, column: int = 0) -> Register:
        result = self.new_register(rtype)
        inst = BinaryInst(opcode=opcode, operands=[lhs, rhs], result=result,
                          line=line, column=column)
        self._insert(inst)
        return result

    def gep(self, base: Value, index: Value, element_type: IRType,
            line: int = 0, column: int = 0) -> Register:
        result = self.new_register(PointerType(element_type))
        inst = GEPInst(opcode=Opcode.GETELEMENTPTR, operands=[base, index],
                       result=result, line=line, column=column,
                       element_type=element_type)
        self._insert(inst)
        return result

    def bitcast(self, value: Value, rtype: IRType,
                line: int = 0, column: int = 0) -> Register:
        result = self.new_register(rtype)
        inst = BitCastInst(opcode=Opcode.BITCAST, operands=[value], result=result,
                           line=line, column=column)
        self._insert(inst)
        return result

    def cast(self, opcode: Opcode, value: Value, rtype: IRType,
             line: int = 0, column: int = 0) -> Register:
        result = self.new_register(rtype)
        inst = CastInst(opcode=opcode, operands=[value], result=result,
                        line=line, column=column)
        self._insert(inst)
        return result

    def icmp(self, predicate: str, lhs: Value, rhs: Value,
             line: int = 0, column: int = 0) -> Register:
        result = self.new_register(I32)
        inst = CmpInst(opcode=Opcode.ICMP, operands=[lhs, rhs], result=result,
                       line=line, column=column, predicate=predicate)
        self._insert(inst)
        return result

    def fcmp(self, predicate: str, lhs: Value, rhs: Value,
             line: int = 0, column: int = 0) -> Register:
        result = self.new_register(I32)
        inst = CmpInst(opcode=Opcode.FCMP, operands=[lhs, rhs], result=result,
                       line=line, column=column, predicate=predicate)
        self._insert(inst)
        return result

    def br(self, target: BasicBlock, line: int = 0, column: int = 0) -> None:
        inst = BranchInst(opcode=Opcode.BR, operands=[], result=None,
                          line=line, column=column, targets=[target])
        self._insert(inst)

    def cond_br(self, cond: Value, true_block: BasicBlock, false_block: BasicBlock,
                line: int = 0, column: int = 0) -> None:
        inst = BranchInst(opcode=Opcode.BR, operands=[cond], result=None,
                          line=line, column=column,
                          targets=[true_block, false_block])
        self._insert(inst)

    def call(self, callee: str, args: Sequence[Value], return_type: IRType,
             is_builtin: bool, param_names: Tuple[str, ...] = (),
             line: int = 0, column: int = 0) -> Optional[Register]:
        result = None
        if return_type.size_in_bits() > 0:
            result = self.new_register(return_type)
        inst = CallInst(opcode=Opcode.CALL, operands=list(args), result=result,
                        line=line, column=column, callee=callee,
                        is_builtin=is_builtin, param_names=param_names)
        self._insert(inst)
        return result

    def print_(self, values: Sequence[Value], labels: Sequence[Optional[str]],
               line: int = 0, column: int = 0) -> None:
        inst = PrintInst(opcode=Opcode.CALL, operands=list(values), result=None,
                         line=line, column=column, labels=list(labels))
        self._insert(inst)

    def ret(self, value: Optional[Value] = None,
            line: int = 0, column: int = 0) -> None:
        operands: List[Value] = [value] if value is not None else []
        inst = RetInst(opcode=Opcode.RET, operands=operands, result=None,
                       line=line, column=column)
        self._insert(inst)

    # ------------------------------------------------------------------ #
    # Constants
    # ------------------------------------------------------------------ #
    @staticmethod
    def const_int(value: int) -> Constant:
        return Constant(type=I32, value=int(value))

    @staticmethod
    def const_float(value: float) -> Constant:
        return Constant(type=F64, value=float(value))
