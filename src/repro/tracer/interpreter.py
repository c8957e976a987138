"""The tracing IR interpreter (LLVM-Tracer substitute).

Executes a compiled :class:`repro.ir.module.Module` starting at ``main``,
emitting one v2 binary record per executed instruction into a
:class:`repro.trace.binio.TraceBinaryWriter` (a file, or memory with
:class:`InMemoryTraceSink`).  At an instruction's first emission the
interpreter compiles its :class:`repro.trace.binio.EmitTemplate` (opcode,
location, names, operand layout); every execution then hands the writer
only the dynamic fields.  Without a sink nothing is built per record.
Block entry hooks allow checkpoint instrumentation and fault injection to
observe and alter a run without touching the program itself.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.ir.types import ArrayType, IRType, PointerType
from repro.ir.values import Argument, Constant, GlobalVariable, Register, Value
from repro.trace.binio import EmitTemplate, SlotSpec, TraceBinaryReader, TraceBinaryWriter
from repro.trace.records import GlobalSymbol, PARAM_INDEX_PREFIX, RESULT_INDEX, Trace
from repro.tracer.faults import SimulatedFailure
from repro.tracer.memory import Allocation, Memory
from repro.tracer.runtime import Runtime, RuntimeError_, format_print_output
from repro.tracer.values import PointerValue, RuntimeValue, as_number


class InterpreterError(Exception):
    """Raised on runtime errors in the interpreted program."""


class InMemoryTraceSink(TraceBinaryWriter):
    """A binary trace writer over memory (the ``run_and_trace`` sink)."""

    def __init__(self, module_name: str = "module") -> None:
        self._buffer = io.BytesIO()
        super().__init__(None, module_name=module_name, fileobj=self._buffer)

    def getvalue(self) -> bytes:
        """The whole binary trace file; closes the writer."""
        self.close()
        return self._buffer.getvalue()

    @property
    def trace(self) -> Trace:
        """The emitted trace, decoded by binio's reference decoder (closes
        the writer)."""
        return TraceBinaryReader(buffer=self.getvalue()).read()


def _value_fields(value: RuntimeValue) -> Tuple[Union[int, float], Optional[int]]:
    """A value operand's emitted (value, address): a pointer has an address."""
    if isinstance(value, PointerValue):
        return value.address, value.address
    return value, None


def _values_fields(values: Sequence[RuntimeValue]) -> tuple:
    """The emitted fields of a run of value operands."""
    fields: List[Union[int, float, None]] = []
    for value in values:
        fields.extend(_value_fields(value))
    return tuple(fields)


def _bits(ir_value: Value) -> int:
    return ir_value.type.size_in_bits() if ir_value.type is not None else 64


def _value_slot(index: str, ir_value: Value) -> SlotSpec:
    """The template slot of an operand that is an IR value."""
    if isinstance(ir_value, Register):
        return (index, _bits(ir_value), True, str(ir_value.rid))
    if isinstance(ir_value, (GlobalVariable, Argument)):
        return (index, _bits(ir_value), False, ir_value.name)
    return (index, _bits(ir_value), False, "")  # Constant


def _result_slot(inst: Instruction) -> Optional[SlotSpec]:
    if inst.result is None:
        return None
    return (RESULT_INDEX, inst.result.type.size_in_bits(), True,
            str(inst.result.rid))


def _alloca_shape(allocated: IRType) -> Tuple[int, int, bool]:
    """(element bits, element count, is array) of an allocated type."""
    if isinstance(allocated, ArrayType):
        return allocated.element.size_in_bits(), allocated.count, True
    if isinstance(allocated, PointerType):
        return 64, 1, False
    return allocated.size_in_bits(), 1, False


@dataclass
class Frame:
    """One activation record of the interpreted program."""

    function: Function
    args: List[RuntimeValue]
    regs: Dict[int, RuntimeValue] = field(default_factory=dict)
    allocations: Dict[str, Allocation] = field(default_factory=dict)
    stack_mark: int = 0


@dataclass
class HookContext:
    """Information handed to block-entry hooks."""

    interpreter: "Interpreter"
    frame: Frame
    function_name: str
    block_name: str
    entry_count: int


@dataclass
class ExecutionResult:
    """Outcome of one interpreted run."""

    output: List[str]
    return_value: Optional[RuntimeValue]
    steps: int
    failed: bool = False
    failure: Optional[SimulatedFailure] = None
    memory: Optional[Memory] = None

    @property
    def output_text(self) -> str:
        return "\n".join(self.output)


class Interpreter:
    """Execute a module and (optionally) emit its dynamic instruction trace.

    ``trace_sink`` is the :class:`TraceBinaryWriter` the records go to;
    without one the run only executes.
    """

    def __init__(self, module: Module,
                 trace_sink: Optional[TraceBinaryWriter] = None,
                 seed: int = 314159, max_steps: int = 50_000_000,
                 max_call_depth: int = 200) -> None:
        self.module = module
        self.sink = trace_sink
        self.runtime = Runtime(seed)
        self.memory = Memory()
        self.output: List[str] = []
        self.frames: List[Frame] = []
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        #: executed instructions; a record's dyn id is the count at its
        #: instruction
        self.steps = 0
        self.global_allocations: Dict[str, Allocation] = {}
        self._block_hooks: Dict[Tuple[str, str], List[Callable[[HookContext], None]]] = {}
        self._block_entry_counts: Dict[Tuple[str, str], int] = {}
        self._globals_ready = False

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def register_block_hook(self, function_name: str, block_name: str,
                            callback: Callable[[HookContext], None]) -> None:
        self._block_hooks.setdefault((function_name, block_name), []).append(callback)

    def block_entry_count(self, function_name: str, block_name: str) -> int:
        return self._block_entry_counts.get((function_name, block_name), 0)

    @property
    def current_frame(self) -> Frame:
        if not self.frames:
            raise InterpreterError("no active frame")
        return self.frames[-1]

    def resolve_variable(self, name: str,
                         frame: Optional[Frame] = None) -> Optional[Allocation]:
        """Find the allocation backing ``name`` in ``frame`` (or globals)."""
        frame = frame or (self.frames[-1] if self.frames else None)
        if frame is not None and name in frame.allocations:
            return frame.allocations[name]
        return self.global_allocations.get(name)

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    def run(self, entry: str = "main",
            args: Sequence[RuntimeValue] = ()) -> ExecutionResult:
        self._setup_globals()
        failed = False
        failure: Optional[SimulatedFailure] = None
        return_value: Optional[RuntimeValue] = None
        try:
            function = self.module.function(entry)
        except KeyError as exc:
            raise InterpreterError(f"no function named {entry!r}") from exc
        try:
            return_value = self._call_function(function, list(args))
        except SimulatedFailure as exc:
            failed = True
            failure = exc
        return ExecutionResult(output=list(self.output), return_value=return_value,
                               steps=self.steps, failed=failed, failure=failure,
                               memory=self.memory)

    def _setup_globals(self) -> None:
        if self._globals_ready:
            return
        for gvar in self.module.globals:
            value_type = gvar.value_type
            if isinstance(value_type, ArrayType):
                element_bits = value_type.element.size_in_bits()
                count = value_type.count
                is_array = True
            else:
                element_bits = value_type.size_in_bits()
                count = 1
                is_array = False
            allocation = self.memory.allocate_global(gvar.name, element_bits,
                                                     count, is_array)
            self.global_allocations[gvar.name] = allocation
            if gvar.initializer is not None:
                self.memory.store(allocation.address, gvar.initializer)
            if self.sink is not None:
                self.sink.write_global(GlobalSymbol(
                    name=gvar.name, address=allocation.address,
                    size_bytes=allocation.size_bytes,
                    element_bits=element_bits, is_array=is_array))
        self._globals_ready = True

    # ------------------------------------------------------------------ #
    # Function execution
    # ------------------------------------------------------------------ #
    def _call_function(self, function: Function,
                       args: List[RuntimeValue]) -> Optional[RuntimeValue]:
        if len(self.frames) >= self.max_call_depth:
            raise InterpreterError(f"call depth exceeded in {function.name!r}")
        frame = Frame(function=function, args=args,
                      stack_mark=self.memory.stack_mark())
        self.frames.append(frame)
        try:
            block = function.entry
            while True:
                self._enter_block(frame, block)
                action: Optional[Tuple[str, object]] = None
                for inst in block.instructions:
                    action = self._execute(frame, inst)
                    if action is not None:
                        break
                if action is None:
                    raise InterpreterError(
                        f"{function.name}/{block.name}: fell off the end of a block")
                kind, payload = action
                if kind == "branch":
                    block = payload  # type: ignore[assignment]
                    continue
                return payload  # type: ignore[return-value]
        finally:
            self.frames.pop()
            self.memory.stack_release(frame.stack_mark)

    def _enter_block(self, frame: Frame, block: BasicBlock) -> None:
        key = (frame.function.name, block.name)
        count = self._block_entry_counts.get(key, 0) + 1
        self._block_entry_counts[key] = count
        hooks = self._block_hooks.get(key)
        if hooks:
            context = HookContext(interpreter=self, frame=frame,
                                  function_name=frame.function.name,
                                  block_name=block.name, entry_count=count)
            for hook in hooks:
                hook(context)

    # ------------------------------------------------------------------ #
    # Operand evaluation and trace helpers
    # ------------------------------------------------------------------ #
    def _eval(self, frame: Frame, value: Value) -> RuntimeValue:
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, Register):
            try:
                return frame.regs[value.rid]
            except KeyError as exc:
                raise InterpreterError(
                    f"use of unset register %{value.rid} in {frame.function.name}") from exc
        if isinstance(value, GlobalVariable):
            allocation = self.global_allocations[value.name]
            element_bits = allocation.element_bits
            return PointerValue(allocation.address, value.name, element_bits)
        if isinstance(value, Argument):
            return frame.args[value.index]
        raise InterpreterError(f"cannot evaluate operand {value!r}")

    def _emit(self, frame: Frame, inst: Instruction, fields: tuple,
              symbol: str = "") -> None:
        """Hand ``inst``'s dynamic fields (and pointer symbol) to the sink."""
        sink = self.sink
        assert sink is not None
        template = sink.templates.get(inst)
        if template is None:
            template = sink.templates[inst] = self._template(frame, inst,
                                                             symbol)
        sink.emit(template, self.steps, fields, symbol)

    def _template(self, frame: Frame, inst: Instruction,
                  symbol: str) -> EmitTemplate:
        """Compile ``inst``'s emit template at its first emission.

        The slots list what each ``_exec_*`` method emits, in the order of
        its ``fields``; a slot named ``None`` takes the record's pointer
        symbol.
        """
        callee = ""
        result = _result_slot(inst)
        operands: List[SlotSpec]
        if isinstance(inst, AllocaInst):
            element_bits = _alloca_shape(inst.allocated_type)[0]
            operands = [("1", 32, False, "count")]
            result = (RESULT_INDEX, element_bits, False, inst.var_name)
        elif isinstance(inst, LoadInst):
            assert inst.result is not None
            operands = [("1", inst.result.type.size_in_bits(), False, None)]
        elif isinstance(inst, StoreInst):
            operands = [_value_slot("1", inst.value),
                        ("2", _bits(inst.value), False, None)]
        elif isinstance(inst, GEPInst):
            operands = [("1", 64, False, None), _value_slot("2", inst.index)]
        else:
            operands = [_value_slot(str(position + 1), operand)
                        for position, operand in enumerate(inst.operands)]
            if isinstance(inst, PrintInst):
                callee = "print"
            elif isinstance(inst, CallInst):
                callee = inst.callee
                if not inst.is_builtin:
                    # A user call binds the callee's parameters (paper
                    # Fig. 6b); its result arrives with the Ret.
                    operands += [(f"{PARAM_INDEX_PREFIX}{position + 1}", 64,
                                  False, name)
                                 for position, name
                                 in enumerate(inst.param_names)]
                    result = None
        block = inst.parent
        bb_label = block.label if block is not None else 0
        bb_id = f"{block.first_line}:{bb_label}" if block is not None else "0:0"
        assert self.sink is not None
        return self.sink.template(
            int(inst.opcode), inst.mnemonic, frame.function.name, inst.line,
            inst.column, bb_label, bb_id, callee, operands, result, symbol)

    # ------------------------------------------------------------------ #
    # Instruction execution
    # ------------------------------------------------------------------ #
    def _execute(self, frame: Frame,
                 inst: Instruction) -> Optional[Tuple[str, object]]:
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpreterError(
                f"instruction budget of {self.max_steps} exceeded "
                f"(possible infinite loop in {frame.function.name!r})")

        if isinstance(inst, AllocaInst):
            self._exec_alloca(frame, inst)
        elif isinstance(inst, LoadInst):
            self._exec_load(frame, inst)
        elif isinstance(inst, StoreInst):
            self._exec_store(frame, inst)
        elif isinstance(inst, GEPInst):
            self._exec_gep(frame, inst)
        elif isinstance(inst, BitCastInst):
            self._exec_bitcast(frame, inst)
        elif isinstance(inst, CastInst):
            self._exec_cast(frame, inst)
        elif isinstance(inst, CmpInst):
            self._exec_cmp(frame, inst)
        elif isinstance(inst, BinaryInst):
            self._exec_binary(frame, inst)
        elif isinstance(inst, PrintInst):
            self._exec_print(frame, inst)
        elif isinstance(inst, CallInst):
            self._exec_call(frame, inst)
        elif isinstance(inst, BranchInst):
            return self._exec_branch(frame, inst)
        elif isinstance(inst, RetInst):
            return self._exec_ret(frame, inst)
        else:  # pragma: no cover - defensive
            raise InterpreterError(f"cannot execute instruction {inst!r}")
        return None

    def _exec_alloca(self, frame: Frame, inst: AllocaInst) -> None:
        element_bits, count, is_array = _alloca_shape(inst.allocated_type)
        allocation = self.memory.allocate_stack(inst.var_name, element_bits, count,
                                                is_array, frame.function.name)
        frame.allocations[inst.var_name] = allocation
        pointer = PointerValue(allocation.address, inst.var_name, element_bits)
        assert inst.result is not None
        frame.regs[inst.result.rid] = pointer
        if self.sink is not None:
            self._emit(frame, inst, (count, None, 0, allocation.address))

    def _exec_load(self, frame: Frame, inst: LoadInst) -> None:
        pointer = self._eval(frame, inst.pointer)
        if not isinstance(pointer, PointerValue):
            raise InterpreterError(f"load through a non-pointer value at line {inst.line}")
        assert inst.result is not None
        default: RuntimeValue = 0.0 if inst.result.type.is_float else 0
        value = self.memory.load(pointer.address, default)
        frame.regs[inst.result.rid] = value
        if self.sink is not None:
            loaded = _value_fields(value)
            self._emit(frame, inst, (loaded[0], pointer.address) + loaded,
                       pointer.symbol)

    def _exec_store(self, frame: Frame, inst: StoreInst) -> None:
        value = self._eval(frame, inst.value)
        pointer = self._eval(frame, inst.pointer)
        if not isinstance(pointer, PointerValue):
            raise InterpreterError(f"store through a non-pointer value at line {inst.line}")
        stored = value
        if isinstance(value, PointerValue):
            # Storing a pointer into a (parameter) slot: from now on the
            # pointer travels under the slot's name, as LLVM-Tracer reports.
            stored = value.with_symbol(pointer.symbol)
        self.memory.store(pointer.address, stored)
        if self.sink is not None:
            operand = _value_fields(value)
            self._emit(frame, inst, operand + (operand[0], pointer.address),
                       pointer.symbol)

    def _exec_gep(self, frame: Frame, inst: GEPInst) -> None:
        base = self._eval(frame, inst.base)
        index = self._eval(frame, inst.index)
        if not isinstance(base, PointerValue):
            raise InterpreterError(f"getelementptr on non-pointer at line {inst.line}")
        element_bits = inst.element_type.size_in_bits()
        pointer = PointerValue(base.address + int(as_number(index)) * element_bits // 8,
                               base.symbol, element_bits)
        assert inst.result is not None
        frame.regs[inst.result.rid] = pointer
        if self.sink is not None:
            self._emit(frame, inst,
                       (base.address, base.address) + _value_fields(index)
                       + (pointer.address, pointer.address), base.symbol)

    def _exec_bitcast(self, frame: Frame, inst: BitCastInst) -> None:
        value = self._eval(frame, inst.operands[0])
        result_type = inst.result.type if inst.result is not None else None
        if isinstance(value, PointerValue) and isinstance(result_type, PointerType):
            value = PointerValue(value.address, value.symbol,
                                 result_type.pointee.size_in_bits())
        assert inst.result is not None
        frame.regs[inst.result.rid] = value
        if self.sink is not None:
            self._emit(frame, inst, _value_fields(value) * 2)

    def _exec_cast(self, frame: Frame, inst: CastInst) -> None:
        value = self._eval(frame, inst.operands[0])
        number = as_number(value)
        opcode = inst.opcode
        if opcode in (Opcode.SITOFP, Opcode.UITOFP, Opcode.FPEXT, Opcode.FPTRUNC):
            result: RuntimeValue = float(number)
        elif opcode in (Opcode.FPTOSI, Opcode.FPTOUI):
            result = int(number) if number >= 0 else -int(-number)
        else:  # integer width changes and pointer/int casts: value-preserving
            result = int(number) if isinstance(number, int) else number
        assert inst.result is not None
        frame.regs[inst.result.rid] = result
        if self.sink is not None:
            self._emit(frame, inst, _value_fields(value) + (result, None))

    def _exec_cmp(self, frame: Frame, inst: CmpInst) -> None:
        lhs = as_number(self._eval(frame, inst.operands[0]))
        rhs = as_number(self._eval(frame, inst.operands[1]))
        predicate = inst.predicate
        outcome = {
            "eq": lhs == rhs,
            "ne": lhs != rhs,
            "lt": lhs < rhs,
            "le": lhs <= rhs,
            "gt": lhs > rhs,
            "ge": lhs >= rhs,
        }[predicate]
        result = 1 if outcome else 0
        assert inst.result is not None
        frame.regs[inst.result.rid] = result
        if self.sink is not None:
            self._emit(frame, inst, (lhs, None, rhs, None, result, None))

    def _exec_binary(self, frame: Frame, inst: BinaryInst) -> None:
        lhs = as_number(self._eval(frame, inst.operands[0]))
        rhs = as_number(self._eval(frame, inst.operands[1]))
        result = self._compute_binary(inst.opcode, lhs, rhs, inst.line)
        assert inst.result is not None
        frame.regs[inst.result.rid] = result
        if self.sink is not None:
            self._emit(frame, inst, (lhs, None, rhs, None, result, None))

    @staticmethod
    def _compute_binary(opcode: Opcode, lhs: Union[int, float],
                        rhs: Union[int, float], line: int) -> Union[int, float]:
        try:
            if opcode == Opcode.ADD:
                return int(lhs) + int(rhs)
            if opcode == Opcode.FADD:
                return float(lhs) + float(rhs)
            if opcode == Opcode.SUB:
                return int(lhs) - int(rhs)
            if opcode == Opcode.FSUB:
                return float(lhs) - float(rhs)
            if opcode == Opcode.MUL:
                return int(lhs) * int(rhs)
            if opcode == Opcode.FMUL:
                return float(lhs) * float(rhs)
            if opcode in (Opcode.SDIV, Opcode.UDIV):
                quotient = int(lhs) / int(rhs)
                return math.trunc(quotient)
            if opcode == Opcode.FDIV:
                return float(lhs) / float(rhs)
            if opcode in (Opcode.SREM, Opcode.UREM):
                return int(lhs) - int(rhs) * math.trunc(int(lhs) / int(rhs))
            if opcode == Opcode.FREM:
                return math.fmod(float(lhs), float(rhs))
            if opcode == Opcode.AND:
                return 1 if (lhs != 0 and rhs != 0) else 0
            if opcode == Opcode.OR:
                return 1 if (lhs != 0 or rhs != 0) else 0
            if opcode == Opcode.XOR:
                return 1 if (lhs != 0) != (rhs != 0) else 0
        except ZeroDivisionError as exc:
            raise InterpreterError(f"division by zero at line {line}") from exc
        raise InterpreterError(f"unsupported binary opcode {opcode!r}")

    def _exec_print(self, frame: Frame, inst: PrintInst) -> None:
        values = [as_number(self._eval(frame, op)) for op in inst.operands]
        self.output.append(format_print_output(inst.labels, values))
        if self.sink is not None:
            self._emit(frame, inst, _values_fields(values))

    def _exec_call(self, frame: Frame, inst: CallInst) -> None:
        arg_values = [self._eval(frame, op) for op in inst.operands]

        if inst.is_builtin:
            numbers = [as_number(value) for value in arg_values]
            try:
                result = self.runtime.call(inst.callee, numbers)
            except RuntimeError_ as exc:
                raise InterpreterError(f"{exc} at line {inst.line}") from exc
            if inst.result is not None:
                frame.regs[inst.result.rid] = result
            if self.sink is not None:
                fields = _values_fields(arg_values)
                if inst.result is not None:
                    fields += _value_fields(result)
                self._emit(frame, inst, fields)
            return

        # User function: emit the Call record first (the callee's body follows
        # in the trace — paper Fig. 6b), including parameter name bindings.
        if self.sink is not None:
            params = [arg_values[position] if position < len(arg_values) else 0
                      for position in range(len(inst.param_names))]
            self._emit(frame, inst,
                       _values_fields(arg_values) + _values_fields(params))

        try:
            target = self.module.function(inst.callee)
        except KeyError as exc:
            raise InterpreterError(f"call to unknown function {inst.callee!r}") from exc
        returned = self._call_function(target, arg_values)
        if inst.result is not None:
            frame.regs[inst.result.rid] = returned if returned is not None else 0

    def _exec_branch(self, frame: Frame, inst: BranchInst) -> Tuple[str, object]:
        condition: Optional[Union[int, float]] = None
        if inst.is_conditional:
            condition = as_number(self._eval(frame, inst.operands[0]))
            target = inst.targets[0] if condition != 0 else inst.targets[1]
        else:
            target = inst.targets[0]
        if self.sink is not None:
            self._emit(frame, inst, () if condition is None else (condition, None))
        return ("branch", target)

    def _exec_ret(self, frame: Frame, inst: RetInst) -> Tuple[str, object]:
        value: Optional[RuntimeValue] = None
        if inst.operands:
            value = self._eval(frame, inst.operands[0])
        if self.sink is not None:
            self._emit(frame, inst, () if value is None else _value_fields(value))
        return ("return", value)
