"""The tracing IR interpreter (LLVM-Tracer substitute).

Executes a compiled :class:`repro.ir.module.Module` starting at ``main``,
emitting one v2 binary record per executed instruction into a
:class:`repro.trace.binio.TraceBinaryWriter` (a file, or memory with
:class:`InMemoryTraceSink`).

The first time a run enters a basic block, the interpreter compiles each
of its instructions into one *step*: a closure whose operands are resolved
in advance (a register id, an argument index, or a value fixed at compile
time: a constant, or a global's pointer built once), which computes,
writes its result register and, when the run has a sink, emits its
record.  ``_call_function`` then runs a block as its list of steps.
Traced and execute-only runs share the step builders; without a sink
nothing is built per record.  A traced interpreter runs once and drops
its blocks when the run returns.  An execute-only interpreter may run
its module again: each run starts from a fresh machine and reuses the
blocks earlier runs compiled, until :meth:`Interpreter.close`.  A
record's static part is its instruction's
:class:`repro.trace.binio.EmitTemplate`, built at the instruction's first
emission; the step caches the writer's emitters by the classes of its
runtime values, so each execution packs its record in one ``struct``
call and appends it.  At each block entry a traced run has the writer
write out every whole block of 64 records still pending
(:meth:`~repro.trace.binio.TraceBinaryWriter.write_blocks`).  Pointers
and allocations are slotted dataclasses, not frozen ones: every GEP
builds a :class:`~repro.tracer.values.PointerValue`, and every
``Alloca`` one and an :class:`~repro.tracer.memory.Allocation`.  Block
entry hooks allow checkpoint instrumentation and fault injection to
observe and alter a run without touching the program itself.
"""

from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
from repro.trace.binio import (
    Emitter,
    EmitTemplate,
    SlotSpec,
    TraceBinaryWriter,
)
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
        """The emitted trace over its bytes and the layout this writer
        built of them (closes the writer; nothing is parsed or
        decoded)."""
        data = self.getvalue()
        assert self.layout is not None
        return Trace.from_encoded(data, self.layout)


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


# --------------------------------------------------------------------------- #
# Record layouts: the slots of each instruction kind's emit template
# --------------------------------------------------------------------------- #
#: ``(operand slots, result slot, callee)`` of one instruction's records
Layout = Tuple[List[SlotSpec], Optional[SlotSpec], str]


def _operands_layout(inst: Instruction) -> Layout:
    """One slot per IR operand, then the result."""
    return ([_value_slot(str(position + 1), operand)
             for position, operand in enumerate(inst.operands)],
            _result_slot(inst), "")


def _alloca_layout(inst: AllocaInst) -> Layout:
    element_bits = _alloca_shape(inst.allocated_type)[0]
    return ([("1", 32, False, "count")],
            (RESULT_INDEX, element_bits, False, inst.var_name), "")


def _load_layout(inst: LoadInst) -> Layout:
    assert inst.result is not None
    return ([("1", inst.result.type.size_in_bits(), False, None)],
            _result_slot(inst), "")


def _store_layout(inst: StoreInst) -> Layout:
    return ([_value_slot("1", inst.value),
             ("2", _bits(inst.value), False, None)], _result_slot(inst), "")


def _gep_layout(inst: GEPInst) -> Layout:
    return ([("1", 64, False, None), _value_slot("2", inst.index)],
            _result_slot(inst), "")


def _print_layout(inst: PrintInst) -> Layout:
    operands, result, _ = _operands_layout(inst)
    return operands, result, "print"


def _call_layout(inst: CallInst) -> Layout:
    operands, result, _ = _operands_layout(inst)
    if not inst.is_builtin:
        # A user call binds the callee's parameters (paper Fig. 6b); its
        # result arrives with the Ret.
        operands += [(f"{PARAM_INDEX_PREFIX}{position + 1}", 64, False, name)
                     for position, name in enumerate(inst.param_names)]
        result = None
    return operands, result, inst.callee


_LAYOUTS: Dict[type, Callable[..., Layout]] = {
    AllocaInst: _alloca_layout,
    LoadInst: _load_layout,
    StoreInst: _store_layout,
    GEPInst: _gep_layout,
    PrintInst: _print_layout,
    CallInst: _call_layout,
}


class _Emission:
    """How one traced instruction emits its records.

    The emit template is built at the instruction's first emission, with
    that record's pointer symbol, so strings are interned in execution
    order.  ``emitters`` caches the writer's emitter by the classes of
    the record's values (and its symbol): the classes fix the value-flag
    signature.
    """

    __slots__ = ("sink", "function", "inst", "template", "emitters")

    def __init__(self, sink: TraceBinaryWriter, function: Function,
                 inst: Instruction) -> None:
        self.sink = sink
        self.function = function
        self.inst = inst
        self.template: Optional[EmitTemplate] = None
        self.emitters: Dict[Hashable, Emitter] = {}

    def emitter(self, key: Hashable, fields: tuple,
                symbol: str = "") -> Emitter:
        """Build and cache the emitter of records like ``fields``."""
        if self.template is None:
            self.template = self._template(symbol)
        emit = self.emitters[key] = self.sink.emitter(self.template, fields,
                                                      symbol)
        return emit

    def emit(self, dyn_id: int, fields: tuple, symbol: str = "") -> None:
        """Emit one record from its fields (the kinds whose slot count
        varies: calls and ``print``)."""
        key = (symbol, *map(type, fields))
        emit = self.emitters.get(key) or self.emitter(key, fields, symbol)
        emit(dyn_id, *[item for item in fields if item is not None])

    def _template(self, symbol: str) -> EmitTemplate:
        inst = self.inst
        operands, result, callee = _LAYOUTS.get(
            inst.__class__, _operands_layout)(inst)
        block = inst.parent
        bb_label = block.label if block is not None else 0
        bb_id = f"{block.first_line}:{bb_label}" if block is not None else "0:0"
        return self.sink.template(
            int(inst.opcode), inst.mnemonic, self.function.name, inst.line,
            inst.column, bb_label, bb_id, callee, operands, result, symbol)


# --------------------------------------------------------------------------- #
# Instruction semantics
# --------------------------------------------------------------------------- #
def _integer_division(lhs, rhs):
    return math.trunc(int(lhs) / int(rhs))


def _integer_remainder(lhs, rhs):
    return int(lhs) - int(rhs) * math.trunc(int(lhs) / int(rhs))


_BINARY_OPERATIONS: Dict[Opcode, Callable[[Union[int, float], Union[int, float]],
                                          Union[int, float]]] = {
    Opcode.ADD: lambda lhs, rhs: int(lhs) + int(rhs),
    Opcode.FADD: lambda lhs, rhs: float(lhs) + float(rhs),
    Opcode.SUB: lambda lhs, rhs: int(lhs) - int(rhs),
    Opcode.FSUB: lambda lhs, rhs: float(lhs) - float(rhs),
    Opcode.MUL: lambda lhs, rhs: int(lhs) * int(rhs),
    Opcode.FMUL: lambda lhs, rhs: float(lhs) * float(rhs),
    Opcode.SDIV: _integer_division,
    Opcode.UDIV: _integer_division,
    Opcode.FDIV: lambda lhs, rhs: float(lhs) / float(rhs),
    Opcode.SREM: _integer_remainder,
    Opcode.UREM: _integer_remainder,
    Opcode.FREM: lambda lhs, rhs: math.fmod(float(lhs), float(rhs)),
    Opcode.AND: lambda lhs, rhs: 1 if (lhs != 0 and rhs != 0) else 0,
    Opcode.OR: lambda lhs, rhs: 1 if (lhs != 0 or rhs != 0) else 0,
    Opcode.XOR: lambda lhs, rhs: 1 if (lhs != 0) != (rhs != 0) else 0,
}

_COMPARISONS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
                "le": operator.le, "gt": operator.gt, "ge": operator.ge}


def _cast_to_int(number):
    return int(number) if number >= 0 else -int(-number)


def _cast_preserving(number):
    """Integer width changes and pointer/int casts keep the value."""
    return int(number) if isinstance(number, int) else number


_CASTS = {Opcode.SITOFP: float, Opcode.UITOFP: float, Opcode.FPEXT: float,
          Opcode.FPTRUNC: float, Opcode.FPTOSI: _cast_to_int,
          Opcode.FPTOUI: _cast_to_int}


@dataclass
class Frame:
    """One activation record of the interpreted program.

    ``regs`` is the register file: register ``%n`` under ``n``, and
    argument ``i`` under ``-1 - i``.
    """

    function: Function
    args: List[RuntimeValue]
    regs: Dict[int, RuntimeValue] = field(default_factory=dict)
    allocations: Dict[str, Allocation] = field(default_factory=dict)
    stack_mark: int = 0
    #: the value the frame's ``ret`` returned
    return_value: Optional[RuntimeValue] = None


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


#: One compiled instruction: runs it in a frame; a terminator returns the
#: next block (``None`` for a return), every other step returns ``None``.
Step = Callable[[Frame], Optional[BasicBlock]]
#: A compiled block: its hook key and its runs.  A run is ``(size,
#: steps)``: the steps up to and including a user call or the terminator,
#: of which ``size`` count as executed instructions.
CompiledBlock = Tuple[Tuple[str, str], Tuple[Tuple[int, Tuple[Step, ...]], ...]]


class Interpreter:
    """Execute a module and (optionally) emit its dynamic instruction trace.

    ``trace_sink`` is the :class:`TraceBinaryWriter` the records go to;
    without one the run only executes, and the interpreter may run again
    (see :meth:`run`).  Its compiled steps refer back to it, so an
    execute-only interpreter is freed by reference counting only once
    :meth:`close` (or the end of a ``with`` block) drops them.
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
        #: the compiled blocks (their steps refer back to the interpreter:
        #: a traced run drops them when it returns, an execute-only
        #: interpreter keeps them for its next run until :meth:`close`)
        self._blocks: Dict[BasicBlock, CompiledBlock] = {}
        self._ran = False

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def register_block_hook(self, function_name: str, block_name: str,
                            callback: Callable[[HookContext], None]) -> None:
        self._block_hooks.setdefault((function_name, block_name), []).append(callback)

    def block_entry_count(self, function_name: str, block_name: str) -> int:
        return self._block_entry_counts.get((function_name, block_name), 0)

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
        """Run the module from ``entry``.

        An execute-only interpreter may run again.  Each run starts from a
        fresh machine: memory, RNG and clock, output, step counter, frames,
        globals and block entry counts.  It reuses the blocks earlier runs
        compiled: globals are allocated in module order from the same base
        every run, so the global pointers the steps hold stay valid.  The
        hooks registered before a run serve that run only.  A traced
        interpreter runs once.
        """
        if self._ran:
            if self.sink is not None:
                raise InterpreterError(
                    "a traced interpreter runs once: its trace is written")
            self._start_again()
        self._ran = True
        self._setup_globals()
        failed = False
        failure: Optional[SimulatedFailure] = None
        return_value: Optional[RuntimeValue] = None
        try:
            try:
                function = self.module.function(entry)
            except KeyError as exc:
                raise InterpreterError(
                    f"no function named {entry!r}") from exc
            try:
                return_value = self._call_function(function, list(args))
            except SimulatedFailure as exc:
                failed = True
                # Without its traceback: the frames it holds would keep
                # this interpreter alive for as long as the result.
                failure = exc.with_traceback(None)
        finally:
            self._block_hooks.clear()
            if self.sink is not None:
                self._blocks.clear()
        return ExecutionResult(output=list(self.output), return_value=return_value,
                               steps=self.steps, failed=failed, failure=failure,
                               memory=self.memory)

    def close(self) -> None:
        """Drop the compiled blocks; a later run compiles them again."""
        self._blocks.clear()

    def __enter__(self) -> "Interpreter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _start_again(self) -> None:
        """A fresh machine for the next run.  The steps hold the cell
        store, the output list and the runtime, so those are emptied in
        place; the last run's result keeps its memory."""
        self.memory = self.memory.renew()
        self.runtime.restart()
        self.output.clear()
        self.steps = 0
        self.frames = []
        self.global_allocations = {}
        self._block_entry_counts.clear()

    def _setup_globals(self) -> None:
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

    # ------------------------------------------------------------------ #
    # Function execution
    # ------------------------------------------------------------------ #
    def _call_function(self, function: Function,
                       args: List[RuntimeValue]) -> Optional[RuntimeValue]:
        if len(self.frames) >= self.max_call_depth:
            raise InterpreterError(f"call depth exceeded in {function.name!r}")
        frame = Frame(function=function, args=args,
                      regs={-1 - index: value
                            for index, value in enumerate(args)},
                      stack_mark=self.memory.stack_mark())
        self.frames.append(frame)
        blocks = self._blocks
        entry_counts = self._block_entry_counts
        hooks = self._block_hooks
        write_blocks = self.sink.write_blocks if self.sink is not None else None
        try:
            block = function.entry
            while True:
                compiled = blocks.get(block)
                if compiled is None:
                    compiled = blocks[block] = self._compile_block(function,
                                                                   block)
                if write_blocks is not None:
                    write_blocks()
                key, runs = compiled
                count = entry_counts.get(key, 0) + 1
                entry_counts[key] = count
                if hooks and key in hooks:
                    context = HookContext(interpreter=self, frame=frame,
                                          function_name=function.name,
                                          block_name=block.name,
                                          entry_count=count)
                    for hook in hooks[key]:
                        hook(context)
                try:
                    for size, steps in runs:
                        total = self.steps + size
                        if total > self.max_steps:
                            self._exhaust_budget(frame, steps)
                        self.steps = total
                        for step in steps:
                            outcome = step(frame)
                except KeyError as exc:
                    error = self._unset_register(frame, exc)
                    if error is None:
                        raise
                    raise error from exc
                if outcome is None:
                    return frame.return_value
                block = outcome
        finally:
            self.frames.pop()
            self.memory.stack_release(frame.stack_mark)

    def _exhaust_budget(self, frame: Frame, steps: Tuple[Step, ...]) -> None:
        """Run a run's steps up to the instruction budget, then stop."""
        within = self.max_steps - self.steps
        self.steps += len(steps)
        for step in steps[:within]:
            step(frame)
        self.steps = self.max_steps + 1
        raise InterpreterError(
            f"instruction budget of {self.max_steps} exceeded "
            f"(possible infinite loop in {frame.function.name!r})")

    @staticmethod
    def _unset_register(frame: Frame,
                        exc: KeyError) -> Optional[InterpreterError]:
        """The error a step's failed register read stands for (``None``
        when ``exc`` did not come from one)."""
        key = exc.args[0] if exc.args else None
        if key.__class__ is not int or key in frame.regs:
            return None
        if key < 0:
            return InterpreterError(
                f"missing argument {-1 - key} in {frame.function.name}")
        return InterpreterError(
            f"use of unset register %{key} in {frame.function.name}")

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def _compile_block(self, function: Function,
                       block: BasicBlock) -> CompiledBlock:
        """Compile ``block``'s instructions up to its first terminator."""
        runs: List[List[Instruction]] = [[]]
        terminated = False
        for inst in block.instructions:
            runs[-1].append(inst)
            if inst.is_terminator:
                terminated = True
                break
            if inst.__class__ is CallInst and not inst.is_builtin:
                runs.append([])
        compiled = [(len(run), tuple(self._compile_step(function, inst,
                                                        len(run) - 1 - position)
                                     for position, inst in enumerate(run)))
                    for run in runs if run]
        if not terminated:
            message = (f"{function.name}/{block.name}: "
                       f"fell off the end of a block")

            def fell_off(frame: Frame) -> None:
                raise InterpreterError(message)

            compiled.append((0, (fell_off,)))
        return (function.name, block.name), tuple(compiled)

    def _compile_step(self, function: Function, inst: Instruction,
                      back: int) -> Step:
        """One instruction's step; ``back`` is how many instructions of its
        run follow it, so its dyn id is ``self.steps - back``.

        An instruction that cannot be compiled gets a step that raises the
        error when it executes, where running the instruction would have.
        """
        emission = (_Emission(self.sink, function, inst)
                    if self.sink is not None else None)
        try:
            builder = _STEP_BUILDERS.get(inst.__class__)
            if builder is None:
                raise InterpreterError(f"cannot execute instruction {inst!r}")
            return builder(self, function, inst, back, emission)
        except Exception as exc:
            error = exc

            def failing(frame: Frame) -> None:
                raise error

            return failing

    def _operand(self, value: Value) -> Tuple[Optional[int],
                                              Optional[RuntimeValue]]:
        """``(register key, fixed value)`` of an operand: a register or an
        argument is read from the register file under its key; a constant
        or a global's pointer is fixed here (key ``None``)."""
        if isinstance(value, Register):
            return value.rid, None
        if isinstance(value, Argument):
            return -1 - value.index, None
        if isinstance(value, Constant):
            return None, value.value
        if isinstance(value, GlobalVariable):
            return None, PointerValue(
                self.global_allocations[value.name].address, value.name)
        raise InterpreterError(f"cannot evaluate operand {value!r}")

    def _number_operand(self, value: Value) -> Tuple[Optional[int],
                                                      Optional[Union[int, float]]]:
        """:meth:`_operand` for a consumer of numbers (a pointer is its
        address)."""
        key, fixed = self._operand(value)
        return key, None if fixed is None else as_number(fixed)

    # ------------------------------------------------------------------ #
    # Step builders, one per instruction kind.  Each reads its operands as
    # ``regs[key] if key is not None else fixed`` and, when traced, emits
    # through ``emitters.get(key) or miss(key, fields, symbol)``.
    # ------------------------------------------------------------------ #
    def _alloca_step(self, function: Function, inst: AllocaInst, back: int,
                     emission: Optional[_Emission]) -> Step:
        element_bits, count, is_array = _alloca_shape(inst.allocated_type)
        var_name = inst.var_name
        assert inst.result is not None
        result = inst.result.rid
        function_name = function.name
        traced = emission is not None
        if traced:
            get, miss = emission.emitters.get, emission.emitter

        def step(frame: Frame) -> None:
            allocation = self.memory.allocate_stack(
                var_name, element_bits, count, is_array, function_name)
            frame.allocations[var_name] = allocation
            address = allocation.address
            frame.regs[result] = PointerValue(address, var_name)
            if traced:
                emit = get(()) or miss((), (count, None, 0, address))
                emit(self.steps - back, count, 0, address)

        return step

    def _load_step(self, function: Function, inst: LoadInst, back: int,
                   emission: Optional[_Emission]) -> Step:
        key, fixed = self._operand(inst.pointer)
        assert inst.result is not None
        result = inst.result.rid
        default: RuntimeValue = 0.0 if inst.result.type.is_float else 0
        load = self.memory.cells.get
        line = inst.line
        traced = emission is not None
        if traced:
            get, miss = emission.emitters.get, emission.emitter

        def step(frame: Frame) -> None:
            regs = frame.regs
            pointer = regs[key] if key is not None else fixed
            try:
                address = pointer.address
            except AttributeError:
                raise InterpreterError(
                    f"load through a non-pointer value at line {line}") from None
            value = load(address, default)
            regs[result] = value
            if traced:
                symbol = pointer.symbol
                cls = value.__class__
                if cls is PointerValue:
                    loaded = value.address
                    emit = get((cls, symbol)) or miss(
                        (cls, symbol), (loaded, address, loaded, loaded), symbol)
                    emit(self.steps - back, loaded, address, loaded, loaded)
                else:
                    emit = get((cls, symbol)) or miss(
                        (cls, symbol), (value, address, value, None), symbol)
                    emit(self.steps - back, value, address, value)

        return step

    def _store_step(self, function: Function, inst: StoreInst, back: int,
                    emission: Optional[_Emission]) -> Step:
        value_key, value_fixed = self._operand(inst.value)
        key, fixed = self._operand(inst.pointer)
        cells = self.memory.cells
        line = inst.line
        traced = emission is not None
        if traced:
            get, miss = emission.emitters.get, emission.emitter

        def step(frame: Frame) -> None:
            regs = frame.regs
            value = regs[value_key] if value_key is not None else value_fixed
            pointer = regs[key] if key is not None else fixed
            try:
                address = pointer.address
            except AttributeError:
                raise InterpreterError(
                    f"store through a non-pointer value at line {line}") from None
            cls = value.__class__
            if cls is PointerValue:
                # Storing a pointer into a (parameter) slot: from now on the
                # pointer travels under the slot's name, as LLVM-Tracer
                # reports.
                cells[address] = value.with_symbol(pointer.symbol)
                if traced:
                    symbol = pointer.symbol
                    stored = value.address
                    emit = get((cls, symbol)) or miss(
                        (cls, symbol), (stored, stored, stored, address), symbol)
                    emit(self.steps - back, stored, stored, stored, address)
            else:
                cells[address] = value
                if traced:
                    symbol = pointer.symbol
                    emit = get((cls, symbol)) or miss(
                        (cls, symbol), (value, None, value, address), symbol)
                    emit(self.steps - back, value, value, address)

        return step

    def _gep_step(self, function: Function, inst: GEPInst, back: int,
                  emission: Optional[_Emission]) -> Step:
        base_key, base_fixed = self._operand(inst.base)
        key, fixed = self._operand(inst.index)
        element_bits = inst.element_type.size_in_bits()
        assert inst.result is not None
        result = inst.result.rid
        line = inst.line
        traced = emission is not None
        if traced:
            get, miss = emission.emitters.get, emission.emitter

        def step(frame: Frame) -> None:
            regs = frame.regs
            base = regs[base_key] if base_key is not None else base_fixed
            index = regs[key] if key is not None else fixed
            try:
                base_address = base.address
            except AttributeError:
                raise InterpreterError(
                    f"getelementptr on non-pointer at line {line}") from None
            cls = index.__class__
            number = index.address if cls is PointerValue else index
            address = base_address + int(number) * element_bits // 8
            symbol = base.symbol
            regs[result] = PointerValue(address, symbol)
            if traced:
                if cls is PointerValue:
                    emit = get((cls, symbol)) or miss(
                        (cls, symbol), (base_address, base_address, number,
                                        number, address, address), symbol)
                    emit(self.steps - back, base_address, base_address,
                         number, number, address, address)
                else:
                    emit = get((cls, symbol)) or miss(
                        (cls, symbol), (base_address, base_address, index,
                                        None, address, address), symbol)
                    emit(self.steps - back, base_address, base_address, index,
                         address, address)

        return step

    def _bitcast_step(self, function: Function, inst: BitCastInst, back: int,
                      emission: Optional[_Emission]) -> Step:
        # A bitcast passes its value through: a pointer keeps its address
        # and symbol, and a GEP scales by its own element type.
        key, fixed = self._operand(inst.operands[0])
        assert inst.result is not None
        result = inst.result.rid
        traced = emission is not None
        if traced:
            get, miss = emission.emitters.get, emission.emitter

        def step(frame: Frame) -> None:
            regs = frame.regs
            value = regs[key] if key is not None else fixed
            regs[result] = value
            if traced:
                cls = value.__class__
                if cls is PointerValue:
                    address = value.address
                    emit = get(cls) or miss(
                        cls, (address, address, address, address))
                    emit(self.steps - back, address, address, address, address)
                else:
                    emit = get(cls) or miss(cls, (value, None, value, None))
                    emit(self.steps - back, value, value)

        return step

    def _cast_step(self, function: Function, inst: CastInst, back: int,
                   emission: Optional[_Emission]) -> Step:
        key, fixed = self._operand(inst.operands[0])
        convert = _CASTS.get(inst.opcode, _cast_preserving)
        assert inst.result is not None
        result = inst.result.rid
        traced = emission is not None
        if traced:
            get, miss = emission.emitters.get, emission.emitter

        def step(frame: Frame) -> None:
            regs = frame.regs
            value = regs[key] if key is not None else fixed
            cls = value.__class__
            number = value.address if cls is PointerValue else value
            converted = convert(number)
            regs[result] = converted
            if traced:
                signature = (cls, converted.__class__)
                if cls is PointerValue:
                    emit = get(signature) or miss(
                        signature, (number, number, converted, None))
                    emit(self.steps - back, number, number, converted)
                else:
                    emit = get(signature) or miss(
                        signature, (value, None, converted, None))
                    emit(self.steps - back, value, converted)

        return step

    def _cmp_step(self, function: Function, inst: CmpInst, back: int,
                  emission: Optional[_Emission]) -> Step:
        lhs_key, lhs_fixed = self._number_operand(inst.operands[0])
        rhs_key, rhs_fixed = self._number_operand(inst.operands[1])
        compare = _COMPARISONS[inst.predicate]
        assert inst.result is not None
        result = inst.result.rid
        traced = emission is not None
        if traced:
            get, miss = emission.emitters.get, emission.emitter

        def step(frame: Frame) -> None:
            regs = frame.regs
            lhs = regs[lhs_key] if lhs_key is not None else lhs_fixed
            if lhs.__class__ is PointerValue:
                lhs = lhs.address
            rhs = regs[rhs_key] if rhs_key is not None else rhs_fixed
            if rhs.__class__ is PointerValue:
                rhs = rhs.address
            outcome = 1 if compare(lhs, rhs) else 0
            regs[result] = outcome
            if traced:
                signature = (lhs.__class__, rhs.__class__)
                emit = get(signature) or miss(
                    signature, (lhs, None, rhs, None, outcome, None))
                emit(self.steps - back, lhs, rhs, outcome)

        return step

    def _binary_step(self, function: Function, inst: BinaryInst, back: int,
                     emission: Optional[_Emission]) -> Step:
        lhs_key, lhs_fixed = self._number_operand(inst.operands[0])
        rhs_key, rhs_fixed = self._number_operand(inst.operands[1])
        operation = _BINARY_OPERATIONS.get(inst.opcode)
        if operation is None:
            raise InterpreterError(f"unsupported binary opcode {inst.opcode!r}")
        assert inst.result is not None
        result = inst.result.rid
        line = inst.line
        traced = emission is not None
        if traced:
            get, miss = emission.emitters.get, emission.emitter

        def step(frame: Frame) -> None:
            regs = frame.regs
            lhs = regs[lhs_key] if lhs_key is not None else lhs_fixed
            if lhs.__class__ is PointerValue:
                lhs = lhs.address
            rhs = regs[rhs_key] if rhs_key is not None else rhs_fixed
            if rhs.__class__ is PointerValue:
                rhs = rhs.address
            try:
                value = operation(lhs, rhs)
            except ZeroDivisionError as exc:
                raise InterpreterError(f"division by zero at line {line}") from exc
            regs[result] = value
            if traced:
                signature = (lhs.__class__, rhs.__class__, value.__class__)
                emit = get(signature) or miss(
                    signature, (lhs, None, rhs, None, value, None))
                emit(self.steps - back, lhs, rhs, value)

        return step

    def _print_step(self, function: Function, inst: PrintInst, back: int,
                    emission: Optional[_Emission]) -> Step:
        operands = [self._number_operand(operand) for operand in inst.operands]
        labels = inst.labels
        output = self.output

        def step(frame: Frame) -> None:
            regs = frame.regs
            values = [as_number(regs[key] if key is not None else fixed)
                      for key, fixed in operands]
            output.append(format_print_output(labels, values))
            if emission is not None:
                emission.emit(self.steps - back, _values_fields(values))

        return step

    def _call_step(self, function: Function, inst: CallInst, back: int,
                   emission: Optional[_Emission]) -> Step:
        operands = [self._operand(operand) for operand in inst.operands]
        callee = inst.callee
        result = inst.result.rid if inst.result is not None else None
        line = inst.line

        if inst.is_builtin:
            call = self.runtime.call

            def builtin_step(frame: Frame) -> None:
                regs = frame.regs
                arguments = [regs[key] if key is not None else fixed
                             for key, fixed in operands]
                try:
                    value = call(callee, [as_number(argument)
                                          for argument in arguments])
                except RuntimeError_ as exc:
                    raise InterpreterError(f"{exc} at line {line}") from exc
                if result is not None:
                    regs[result] = value
                if emission is not None:
                    fields = _values_fields(arguments)
                    if result is not None:
                        fields += _value_fields(value)
                    emission.emit(self.steps - back, fields)

            return builtin_step

        # User function: emit the Call record first (the callee's body
        # follows in the trace — paper Fig. 6b), including parameter name
        # bindings.
        parameters = len(inst.param_names)
        module = self.module

        def call_step(frame: Frame) -> None:
            regs = frame.regs
            arguments = [regs[key] if key is not None else fixed
                         for key, fixed in operands]
            if emission is not None:
                params = [arguments[position] if position < len(arguments)
                          else 0 for position in range(parameters)]
                emission.emit(self.steps - back, _values_fields(arguments)
                              + _values_fields(params))
            try:
                target = module.function(callee)
            except KeyError as exc:
                raise InterpreterError(
                    f"call to unknown function {callee!r}") from exc
            returned = self._call_function(target, arguments)
            if result is not None:
                regs[result] = returned if returned is not None else 0

        return call_step

    def _branch_step(self, function: Function, inst: BranchInst, back: int,
                     emission: Optional[_Emission]) -> Step:
        traced = emission is not None
        if traced:
            get, miss = emission.emitters.get, emission.emitter
        if not inst.is_conditional:
            target = inst.targets[0]

            def jump(frame: Frame) -> BasicBlock:
                if traced:
                    (get(()) or miss((), ()))(self.steps - back)
                return target

            return jump

        key, fixed = self._number_operand(inst.operands[0])
        true_target, false_target = inst.targets[:2]

        def branch(frame: Frame) -> BasicBlock:
            condition = frame.regs[key] if key is not None else fixed
            if condition.__class__ is PointerValue:
                condition = condition.address
            if traced:
                cls = condition.__class__
                emit = get(cls) or miss(cls, (condition, None))
                emit(self.steps - back, condition)
            return true_target if condition != 0 else false_target

        return branch

    def _ret_step(self, function: Function, inst: RetInst, back: int,
                  emission: Optional[_Emission]) -> Step:
        traced = emission is not None
        if traced:
            get, miss = emission.emitters.get, emission.emitter
        if not inst.operands:

            def ret_void(frame: Frame) -> None:
                if traced:
                    (get(()) or miss((), ()))(self.steps - back)

            return ret_void

        key, fixed = self._operand(inst.operands[0])

        def ret(frame: Frame) -> None:
            value = frame.regs[key] if key is not None else fixed
            if traced:
                cls = value.__class__
                if cls is PointerValue:
                    address = value.address
                    emit = get(cls) or miss(cls, (address, address))
                    emit(self.steps - back, address, address)
                else:
                    emit = get(cls) or miss(cls, (value, None))
                    emit(self.steps - back, value)
            frame.return_value = value

        return ret


_STEP_BUILDERS: Dict[type, Callable[..., Step]] = {
    AllocaInst: Interpreter._alloca_step,
    LoadInst: Interpreter._load_step,
    StoreInst: Interpreter._store_step,
    GEPInst: Interpreter._gep_step,
    BitCastInst: Interpreter._bitcast_step,
    CastInst: Interpreter._cast_step,
    CmpInst: Interpreter._cmp_step,
    BinaryInst: Interpreter._binary_step,
    PrintInst: Interpreter._print_step,
    CallInst: Interpreter._call_step,
    BranchInst: Interpreter._branch_step,
    RetInst: Interpreter._ret_step,
}
