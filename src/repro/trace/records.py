"""In-memory representation of dynamic instruction execution traces.

A trace consists of a *globals preamble* (one :class:`GlobalSymbol` per
module-level variable, giving its base address and extent — information a
real LLVM-Tracer run exposes through the first ``Load``/``Store`` touching
the global) followed by one :class:`TraceRecord` per executed IR instruction.

Each record carries exactly the information the paper's Fig. 1 describes:

* the source line of the instruction,
* the function it executes in,
* basic block id and label,
* the opcode (numeric, LLVM 3.4 numbering) and its mnemonic,
* the dynamic instruction id (position in execution order),
* one entry per operand and one for the result, each with: operand id, size
  in bits, runtime value, a register-or-variable flag, the register/variable
  name, and — for memory operands — the concrete memory address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

from repro.ir.opcodes import ARITHMETIC_OPCODE_VALUES, Opcode

#: Operand index used for instruction results (paper Fig. 1 uses ``r``).
RESULT_INDEX = "r"
#: Operand index prefix used for callee formal parameters (paper Fig. 6b).
PARAM_INDEX_PREFIX = "p"


@dataclass(slots=True)
class TraceOperand:
    """One operand (or the result) of a dynamic instruction.

    Treat instances as immutable: millions of them are decoded per trace, so
    the class trades the enforced frozenness of a ``frozen=True`` dataclass
    for the ~2x cheaper construction and attribute access of ``slots=True``
    (the trace readers are the hottest path in the system).
    """

    index: str
    bits: int
    value: Union[int, float]
    is_register: bool
    name: str = ""
    address: Optional[int] = None

    @property
    def is_parameter(self) -> bool:
        return self.index.startswith(PARAM_INDEX_PREFIX)


@dataclass(slots=True)
class TraceRecord:
    """One executed IR instruction (slotted — one per traced instruction)."""

    dyn_id: int
    opcode: int
    opcode_name: str
    function: str
    line: int
    column: int
    bb_label: int
    bb_id: str
    operands: List[TraceOperand] = field(default_factory=list)
    result: Optional[TraceOperand] = None
    callee: str = ""

    # ------------------------------------------------------------------ #
    # Convenience predicates used throughout the analysis
    # ------------------------------------------------------------------ #
    @property
    def op(self) -> Opcode:
        return Opcode(self.opcode)

    @property
    def is_arithmetic(self) -> bool:
        return self.opcode in ARITHMETIC_OPCODE_VALUES

    @property
    def is_load(self) -> bool:
        return self.opcode == Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode == Opcode.STORE

    @property
    def is_alloca(self) -> bool:
        return self.opcode == Opcode.ALLOCA

    @property
    def is_call(self) -> bool:
        return self.opcode == Opcode.CALL

    @property
    def is_gep(self) -> bool:
        return self.opcode == Opcode.GETELEMENTPTR

    def memory_operand(self) -> Optional[TraceOperand]:
        """The named-variable memory operand of a Load/Store/GEP/Alloca."""
        if self.is_load or self.is_gep:
            return self.operands[0] if self.operands else None
        if self.is_store:
            return self.operands[1] if len(self.operands) > 1 else None
        if self.is_alloca:
            return self.result
        return None

    def parameter_operands(self) -> List[TraceOperand]:
        return [op for op in self.operands if op.is_parameter]

    def argument_operands(self) -> List[TraceOperand]:
        return [op for op in self.operands if not op.is_parameter]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TraceRecord #{self.dyn_id} {self.opcode_name} "
                f"{self.function}:{self.line}>")


@dataclass(frozen=True, slots=True)
class GlobalSymbol:
    """Globals preamble entry: name, base address and extent of a module global."""

    name: str
    address: int
    size_bytes: int
    element_bits: int
    is_array: bool

    @property
    def end_address(self) -> int:
        return self.address + self.size_bytes

    def contains(self, address: int) -> bool:
        return self.address <= address < self.end_address


class Trace:
    """A full dynamic trace: globals preamble + execution records.

    An immutable value with two views, each computed at most once from the
    other: :attr:`records`, and :meth:`encoded` — the version-2 binary
    encoding (:mod:`repro.trace.binio`) the analysis walks, with its
    content digest.  ``Trace(module_name, globals, records)`` encodes its
    records on the first :meth:`encoded` call; :meth:`from_binary` keeps
    the bytes it is given and decodes :attr:`records` on first access
    (iterating before then streams them without keeping them).

    :attr:`source_path` names the file (or upload) a trace's bytes came
    from (:func:`repro.trace.textio.trace_from_bytes`), so errors on its
    bytes can name it; it is not part of the trace's content, bytes or
    digest.
    """

    __slots__ = ("_module_name", "_globals", "_records", "_encoded",
                 "source_path")

    def __init__(self, module_name: str = "module",
                 globals: Optional[List[GlobalSymbol]] = None,
                 records: Optional[List[TraceRecord]] = None) -> None:
        self._module_name = module_name
        self._globals = [] if globals is None else globals
        self._records: Optional[List[TraceRecord]] = (
            [] if records is None else records)
        self._encoded: Optional[Tuple[bytes, str]] = None
        self.source_path: Optional[str] = None

    @classmethod
    def from_binary(cls, data: bytes, name: Optional[str] = None) -> "Trace":
        """The trace a whole binary trace file's bytes encode, with their
        footer digest.  Version-1 bytes carry no digest, so their records
        are decoded and encoded again as version 2 (once, streaming).
        ``name`` is the file the bytes came from: errors name it, and it
        is the trace's :attr:`source_path`."""
        from repro.trace.binio import (
            TraceBinaryReader,
            encode_trace,
            layout_from_buffer,
        )

        data = bytes(data)
        layout = layout_from_buffer(data, name)
        digest = layout.content_digest
        if digest is None:
            data, digest = encode_trace(
                layout.module_name, layout.globals,
                TraceBinaryReader(name, buffer=data).iter_records())
        trace = cls(layout.module_name, layout.globals)
        trace._records = None
        trace._encoded = (data, digest)
        trace.source_path = name
        return trace

    @property
    def module_name(self) -> str:
        return self._module_name

    @property
    def globals(self) -> List[GlobalSymbol]:
        return self._globals

    @property
    def records(self) -> List[TraceRecord]:
        """Every record in execution order (decoded on first access)."""
        if self._records is None:
            self._records = list(self._decode())
        return self._records

    def encoded(self) -> Tuple[bytes, str]:
        """``(version-2 binary file bytes, content digest)`` (encoded on
        the first call when the trace was built from records)."""
        if self._encoded is None:
            from repro.trace.binio import encode_trace

            self._encoded = encode_trace(self._module_name, self._globals,
                                         self._records or ())
        return self._encoded

    def _decode(self) -> Iterator[TraceRecord]:
        from repro.trace.binio import TraceBinaryReader

        assert self._encoded is not None
        return TraceBinaryReader(buffer=self._encoded[0]).iter_records()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        if self._records is None:
            return self._decode()
        return iter(self._records)
