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
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple, Union

from repro.ir.opcodes import ARITHMETIC_OPCODE_VALUES, Opcode

if TYPE_CHECKING:
    from repro.trace.binio import BinaryTraceLayout

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
    content digest — together with :attr:`layout`, what those bytes'
    footer says.  Every reader of the trace uses that layout (iteration,
    :attr:`records`, the walk and the digest check), so a trace's footer
    is parsed at most once.

    ``Trace(module_name, globals, records)`` encodes its records on first
    need and keeps the writer's layout; :meth:`from_encoded` takes bytes
    with the layout their writer built, and :meth:`from_binary` parses the
    footer of bytes from elsewhere.  A trace over bytes decodes
    :attr:`records` on first access (iterating before then streams them
    without keeping them).

    :attr:`source_path` names the file (or upload) a trace's bytes came
    from (:func:`repro.trace.textio.trace_from_bytes`), so errors on its
    bytes can name it; it is not part of the trace's content, bytes or
    digest.  :attr:`digest_checked` records that
    :func:`repro.trace.binio.check_content_digest` found those bytes to
    fold to their footer digest; they are immutable ``bytes``, so the
    record cannot go stale, and a walk of the trace need not hash them
    again.
    """

    __slots__ = ("_module_name", "_globals", "_records", "_data", "_layout",
                 "source_path", "digest_checked")

    def __init__(self, module_name: str = "module",
                 globals: Optional[List[GlobalSymbol]] = None,
                 records: Optional[List[TraceRecord]] = None) -> None:
        self._module_name = module_name
        self._globals = [] if globals is None else globals
        self._records: Optional[List[TraceRecord]] = (
            [] if records is None else records)
        self._data: Optional[bytes] = None
        self._layout: Optional[BinaryTraceLayout] = None
        self.source_path: Optional[str] = None
        self.digest_checked = False

    @classmethod
    def from_encoded(cls, data: bytes, layout: BinaryTraceLayout,
                     name: Optional[str] = None) -> "Trace":
        """The trace over version-2 bytes ``data`` whose ``layout`` is
        known — the one their writer built — so nothing is parsed.
        ``name`` is its :attr:`source_path`."""
        trace = cls(layout.module_name, layout.globals)
        trace._records = None
        trace._data = data
        trace._layout = layout
        trace.source_path = name
        return trace

    @classmethod
    def from_binary(cls, data: bytes, name: Optional[str] = None) -> "Trace":
        """The trace a whole binary trace file's bytes encode, over the
        layout of the one parse of their footer.  Version-1 bytes carry no
        digest, so their records are decoded and encoded again as version
        2 (once, streaming), and the trace keeps that encoding's layout.
        ``name`` is the file the bytes came from: errors name it, and it
        is the trace's :attr:`source_path`."""
        from repro.trace.binio import (
            decode_records,
            encode_trace,
            layout_from_buffer,
        )

        data = bytes(data)
        layout = layout_from_buffer(data, name)
        if layout.content_digest is None:
            data, layout = encode_trace(
                layout.module_name, layout.globals,
                decode_records(data, layout, name))
        return cls.from_encoded(data, layout, name)

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

    @property
    def layout(self) -> BinaryTraceLayout:
        """The layout of :meth:`encoded`'s bytes (encoding the records
        first when the trace was built from them)."""
        if self._layout is None:
            from repro.trace.binio import encode_trace

            self._data, self._layout = encode_trace(
                self._module_name, self._globals, self._records or ())
        return self._layout

    def encoded(self) -> Tuple[bytes, str]:
        """``(version-2 binary file bytes, content digest)`` (encoded on
        the first call when the trace was built from records)."""
        digest = self.layout.content_digest
        assert self._data is not None and digest is not None
        return self._data, digest

    def _decode(self) -> Iterator[TraceRecord]:
        from repro.trace.binio import decode_records

        assert self._data is not None and self._layout is not None
        return decode_records(self._data, self._layout, self.source_path)

    def __len__(self) -> int:
        if self._layout is not None:
            return self._layout.record_count
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        if self._records is None:
            return self._decode()
        return iter(self._records)
