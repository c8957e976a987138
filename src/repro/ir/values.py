"""IR value hierarchy: constants, virtual registers, globals and arguments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.ir.types import ArrayType, IRType


@dataclass(eq=False)
class Value:
    """Base class of everything that can appear as an instruction operand."""

    type: IRType

    @property
    def is_register(self) -> bool:
        return isinstance(self, Register)

    def display_name(self) -> str:
        raise NotImplementedError


@dataclass(eq=False)
class Constant(Value):
    """An immediate integer/float constant."""

    value: Union[int, float] = 0

    def display_name(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Constant({self.type}, {self.value})"


@dataclass(eq=False)
class Register(Value):
    """A virtual (SSA temporary) register.

    Registers are numbered per function in creation order — the same integer
    naming LLVM-Tracer shows (e.g. temporary register ``8`` in the paper's
    Fig. 1).
    """

    rid: int = 0

    def display_name(self) -> str:
        return str(self.rid)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"%{self.rid}:{self.type}"


@dataclass(eq=False)
class GlobalVariable(Value):
    """A module-level variable.

    ``type`` is the *pointer* type (like LLVM globals); ``value_type`` is the
    stored scalar/array type, and ``initializer`` an optional constant.
    """

    name: str = ""
    value_type: IRType = None  # type: ignore[assignment]
    initializer: Optional[Union[int, float]] = None

    def display_name(self) -> str:
        return self.name

    @property
    def size_in_bytes(self) -> int:
        return self.value_type.size_in_bytes()

    @property
    def is_array(self) -> bool:
        return isinstance(self.value_type, ArrayType)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"@{self.name}:{self.value_type}"


@dataclass(eq=False)
class Argument(Value):
    """A formal function parameter."""

    name: str = ""
    index: int = 0

    def display_name(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"arg {self.name}:{self.type}"
