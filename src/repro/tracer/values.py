"""Runtime value representation used by the interpreter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


# Slotted and not frozen: a frozen dataclass sets each field through
# ``object.__setattr__``, and every GEP and Alloca builds a pointer.
# ``unsafe_hash`` hashes it by value, which holds because nothing assigns
# to a pointer's fields after it is built.
@dataclass(slots=True, unsafe_hash=True)
class PointerValue:
    """A runtime pointer: concrete address plus the symbol it was derived from.

    The symbol is the *IR-level* name the pointer currently travels under —
    e.g. inside ``foo(int *p, ...)`` an element pointer derived from the
    parameter is reported as ``p`` even though its address lies inside the
    caller's array ``a``, exactly as LLVM-Tracer reports it (paper Fig. 1).
    The argument/parameter correlation is recovered by the analysis from the
    ``Call`` records (paper Fig. 6b) and from address-interval matching.
    """

    address: int
    symbol: str

    def with_symbol(self, symbol: str) -> "PointerValue":
        return PointerValue(self.address, symbol)


#: Anything a virtual register can hold at run time.
RuntimeValue = Union[int, float, PointerValue]


def as_number(value: RuntimeValue) -> Union[int, float]:
    """Project a runtime value to a number (pointers become their address)."""
    if isinstance(value, PointerValue):
        return value.address
    return value
