"""Runtime value representation used by the interpreter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
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
    element_bits: int = 64

    def with_symbol(self, symbol: str) -> "PointerValue":
        return PointerValue(address=self.address, symbol=symbol,
                            element_bits=self.element_bits)


#: Anything a virtual register can hold at run time.
RuntimeValue = Union[int, float, PointerValue]


def as_number(value: RuntimeValue) -> Union[int, float]:
    """Project a runtime value to a number (pointers become their address)."""
    if isinstance(value, PointerValue):
        return value.address
    return value
