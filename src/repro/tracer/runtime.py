"""Runtime builtins available to mini-C programs.

All builtins are deterministic:

* math functions delegate to :mod:`math`;
* ``rand`` / ``randf`` use the library's LCG (:class:`DeterministicRNG`) so
  EP/IS/HACC style benchmarks produce identical traces on every run;
* ``clock`` returns a *virtual* monotonically increasing time (one tick per
  call) — enough to express the timer-accumulation (Write-After-Read)
  patterns of HPCCG/CoMD/miniAMR without making traces non-deterministic.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Union

from repro.util.rng import DeterministicRNG

Number = Union[int, float]

#: the builtins that draw from the seeded RNG: a program that calls none of
#: them traces the same whatever the seed
SEEDED_BUILTINS = frozenset({"rand", "randf"})


class RuntimeError_(Exception):
    """Raised when a builtin is misused at run time."""


class Runtime:
    """Holds builtin implementations plus the deterministic RNG/clock state."""

    def __init__(self, seed: int = 314159) -> None:
        self.rng = DeterministicRNG(seed)
        self._clock_ticks = 0
        self._builtins: Dict[str, Callable[..., Number]] = {
            "sqrt": self._sqrt,
            "pow": self._pow,
            "fabs": lambda x: abs(float(x)),
            "exp": lambda x: math.exp(float(x)),
            "log": self._log,
            "sin": lambda x: math.sin(float(x)),
            "cos": lambda x: math.cos(float(x)),
            "floor": lambda x: math.floor(float(x)),
            "fmin": lambda a, b: min(float(a), float(b)),
            "fmax": lambda a, b: max(float(a), float(b)),
            "abs": lambda x: abs(int(x)),
            "rand": self._rand,
            "randf": self._randf,
            "clock": self._clock,
        }

    # ------------------------------------------------------------------ #
    # Builtin implementations
    # ------------------------------------------------------------------ #
    @staticmethod
    def _sqrt(x: Number) -> float:
        value = float(x)
        if value < 0:
            raise RuntimeError_(f"sqrt of negative value {value}")
        return math.sqrt(value)

    @staticmethod
    def _pow(base: Number, exponent: Number) -> float:
        return math.pow(float(base), float(exponent))

    @staticmethod
    def _log(x: Number) -> float:
        value = float(x)
        if value <= 0:
            raise RuntimeError_(f"log of non-positive value {value}")
        return math.log(value)

    def _rand(self) -> int:
        return self.rng.next_int(1 << 31)

    def _randf(self) -> float:
        return self.rng.next_double()

    def _clock(self) -> float:
        self._clock_ticks += 1
        return float(self._clock_ticks)

    def restart(self) -> None:
        """Draw from the seed and tick from zero again, as a new runtime
        would (the builtins stay bound to this one)."""
        self.rng.reseed(self.rng.seed)
        self._clock_ticks = 0

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def call(self, name: str, args: Sequence[Number]) -> Number:
        try:
            impl = self._builtins[name]
        except KeyError as exc:
            raise RuntimeError_(f"unknown builtin {name!r}") from exc
        try:
            return impl(*args)
        except ZeroDivisionError as exc:
            raise RuntimeError_(f"division by zero in builtin {name!r}") from exc

    def known(self, name: str) -> bool:
        return name in self._builtins


def format_print_output(labels: List, values: List[Number]) -> str:
    """Render the output of a ``print`` statement deterministically.

    Integers print as-is; doubles with 10 significant digits — identical
    formatting on the failure-free and the restarted run is what makes the
    output comparison of the restart validation meaningful.
    """
    parts: List[str] = []
    for index, value in enumerate(values):
        label = labels[index] if index < len(labels) else None
        if label:
            parts.append(str(label))
        if isinstance(value, float):
            parts.append(f"{value:.10g}")
        else:
            parts.append(str(value))
    if len(labels) > len(values):
        for label in labels[len(values):]:
            if label:
                parts.append(str(label))
    return " ".join(parts)
