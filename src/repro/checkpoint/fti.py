"""An FTI-like application-level checkpoint library.

The API mirrors the Fault Tolerance Interface the paper uses for validation
(Bautista-Gomez et al., SC'11): ``protect`` registers a variable, ``checkpoint``
persists every protected variable, ``recover`` restores them, and ``status``
tells the application whether a restart is in progress.  Only the L1
(node-local) level is modelled, which is the level the paper uses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.checkpoint.storage import CheckpointData, CheckpointStorage

Number = Union[int, float]
Reader = Callable[[], List[Number]]
Writer = Callable[[List[Number]], None]


class FTIError(Exception):
    """Raised on misuse of the checkpoint API."""


class FTILevel(enum.IntEnum):
    """Checkpoint levels; only L1 (local storage) is implemented, like the
    paper's evaluation ("We use the most basic FTI checkpointing mode L1")."""

    L1 = 1


@dataclass
class FTIConfig:
    """Configuration of an :class:`FTI` instance."""

    directory: str
    level: FTILevel = FTILevel.L1
    keep_history: bool = False
    checkpoint_interval: int = 1


@dataclass
class _ProtectedVariable:
    vid: int
    name: str
    size_bytes: int
    reader: Reader
    writer: Writer


class FTI:
    """Protect / checkpoint / recover registered variables."""

    def __init__(self, config: FTIConfig) -> None:
        self.config = config
        self.storage = CheckpointStorage(config.directory,
                                         keep_history=config.keep_history)
        self._protected: Dict[int, _ProtectedVariable] = {}
        self._by_name: Dict[str, _ProtectedVariable] = {}
        self._checkpoints_written = 0
        self._finalized = False

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def protect(self, vid: int, name: str, size_bytes: int,
                reader: Reader, writer: Writer) -> None:
        """Register a variable for checkpointing.

        ``reader`` returns the variable's current element values and
        ``writer`` overwrites them — the instrumentation layer wires these to
        the interpreter's memory.
        """
        if vid in self._protected:
            raise FTIError(f"variable id {vid} already protected")
        if name in self._by_name:
            raise FTIError(f"variable name {name!r} already protected")
        variable = _ProtectedVariable(vid=vid, name=name, size_bytes=size_bytes,
                                      reader=reader, writer=writer)
        self._protected[vid] = variable
        self._by_name[name] = variable

    def protected_names(self) -> List[str]:
        return list(self._by_name.keys())

    def protected_bytes(self) -> int:
        return sum(variable.size_bytes for variable in self._protected.values())

    # ------------------------------------------------------------------ #
    # Checkpoint / recover
    # ------------------------------------------------------------------ #
    def status(self) -> bool:
        """True when a checkpoint exists to recover from (like FTI_Status)."""
        return self.storage.latest() is not None

    def checkpoint(self, iteration: int) -> Optional[str]:
        """Persist all protected variables (honours the configured interval)."""
        if self._finalized:
            raise FTIError("checkpoint after finalize")
        interval = max(1, self.config.checkpoint_interval)
        if iteration % interval != 0:
            return None
        data = CheckpointData(iteration=iteration)
        for variable in self._protected.values():
            data.variables[variable.name] = list(variable.reader())
            data.sizes_bytes[variable.name] = variable.size_bytes
        path = self.storage.write(data)
        self._checkpoints_written += 1
        return path

    def recover(self, names: Optional[Sequence[str]] = None) -> CheckpointData:
        """Restore protected variables from the most recent checkpoint.

        ``names`` optionally restricts restoration to a subset (used by the
        necessity study, which deliberately drops one variable at a time).
        Raises :class:`FTIError` when there is no checkpoint.
        """
        latest = self.try_recover(names)
        if latest is None:
            raise FTIError("no checkpoint available to recover from")
        return latest

    def try_recover(self, names: Optional[Sequence[str]] = None,
                    ) -> Optional[CheckpointData]:
        """:meth:`recover` when there is a checkpoint, else ``None``.

        A restarting run's :meth:`status` and :meth:`recover` in one read
        of the latest checkpoint.
        """
        latest = self.storage.latest()
        if latest is None:
            return None
        restore_names = set(names) if names is not None else set(latest.variables)
        for name, values in latest.variables.items():
            if name not in restore_names:
                continue
            variable = self._by_name.get(name)
            if variable is None:
                continue
            variable.writer(list(values))
        return latest

    def finalize(self) -> None:
        self._finalized = True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def checkpoints_written(self) -> int:
        return self._checkpoints_written

    def last_checkpoint(self) -> Optional[CheckpointData]:
        return self.storage.latest()

    def checkpoint_bytes(self) -> int:
        """Bytes of application state held in the latest checkpoint."""
        latest = self.storage.latest()
        if latest is None:
            return 0
        return latest.total_bytes
