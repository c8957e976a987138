"""Local checkpoint storage (the FTI "L1" level).

Checkpoints are JSON documents holding the protected variables' element
values plus metadata (iteration number, byte sizes).  JSON is plenty for the
mini benchmarks' data volumes and keeps checkpoints human-inspectable, which
the tests and the storage study exploit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

Number = Union[int, float]

#: The types a checkpointed element value may have (``bool`` is not one).
_NUMBER_TYPES = frozenset({int, float})


class CheckpointError(ValueError):
    """A checkpoint file that does not read back as a checkpoint; the
    message names the file and what is wrong with it."""


@dataclass
class CheckpointData:
    """One checkpoint: iteration number plus per-variable element values."""

    iteration: int
    variables: Dict[str, List[Number]] = field(default_factory=dict)
    sizes_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.sizes_bytes.values())


class CheckpointStorage:
    """Store/retrieve checkpoints under a directory (one file per checkpoint)."""

    FILENAME_PREFIX = "ckpt_"

    def __init__(self, directory: str, keep_history: bool = False) -> None:
        self.directory = directory
        self.keep_history = keep_history
        os.makedirs(directory, exist_ok=True)
        self.remove_stale_tmp_files()

    def remove_stale_tmp_files(self) -> int:
        """Delete tmp files a crashed writer left behind; return the count.

        A writer killed between opening ``*.tmp*`` and ``os.replace`` leaves a
        torn file that must never shadow (or survive next to) a complete
        checkpoint.  ``list_paths`` already ignores them, but a restarted
        process has to reclaim the space and make the directory listing clean.
        """
        removed = 0
        for name in os.listdir(self.directory):
            if name.startswith(self.FILENAME_PREFIX) and ".json.tmp" in name:
                try:
                    os.remove(os.path.join(self.directory, name))
                    removed += 1
                except FileNotFoundError:
                    pass
        return removed

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _path_for(self, iteration: int) -> str:
        return os.path.join(self.directory, f"{self.FILENAME_PREFIX}{iteration:08d}.json")

    def write(self, checkpoint: CheckpointData) -> str:
        path = self._path_for(checkpoint.iteration)
        payload = {
            "iteration": checkpoint.iteration,
            "variables": checkpoint.variables,
            "sizes_bytes": checkpoint.sizes_bytes,
        }
        # One json.dumps call runs the C encoder; json.dump would stream
        # the same text through the pure-Python iterencode.
        text = json.dumps(payload)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
        if not self.keep_history:
            for existing in self.list_paths():
                if existing != path:
                    os.remove(existing)
        return path

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def list_paths(self) -> List[str]:
        names = [name for name in os.listdir(self.directory)
                 if name.startswith(self.FILENAME_PREFIX) and name.endswith(".json")]
        return [os.path.join(self.directory, name) for name in sorted(names)]

    def load(self, path: str) -> CheckpointData:
        """The checkpoint in the file at ``path``.

        Raises:
            CheckpointError: naming ``path``, when the file is not JSON or
                not a checkpoint (see :meth:`write` for the layout).
            OSError: when the file cannot be opened.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        # not UTF-8, not JSON, or nested deeper than the parser goes
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} is not JSON: {exc}") from exc
        problem = _layout_problem(payload)
        if problem:
            raise CheckpointError(f"checkpoint {path!r}: {problem}")
        return CheckpointData(iteration=payload["iteration"],
                              variables=payload["variables"],
                              sizes_bytes=payload.get("sizes_bytes", {}))

    def latest(self) -> Optional[CheckpointData]:
        paths = self.list_paths()
        if not paths:
            return None
        return self.load(paths[-1])

    def clear(self) -> None:
        for path in self.list_paths():
            os.remove(path)

    @property
    def checkpoint_count(self) -> int:
        return len(self.list_paths())

    def storage_bytes_on_disk(self) -> int:
        return sum(os.path.getsize(path) for path in self.list_paths())


def _layout_problem(payload: Any) -> Optional[str]:
    """What keeps the parsed file ``payload`` from being a checkpoint as
    :meth:`CheckpointStorage.write` lays it out, or ``None``."""
    if not isinstance(payload, dict):
        return f"it holds a JSON {type(payload).__name__}, not an object"
    if type(payload.get("iteration")) is not int:
        return f"its iteration {payload.get('iteration')!r} is not an integer"
    variables = payload.get("variables")
    if not isinstance(variables, dict) or not all(
            isinstance(values, list) and set(map(type, values)) <= _NUMBER_TYPES
            for values in variables.values()):
        return "its 'variables' is not an object of number lists"
    sizes = payload.get("sizes_bytes", {})
    if not isinstance(sizes, dict) or not all(
            type(size) is int for size in sizes.values()):
        return "its 'sizes_bytes' is not an object of integers"
    return None
