"""Content-addressed on-disk store of analysis artifacts.

The same digest-keyed idiom build systems use for object caches, applied to
AutoCheck reports: an entry is addressed by the SHA-256 of

    (trace content digest, config fingerprint, report schema version)

so a byte-identical trace analysed under an equivalent configuration is an
O(1) lookup instead of a full record walk.  The **config fingerprint**
covers exactly the fields that determine the analysis *result* — the main
loop location, the global-access switch, a pinned induction variable — and
deliberately excludes per-run plumbing such as the progress callback, so a
store warmed by one caller serves every other.

Layout under the store root (``AUTOCHECK_CACHE_DIR`` or
``~/.cache/autocheck``)::

    objects/<key[:2]>/<key>.json     one serialized report per entry

Entries are written atomically (temp file in the target directory +
``os.replace``), so a concurrent reader — e.g. another ``analyze-batch``
worker — never observes a torn entry.  Concurrent writers of the same key
race benignly: both write the same content.

Corrupted entries (truncated writes survive only on non-atomic filesystems,
but bit rot and hand edits happen) are **self-healing**: :meth:`ArtifactStore.load`
treats them as a miss, unlinks them, and lets the caller recompute.  The
strict path (:meth:`ArtifactStore.load_entry`) raises :class:`StoreError`
naming the offending file and key, for callers that need the diagnosis.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import AutoCheckConfig
from repro.core.report import AutoCheckReport
from repro.store.serialize import (
    SCHEMA_VERSION,
    SerializationError,
    report_from_dict,
    report_to_dict,
)

#: Environment override for the store root.
CACHE_DIR_ENV = "AUTOCHECK_CACHE_DIR"


class StoreError(Exception):
    """A store entry could not be read; names the file path and key."""


def default_cache_dir() -> str:
    """The store root: ``$AUTOCHECK_CACHE_DIR`` or ``~/.cache/autocheck``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "autocheck")


def config_fingerprint(config: AutoCheckConfig,
                       static_induction: Optional[str] = None,
                       static_fingerprint: Optional[str] = None) -> str:
    """Hex SHA-256 over the config fields that determine the report.

    Per-run plumbing (the progress callback) is excluded on purpose — it
    changes how a run is observed, not the answer.

    ``static_induction`` is the induction-variable name the pipeline
    resolved from the IR's static loop analysis (``None`` when no module
    was supplied or nothing was found).  It is part of the fingerprint
    because it is an analysis *input* that lives outside the config: a run
    with the module at hand and one without it may detect the induction
    variable differently, and the two must never share a store entry.

    ``static_fingerprint`` is the digest of the static analysis driving
    the engine prefilter
    (:meth:`repro.static.summary.StaticModuleAnalysis.fingerprint`).  It
    joins the fingerprint **only when prefiltering is on** (``None``
    otherwise, which leaves the hash identical to pre-prefilter builds):
    the prefiltered report is proven equal to the unfiltered one, but
    keying it separately quarantines any future skip-table bug to
    prefiltered entries instead of poisoning unfiltered runs.
    """
    spec = config.main_loop
    semantic = {
        "function": spec.function,
        "start_line": spec.start_line,
        "end_line": spec.end_line,
        "include_global_accesses_in_calls":
            config.include_global_accesses_in_calls,
        "induction_variable": config.induction_variable,
        "static_induction": static_induction,
    }
    if static_fingerprint is not None:
        semantic["static_prefilter"] = static_fingerprint
    encoded = json.dumps(semantic, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def artifact_key(trace_digest: str, fingerprint: str,
                 schema_version: int = SCHEMA_VERSION) -> str:
    """The store key: SHA-256 over digest, fingerprint and schema version."""
    material = f"{trace_digest}\n{fingerprint}\n{schema_version}\n"
    return hashlib.sha256(material.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class ArtifactAddress:
    """The full addressing tuple of one analysis in the store.

    Every consumer that needs to *name* an analysis before (or without)
    running it — the cache lookup in the pipeline, the serve daemon's
    request-coalescing table, ``GET /report/<key>`` — shares this one
    shape, so "the same analysis" means the same thing everywhere: same
    trace content digest, same semantic config fingerprint, same report
    schema.  Built by :meth:`repro.core.pipeline.AutoCheck.cache_key`.
    """

    #: The derived store key (what :meth:`ArtifactStore.load` takes).
    key: str
    #: Streaming content digest of the trace.
    trace_digest: str
    #: Semantic config fingerprint (:func:`config_fingerprint`).
    fingerprint: str
    schema_version: int = SCHEMA_VERSION


@dataclass
class StoreStats:
    """Shape of the store on disk."""

    entries: int = 0
    total_bytes: int = 0


@dataclass
class GCStats:
    """Outcome of one :meth:`ArtifactStore.gc` sweep."""

    examined: int = 0
    evicted: int = 0
    evicted_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    #: Entry paths that were (or with ``dry_run`` would have been) removed.
    evicted_paths: List[str] = field(default_factory=list)


class ArtifactStore:
    """Digest-keyed persistent store of serialized AutoCheck reports."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self._objects_dir = os.path.join(self.root, "objects")

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    def entry_path(self, key: str) -> str:
        """On-disk path of the entry for ``key`` (whether or not it exists)."""
        return os.path.join(self._objects_dir, key[:2], f"{key}.json")

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def load_entry(self, path: str, key: str) -> AutoCheckReport:
        """Read and decode one entry file, strictly.

        Raises:
            StoreError: when the file is missing, unreadable, not JSON, or
                not a valid report payload — the message names the file
                path and the store key so a corrupt entry surfaced from a
                batch run is attributable immediately.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            report = report_from_dict(payload.get("report"))
        except OSError as exc:
            raise StoreError(
                f"cannot read artifact store entry {path!r} "
                f"(key {key}): {exc}") from exc
        except (json.JSONDecodeError, SerializationError,
                AttributeError) as exc:
            raise StoreError(
                f"corrupt artifact store entry {path!r} "
                f"(key {key}): {exc}") from exc
        return report

    def load(self, key: str) -> Optional[AutoCheckReport]:
        """The cached report for ``key``, or ``None`` on a miss.

        This is the **lock-free read path**: no store-wide lock exists,
        and none is needed.  Writers publish atomically (tmp +
        ``os.replace``), so a reader's single ``open`` observes either no
        entry or a complete one — never a torn write.  The read opens the
        path directly instead of probing existence first: under concurrent
        ``gc`` / self-healing the file can vanish between a probe and the
        open, and a vanished file is simply a miss (the serve daemon runs
        many of these concurrently against the same store).

        A corrupted entry counts as a miss: it is unlinked (so the slot
        heals on the next store) and ``None`` is returned.  A hit touches
        the entry's mtime, so :meth:`gc`'s oldest-first eviction tracks
        *use*, not creation — hot entries survive.
        """
        path = self.entry_path(key)
        try:
            report = self.load_entry(path, key)
        except StoreError as exc:
            if isinstance(exc.__cause__, FileNotFoundError):
                # Plain miss (or lost a benign race with gc): nothing to heal.
                return None
            with contextlib.suppress(OSError):
                os.remove(path)
            return None
        with contextlib.suppress(OSError):
            os.utime(path)
        return report

    def store(self, key: str, report: AutoCheckReport,
              trace_digest: str = "", fingerprint: str = "") -> str:
        """Write ``report`` under ``key`` atomically; return the entry path.

        The entry wraps the serialized report with provenance (digest,
        fingerprint, creation time) so ``gc`` and debugging never need to
        re-derive how an entry was addressed.
        """
        path = self.entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload: Dict[str, Any] = {
            "key": key,
            "schema": SCHEMA_VERSION,
            "trace_digest": trace_digest,
            "config_fingerprint": fingerprint,
            "created_at": time.time(),
            "report": report_to_dict(report),
        }
        # Atomic publish: a reader sees either no entry or a complete one.
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=os.path.dirname(path),
            prefix=".tmp-", suffix=".json", delete=False)
        try:
            with handle:
                json.dump(payload, handle)
            os.replace(handle.name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(handle.name)
            raise
        return path

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def _entry_paths(self) -> List[str]:
        paths: List[str] = []
        if not os.path.isdir(self._objects_dir):
            return paths
        for shard in sorted(os.listdir(self._objects_dir)):
            shard_dir = os.path.join(self._objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    paths.append(os.path.join(shard_dir, name))
        return paths

    def stats(self) -> StoreStats:
        """Entry count and total on-disk bytes."""
        stats = StoreStats()
        for path in self._entry_paths():
            try:
                stats.total_bytes += os.path.getsize(path)
            except OSError:
                continue
            stats.entries += 1
        return stats

    def gc(self, max_entries: Optional[int] = None,
           max_age_seconds: Optional[float] = None,
           max_bytes: Optional[int] = None,
           clear: bool = False, dry_run: bool = False) -> GCStats:
        """Evict entries, oldest (by mtime) first.

        Args:
            max_entries: keep at most this many entries.
            max_age_seconds: evict entries older than this.
            max_bytes: keep the newest entries summing to at most this many
                bytes.
            clear: evict everything (overrides the other limits).
            dry_run: report what would be evicted without removing files.

        Returns:
            The sweep's :class:`GCStats`.  With no limits given, nothing is
            evicted — the sweep is then just an inventory.
        """
        entries = []
        for path in self._entry_paths():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first

        now = time.time()
        result = GCStats(examined=len(entries))
        keep: List[tuple] = []
        for mtime, size, path in entries:
            evict = clear
            if max_age_seconds is not None and now - mtime > max_age_seconds:
                evict = True
            if evict:
                result.evicted_paths.append(path)
            else:
                keep.append((mtime, size, path))
        if max_entries is not None and len(keep) > max_entries:
            overflow = len(keep) - max_entries
            result.evicted_paths.extend(path for _, _, path in keep[:overflow])
            keep = keep[overflow:]
        if max_bytes is not None:
            total = sum(size for _, size, _ in keep)
            while keep and total > max_bytes:
                mtime, size, path = keep.pop(0)
                total -= size
                result.evicted_paths.append(path)

        evicted_set = set(result.evicted_paths)
        for _mtime, size, path in entries:
            if path in evicted_set:
                result.evicted += 1
                result.evicted_bytes += size
                if not dry_run:
                    with contextlib.suppress(OSError):
                        os.remove(path)
            else:
                result.kept += 1
                result.kept_bytes += size
        return result
