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

    objects/<key[:2]>/<key>.json     one entry per key, two lines:
        {"key", "schema", "trace_digest", "config_fingerprint",
         "created_at", "timings", "report_sha256"}      the header
        canonical_report_json(report)                    the report

The second line is the report's canonical encoding, the bytes the serve
daemon answers with, so a publish encodes its report once and a read that
serves it (:meth:`ArtifactStore.load_canonical`) decodes nothing.  The
header keeps what the canonical form leaves out (the run's timings) and the
SHA-256 of the second line.  A key is 64 lowercase hex digits; anything
else names no entry, so no key becomes a path outside ``objects/``.

Entries are written atomically (temp file in the target directory +
``os.replace``), so a concurrent reader — e.g. another ``analyze-batch``
worker — never observes a torn entry.  Concurrent writers of the same key
race benignly: both write the same report.

Every read checks its entry: the second line must hash to the header's
``report_sha256``, and the header's key and schema must be the ones asked
for.  An entry that fails (bit rot, a hand edit, a torn write on a
non-atomic filesystem, or a single-document entry from before the two-line
layout) is corrupt, and corrupt entries are **self-healing**:
:meth:`ArtifactStore.load` treats them as a miss, unlinks them, and lets the
caller recompute.  The strict path (:meth:`ArtifactStore.load_entry`)
raises :class:`StoreError` naming the offending file and key, for callers
that need the diagnosis.

A hit decodes only what its caller reads.  :meth:`ArtifactStore.load`
decodes the report's small fields at once and leaves its DDGs and R/W
events (the bulk of the entry) as :class:`~repro.core.report.Deferred`
values over the checked, parsed entry; each decodes on its first read.
A section that does not decode then raises :class:`StoreError` naming
the file and key.  The strict :meth:`ArtifactStore.load_entry` decodes
everything with :func:`~repro.store.serialize.report_from_dict`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.core.config import AutoCheckConfig
from repro.core.report import AutoCheckReport, Deferred
from repro.store.serialize import (
    SCHEMA_VERSION,
    canonical_report_json,
    decode_section,
    report_from_dict,
    report_with_sections,
    timings_to_dict,
)

#: Environment override for the store root.
CACHE_DIR_ENV = "AUTOCHECK_CACHE_DIR"

#: A store key: :func:`artifact_key`'s SHA-256, in lowercase hex.
_KEY = re.compile(r"[0-9a-f]{64}")

_T = TypeVar("_T")


class StoreError(Exception):
    """A store entry could not be read; names the file path and key."""


def _decode_stored_section(path: str, key: str, name: str,
                           value: Any) -> Any:
    """Report section ``name`` of the entry at ``path``, decoded on its
    first read (a :class:`Deferred` of a hit's report)."""
    try:
        return decode_section(name, value)
    except (KeyError, IndexError, TypeError, ValueError,
            OverflowError) as exc:
        raise StoreError(
            f"corrupt artifact store entry {path!r} (key {key}): its "
            f"{name} does not decode: {exc!r}") from exc


def is_store_key(key: str) -> bool:
    """Whether ``key`` is a store key (64 lowercase hex digits), the only
    kind of name the store turns into an entry path."""
    return _KEY.fullmatch(key) is not None


def default_cache_dir() -> str:
    """The store root: ``$AUTOCHECK_CACHE_DIR`` or ``~/.cache/autocheck``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "autocheck")


def config_fingerprint(config: AutoCheckConfig,
                       static_induction: Optional[str] = None) -> str:
    """Hex SHA-256 over the config fields that determine the report.

    Per-run plumbing (the progress callback) is excluded on purpose — it
    changes how a run is observed, not the answer.

    ``static_induction`` is the induction-variable name the pipeline
    resolved from the IR's static loop analysis (``None`` when no module
    was supplied or nothing was found).  It is part of the fingerprint
    because it is an analysis *input* that lives outside the config: a run
    with the module at hand and one without it may detect the induction
    variable differently, and the two must never share a store entry.
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
        """On-disk path of the entry for ``key`` (whether or not it exists).

        Raises:
            ValueError: when ``key`` is not a store key
                (:func:`is_store_key`), so no name becomes a path outside
                ``objects/``.
        """
        if not is_store_key(key):
            raise ValueError(f"not an artifact store key: {key!r}")
        return os.path.join(self._objects_dir, key[:2], f"{key}.json")

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    @staticmethod
    def _checked_entry(path: str, key: str) -> Tuple[Dict[str, Any], bytes]:
        """One entry file's header and report line, once the report line
        hashes to the header's ``report_sha256`` and the header names
        ``key`` and this build's schema.

        Raises:
            StoreError: naming ``path`` and ``key`` when the file cannot be
                read (caused by the ``OSError``) or fails a check.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise StoreError(
                f"cannot read artifact store entry {path!r} "
                f"(key {key}): {exc}") from exc
        head, newline, body = data.partition(b"\n")
        try:
            header = json.loads(head) if newline else None
        # not JSON, not UTF-8, or nested deeper than the parser goes
        except (ValueError, RecursionError):
            header = None
        if not isinstance(header, dict):
            problem = "it is not a header line followed by a report line"
        elif header.get("key") != key:
            problem = f"its header names key {header.get('key')!r}"
        elif header.get("schema") != SCHEMA_VERSION:
            problem = (f"its header has schema {header.get('schema')!r} "
                       f"(this build reads schema {SCHEMA_VERSION})")
        elif (hashlib.sha256(body).hexdigest()
              != header.get("report_sha256")):
            problem = "its report line does not hash to its report_sha256"
        else:
            return header, body
        raise StoreError(f"corrupt artifact store entry {path!r} "
                         f"(key {key}): {problem}")

    def load_entry(self, path: str, key: str) -> AutoCheckReport:
        """Read, check and decode one entry file, strictly.

        The report line is parsed, the header's timings are put back and
        the whole is decoded with :func:`report_from_dict`.

        Raises:
            StoreError: when the file is missing or unreadable, fails a
                check, or does not decode as a report — the message names
                the file path and the store key so a corrupt entry surfaced
                from a batch run is attributable immediately.
        """
        return self._decode_entry(path, key, report_from_dict)

    def _load_deferred(self, path: str, key: str) -> AutoCheckReport:
        """:meth:`load_entry`, with the DDGs and R/W events left to
        decode on first read."""
        return self._decode_entry(path, key, lambda payload: (
            report_with_sections(payload, lambda name, value: Deferred(
                _decode_stored_section, path, key, name, value))))

    def _decode_entry(self, path: str, key: str,
                      decode: Callable[[Dict[str, Any]], AutoCheckReport]
                      ) -> AutoCheckReport:
        """``decode`` of the checked entry's parsed report line, with the
        header's timings put back."""
        header, body = self._checked_entry(path, key)
        try:
            payload = json.loads(body)
            payload["timings"] = header["timings"]
            return decode(payload)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise StoreError(
                f"corrupt artifact store entry {path!r} "
                f"(key {key}): {exc!r}") from exc

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

        A name that is not a store key is a miss, and no path is built for
        it.  A corrupted entry counts as a miss: it is unlinked (so the
        slot heals on the next store) and ``None`` is returned.  A hit
        touches the entry's mtime, so :meth:`gc`'s oldest-first eviction
        tracks *use*, not creation — hot entries survive.

        The report's ``complete_ddg``, ``contracted_ddg`` and
        ``rw_sequence`` decode on first read, from the entry this call
        checked and parsed; a section that does not decode raises
        :class:`StoreError` on that read.
        """
        return self._lookup(key, self._load_deferred)

    def load_canonical(self, key: str) -> Optional[bytes]:
        """The canonical bytes of the report stored under ``key`` (its
        entry's report line, :func:`canonical_report_json` of the report),
        or ``None`` on a miss.

        The read path of :meth:`load` — the entry is checked, a corrupt one
        is a miss and unlinked, a hit touches the mtime — without decoding
        the report: the serve daemon answers with these bytes.
        """
        return self._lookup(
            key, lambda path, key: self._checked_entry(path, key)[1])

    def _lookup(self, key: str,
                read: Callable[[str, str], _T]) -> Optional[_T]:
        """``read(path, key)`` of ``key``'s entry; a miss (``None``) when
        ``key`` is not a store key, the entry is gone, or it is corrupt
        (then it is unlinked)."""
        if not is_store_key(key):
            return None
        path = self.entry_path(key)
        try:
            value = read(path, key)
        except StoreError as exc:
            if isinstance(exc.__cause__, FileNotFoundError):
                # Plain miss (or lost a benign race with gc): nothing to heal.
                return None
            with contextlib.suppress(OSError):
                os.remove(path)
            return None
        with contextlib.suppress(OSError):
            os.utime(path)
        return value

    def store(self, key: str, report: AutoCheckReport,
              trace_digest: str = "", fingerprint: str = "") -> str:
        """Write ``report`` under ``key`` atomically; return the entry path.

        The report is encoded once, canonically, as the entry's report
        line.  The header line carries the provenance (digest, fingerprint,
        creation time) so ``gc`` and debugging never need to re-derive how
        an entry was addressed, the run's timings, which the canonical form
        leaves out, and the report line's SHA-256.

        Raises:
            ValueError: when ``key`` is not a store key.
        """
        path = self.entry_path(key)
        body = canonical_report_json(report).encode()
        header = {
            "key": key,
            "schema": SCHEMA_VERSION,
            "trace_digest": trace_digest,
            "config_fingerprint": fingerprint,
            "created_at": time.time(),
            "timings": timings_to_dict(report.timings),
            "report_sha256": hashlib.sha256(body).hexdigest(),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Atomic publish: a reader sees either no entry or a complete one.
        handle = tempfile.NamedTemporaryFile(
            "wb", dir=os.path.dirname(path), prefix=".tmp-", suffix=".json",
            delete=False)
        try:
            with handle:
                handle.write(json.dumps(header).encode() + b"\n")
                handle.write(body)
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
