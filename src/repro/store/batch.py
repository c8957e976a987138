"""Batch analysis frontend: fan a manifest of traces/apps over a pool.

The artifact store turns a repeat analysis into an O(1) lookup; this module
amortizes that across a whole fleet.  A *manifest* names what to analyse —
bundled benchmark apps and/or external trace files with their main-loop
locations — and :func:`run_batch` drives every entry through the cached
pipeline, optionally across a process pool.  On a warm store every entry is
a digest lookup plus a JSON load, so re-validating the fleet after a config
or code change that does *not* touch the analysis is near-instant (the
``benchmarks/bench_artifact_store.py`` bar is ≥5x; measured far above).

Manifest format (JSON): either a bare list of entries, or an object::

    {
      "trace_dir": "traces",            // optional, relative to the manifest
      "entries": [
        {"app": "cg"},                  // a bundled benchmark
        {"app": "bigarray", "params": {"size": 8192}},
        {"trace": "run.btrace",         // an existing trace file
         "function": "main", "start": 12, "end": 18,
         "induction": "it"}             // optional
      ]
    }

App entries compile, trace (binary encoding, into ``trace_dir``) and
analyse; the trace file is *reused* when it already exists — tracing is
deterministic under a fixed seed and the file name carries a digest of the
app's source, so a pre-existing file is the same artifact and the warm
path skips generation entirely.  Trace entries analyse an existing file of
either encoding.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import AutoCheckConfig, MainLoopSpec
from repro.core.pipeline import AutoCheck
from repro.ir.module import Module
from repro.store.cache import default_cache_dir
from repro.util.formatting import render_table


class ManifestError(ValueError):
    """Raised when a batch manifest cannot be interpreted."""


@dataclass
class BatchEntry:
    """One unit of batch work: a bundled app or an external trace file."""

    #: Registered app name (mutually exclusive with ``trace``).
    app: Optional[str] = None
    #: Extra app source parameters (forwarded to the source builder).
    params: Dict[str, int] = field(default_factory=dict)
    #: Path to an existing trace file (mutually exclusive with ``app``).
    trace: Optional[str] = None
    function: str = "main"
    start: Optional[int] = None
    end: Optional[int] = None
    induction: Optional[str] = None
    seed: int = 314159

    @property
    def name(self) -> str:
        if self.app is not None:
            return self.app
        return os.path.basename(self.trace or "<unnamed>")

    def validate(self) -> None:
        if (self.app is None) == (self.trace is None):
            raise ManifestError(
                f"batch entry must set exactly one of 'app' or 'trace': "
                f"{self!r}")
        if self.trace is not None and (self.start is None or self.end is None):
            raise ManifestError(
                f"trace entry {self.trace!r} needs 'start' and 'end' "
                f"main-loop lines")


@dataclass
class BatchItemResult:
    """Outcome of one batch entry."""

    name: str
    ok: bool
    cache_hit: bool
    seconds: float
    #: ``name (DepType)`` strings of the detected critical variables.
    critical: List[str] = field(default_factory=list)
    error: Optional[str] = None


@dataclass
class BatchResult:
    """Outcome of one :func:`run_batch` run."""

    items: List[BatchItemResult]
    seconds: float

    @property
    def hits(self) -> int:
        return sum(1 for item in self.items if item.ok and item.cache_hit)

    @property
    def misses(self) -> int:
        return sum(1 for item in self.items if item.ok and not item.cache_hit)

    @property
    def failures(self) -> int:
        return sum(1 for item in self.items if not item.ok)

    @property
    def all_ok(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        """Human readable per-entry table plus totals."""
        rows = []
        for item in self.items:
            if item.ok:
                status = "hit" if item.cache_hit else "miss"
                detail = ", ".join(item.critical) or "-"
            else:
                status = "ERROR"
                detail = item.error or "unknown error"
            rows.append((item.name, status, f"{item.seconds:.3f}s", detail))
        table = render_table(("entry", "cache", "time", "critical variables"),
                             rows)
        totals = (f"{len(self.items)} entries: {self.hits} hits, "
                  f"{self.misses} misses, {self.failures} failures "
                  f"in {self.seconds:.3f}s")
        return f"{table}\n{totals}"


# --------------------------------------------------------------------------- #
# Manifest loading
# --------------------------------------------------------------------------- #
def _entry_from_dict(raw: Dict[str, Any]) -> BatchEntry:
    known = {"app", "params", "trace", "function", "start", "end",
             "induction", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise ManifestError(
            f"unknown batch entry keys {sorted(unknown)} in {raw!r}")
    entry = BatchEntry(**raw)
    entry.validate()
    return entry


def load_manifest(path: str) -> Tuple[List[BatchEntry], Optional[str]]:
    """Read a manifest file.

    Returns:
        ``(entries, trace_dir)`` — relative paths in the manifest (entry
        ``trace`` files and the manifest-level ``trace_dir``) are resolved
        against the manifest's own directory, so a manifest works from any
        invocation directory; ``trace_dir`` is ``None`` when the manifest
        does not set one.

    Raises:
        ManifestError: on unreadable files, bad JSON, or invalid entries —
            the message names the offending manifest path.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path!r}: {exc}") from exc
    # not UTF-8, not JSON, or nested deeper than the parser goes
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"manifest {path!r} is not JSON: {exc}") from exc

    manifest_dir = os.path.dirname(os.path.abspath(path))
    trace_dir: Optional[str] = None
    if isinstance(payload, dict):
        raw_entries = payload.get("entries")
        if not isinstance(raw_entries, list):
            raise ManifestError(
                f"manifest {path!r} object needs an 'entries' list")
        trace_dir = payload.get("trace_dir")
        if trace_dir is not None:
            trace_dir = os.path.join(manifest_dir, trace_dir)
    elif isinstance(payload, list):
        raw_entries = payload
    else:
        raise ManifestError(
            f"manifest {path!r} must be a list of entries or an object "
            f"with an 'entries' list")

    entries = []
    for raw in raw_entries:
        if not isinstance(raw, dict):
            raise ManifestError(
                f"manifest {path!r}: entry {raw!r} is not an object")
        entry = _entry_from_dict(raw)
        if entry.trace is not None:
            entry.trace = os.path.join(manifest_dir, entry.trace)
        entries.append(entry)
    if not entries:
        raise ManifestError(f"manifest {path!r} has no entries")
    return entries, trace_dir


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #
def _run_entry(entry: BatchEntry, use_cache: bool, cache_dir: Optional[str],
               trace_dir: str) -> BatchItemResult:
    """Worker: analyse one entry (module-level so process pools can pickle)."""
    start_time = time.perf_counter()
    try:
        if entry.app is not None:
            report = _run_app_entry(entry, use_cache, cache_dir, trace_dir)
        else:
            spec = MainLoopSpec(function=entry.function,
                                start_line=entry.start, end_line=entry.end)
            config = AutoCheckConfig(main_loop=spec,
                                     induction_variable=entry.induction,
                                     use_cache=use_cache,
                                     cache_dir=cache_dir)
            report = AutoCheck(config, trace_path=entry.trace).run()
        return BatchItemResult(
            name=entry.name,
            ok=True,
            cache_hit=bool(report.cache_info and report.cache_info.hit),
            seconds=time.perf_counter() - start_time,
            critical=[f"{v.name} ({v.dependency.value})"
                      for v in report.critical_variables],
        )
    except Exception as exc:  # noqa: BLE001 — one bad entry must not kill the batch
        return BatchItemResult(
            name=entry.name,
            ok=False,
            cache_hit=False,
            seconds=time.perf_counter() - start_time,
            error=f"{type(exc).__name__}: {exc}",
        )


def _draws_random_numbers(module) -> bool:
    """True when a call in ``module`` targets a builtin that draws from the
    seeded RNG (``rand`` / ``randf``): only then does the seed reach the
    trace."""
    from repro.ir.instructions import CallInst
    from repro.tracer.runtime import SEEDED_BUILTINS

    return any(isinstance(inst, CallInst) and inst.callee in SEEDED_BUILTINS
               for function in module.functions.values()
               for inst in function.instructions())


def app_trace_path(trace_dir: str, app_name: str,
                   params: Optional[Dict[str, int]] = None,
                   seed: int = 314159, module=None) -> str:
    """Where an app entry keeps its generated binary trace.

    The name encodes everything that determines the trace content (app,
    source parameters, a digest of the app's source text and — when the
    program draws random numbers — the seed), so a pre-existing file is
    the same artifact and batch runs reuse it instead of re-tracing, while
    a changed source is traced again.  ``module`` is the app's compiled
    source, when the caller has it (it is compiled here otherwise).
    """
    from repro.apps.registry import get_app

    params = params or {}
    source = get_app(app_name).source(**params)
    source_digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    suffix = "".join(f"-{key}{value}" for key, value in sorted(params.items()))
    if module is None:
        from repro.codegen.lowering import compile_source

        module = compile_source(source, module_name=app_name)
    if _draws_random_numbers(module):
        suffix += f"-s{seed}"
    return os.path.join(trace_dir,
                        f"{app_name}{suffix}-{source_digest}.btrace")


def _is_reusable_trace(path: str) -> bool:
    """True when ``path`` is a complete, well-formed binary trace."""
    from repro.trace.binio import BinaryTraceError, read_layout

    try:
        read_layout(path)
    except (BinaryTraceError, OSError):
        return False
    return True


def ensure_app_trace(module, app_name: str, params: Dict[str, int],
                     trace_dir: str, seed: int = 314159) -> str:
    """Generate (or reuse) the deterministic binary trace for one app.

    Returns the trace path.  A pre-existing well-formed file is reused as-is
    (tracing is deterministic under a fixed seed); a corrupt leftover is
    healed by regeneration; :func:`repro.tracer.driver.trace_to_file`
    publishes atomically, so a crash never leaves a truncated file under
    the reuse name.
    """
    from repro.tracer.driver import trace_to_file

    trace_path = app_trace_path(trace_dir, app_name, params, seed, module)
    if os.path.exists(trace_path) and not _is_reusable_trace(trace_path):
        # A truncated/corrupt leftover (e.g. an interrupted earlier run)
        # would fail every future batch; heal the slot by regenerating.
        os.remove(trace_path)
    if not os.path.exists(trace_path):
        os.makedirs(trace_dir, exist_ok=True)
        trace_to_file(module, trace_path, module_name=app_name, seed=seed,
                      fmt="binary")
    return trace_path


@dataclass
class PreparedAppAnalysis:
    """An app analysis, staged but not yet run.

    Everything needed to either *address* the analysis
    (``autocheck.cache_key()`` — zero record decodes) or *run* it
    (``autocheck.run()``).  The serve daemon stages requests this way so
    it can consult the store and the request-coalescing table before
    committing a worker to the walk; the batch path runs it immediately.
    ``module`` is the app's one compile, which the campaign runner also
    executes.
    """

    app_name: str
    trace_path: str
    config: AutoCheckConfig
    spec: MainLoopSpec
    module: Module
    autocheck: AutoCheck


def prepare_app_analysis(app_name: str,
                         params: Optional[Dict[str, int]] = None,
                         *,
                         induction: Optional[str] = None,
                         use_cache: bool = True,
                         cache_dir: Optional[str] = None,
                         trace_dir: Optional[str] = None,
                         seed: int = 314159) -> PreparedAppAnalysis:
    """Compile, trace (or reuse the trace) and stage one bundled app.

    Raises:
        KeyError: unknown app name (the registry's own error, so CLI and
            HTTP frontends can map it to their not-found shapes).
    """
    from repro.apps.registry import get_app
    from repro.codegen.lowering import compile_source

    app = get_app(app_name)
    params = dict(params or {})
    source = app.source(**params)
    module = compile_source(source, module_name=app.name)
    spec = app.main_loop(source)

    if trace_dir is None:
        trace_dir = os.path.join(cache_dir or default_cache_dir(), "traces")
    trace_path = ensure_app_trace(module, app.name, params, trace_dir, seed)

    options: Dict[str, Any] = dict(app.autocheck_options)
    if induction is not None:
        options["induction_variable"] = induction
    options["use_cache"] = use_cache
    options["cache_dir"] = cache_dir
    config = AutoCheckConfig(main_loop=spec, **options)
    # The module rides along for the static induction analysis, exactly as
    # the single-app harness (experiments.common.analyze_app) passes it.
    return PreparedAppAnalysis(
        app_name=app.name, trace_path=trace_path, config=config, spec=spec,
        module=module,
        autocheck=AutoCheck(config, trace_path=trace_path, module=module))


def _run_app_entry(entry: BatchEntry, use_cache: bool,
                   cache_dir: Optional[str], trace_dir: str):
    prepared = prepare_app_analysis(
        entry.app, entry.params, induction=entry.induction,
        use_cache=use_cache, cache_dir=cache_dir, trace_dir=trace_dir,
        seed=entry.seed)
    return prepared.autocheck.run()


def analyze_app_cached(app_name: str,
                       params: Optional[Dict[str, int]] = None,
                       use_cache: bool = True,
                       cache_dir: Optional[str] = None,
                       trace_dir: Optional[str] = None,
                       seed: int = 314159):
    """Analyse one bundled app through the artifact store.

    The single-app equivalent of an ``{"app": ...}`` batch entry: the binary
    trace is generated into ``trace_dir`` once and reused forever, and a warm
    store turns the analysis into a digest lookup.  Returns the
    :class:`~repro.core.report.AutoCheckReport`.
    """
    if trace_dir is None:
        trace_dir = os.path.join(cache_dir or default_cache_dir(), "traces")
    entry = BatchEntry(app=app_name, params=dict(params or {}), seed=seed)
    entry.validate()
    return _run_app_entry(entry, use_cache, cache_dir, trace_dir)


def run_batch(entries: Union[str, Sequence[BatchEntry]],
              workers: int = 1,
              use_cache: bool = True,
              cache_dir: Optional[str] = None,
              trace_dir: Optional[str] = None) -> BatchResult:
    """Analyse every manifest entry, reusing the artifact store.

    Args:
        entries: a manifest file path, or pre-built :class:`BatchEntry`
            objects.
        workers: process-pool width; ``1`` runs inline (no subprocesses).
        use_cache: consult/publish the artifact store per entry.
        cache_dir: store root (default: ``$AUTOCHECK_CACHE_DIR`` or
            ``~/.cache/autocheck``).
        trace_dir: where app entries keep their generated binary traces
            (reused across runs).  Defaults to ``<store root>/traces``; a
            manifest-level ``trace_dir`` wins over this default.

    Returns:
        The per-entry outcomes, in manifest order.
    """
    manifest_trace_dir: Optional[str] = None
    if isinstance(entries, str):
        entry_list, manifest_trace_dir = load_manifest(entries)
    else:
        entry_list = list(entries)
        for entry in entry_list:
            entry.validate()
    if trace_dir is None:
        trace_dir = manifest_trace_dir
    if trace_dir is None:
        trace_dir = os.path.join(cache_dir or default_cache_dir(), "traces")

    start_time = time.perf_counter()
    items = map_over_pool(
        functools.partial(_run_entry, use_cache=use_cache,
                          cache_dir=cache_dir, trace_dir=trace_dir),
        entry_list, workers)
    return BatchResult(items=items, seconds=time.perf_counter() - start_time)


def map_over_pool(fn: Callable[[Any], Any], items: Sequence[Any],
                  workers: int) -> List[Any]:
    """Apply ``fn`` to every item, inline or across a process pool.

    Order-preserving.  ``fn`` must be picklable (a module-level function or a
    :func:`functools.partial` of one) when ``workers > 1``.  This is the
    fan-out shared by ``analyze-batch`` and the fault-injection campaign
    runner.
    """
    work = list(items)
    if workers <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, item) for item in work]
        return [future.result() for future in futures]
