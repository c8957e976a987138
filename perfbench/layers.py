"""Per-layer probes and the per-layer metrics derived from their spans.

:func:`install_probes` wraps the public entry point of every layer of the
program with a span-recording shim, from the benchmark's own files: no
source under ``src/`` changes.  Functions that other modules imported by
name are re-bound everywhere they appear, so the shim sees every call.
:func:`layer_metrics` turns a finished recording into the ``per_layer``
metrics named in ``BENCHMARK.json``; :func:`layer_table` renders the
fleet table (compile | trace | encode | decode+walk | identify |
serialize) one row per app.

Every ``*_s`` metric is the summed *self time* of the layer's spans, so
the columns of the table add up to the traced wall time, with two
exceptions that are inclusive durations of one public call:
``checkpoint.run_s`` (``CheckpointInstrumenter.run``) and
``serve.prepare_s`` (``prepare_app_analysis`` plus ``AutoCheck.cache_key``
on the request path).
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from spans import Span, SpanIndex, SpanRecorder

#: Per-app metric prefix: one ``engine.krec_per_s.<app>`` per fleet app.
ENGINE_APP_PREFIX = "engine.krec_per_s."

#: ``/stats`` counters reported as ``serve.*`` metrics (metric -> path).
SERVE_COUNTERS = {
    "serve.jobs_submitted": ("jobs", "submitted"),
    "serve.jobs_rejected": ("jobs", "rejected"),
    "serve.coalesce_joined": ("coalesce", "joined"),
    "serve.cache_hits": ("cache", "hits"),
    "serve.cache_misses": ("cache", "misses"),
}

#: (metric name, unit) of every layer metric except the per-app ones.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("compile.s", "s"),
    ("tracer.s", "s"),
    ("tracer.records", "count"),
    ("tracer.krec_per_s", "krec/s"),
    ("binio.encode_s", "s"),
    ("binio.bytes", "B"),
    ("columnar.decode_s", "s"),
    ("columnar.blocks", "count"),
    ("engine.walk_s", "s"),
    ("engine.krec_per_s", "krec/s"),
    ("identify.s", "s"),
    ("serialize.s", "s"),
    ("serialize.bytes", "B"),
    ("store.publish_s", "s"),
    ("store.load_s", "s"),
    ("store.hits", "count"),
    ("store.lookups", "count"),
    ("serve.prepare_s", "s"),
) + tuple((name, "count") for name in SERVE_COUNTERS) + (
    ("checkpoint.run_s", "s"),
    ("checkpoint.writes", "count"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.bytes", "B"),
)

#: Fleet table columns: (heading, span names summed by self time).
TABLE_COLUMNS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("compile", ("compile",)),
    ("trace", ("tracer",)),
    ("encode", ("binio.encode",)),
    ("decode+walk", ("columnar.decode", "engine.walk")),
    ("identify", ("identify",)),
    ("serialize", ("serialize",)),
    ("publish", ("store.publish",)),
)


# --------------------------------------------------------------------------- #
# Probes
# --------------------------------------------------------------------------- #
class Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, type) and name not in owner.__dict__:
            self._undo.append(lambda: delattr(owner, name))
        else:
            previous = getattr(owner, name)
            self._undo.append(lambda: setattr(owner, name, previous))
        setattr(owner, name, value)

    def replace_function(self, original: Callable, value: Callable) -> None:
        """Re-bind ``original`` in every loaded ``repro`` module that holds it
        under its own name (``from x import f`` copies the binding)."""
        name = original.__name__
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            if module.__dict__.get(name) is original:
                self.replace(module, name, value)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _timed(recorder: SpanRecorder, name: str, func: Callable,
           after: Optional[Callable[[Span, tuple, Any], None]] = None
           ) -> Callable:
    """``func`` inside a span; ``after`` annotates the span once it closed."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, args, result)
        return result
    return wrapper


def install_probes(recorder: SpanRecorder) -> Patches:
    """Wrap every layer's public calls with spans; returns the undo log."""
    from repro.checkpoint.instrument import CheckpointInstrumenter
    from repro.checkpoint.storage import CheckpointStorage
    from repro.codegen import lowering
    from repro.core import pipeline
    from repro.core.engine import AnalysisEngine
    from repro.serve import server
    from repro.store import batch, serialize
    from repro.store.cache import ArtifactStore
    from repro.trace import binio
    from repro.trace.columnar import TraceColumnarReader
    from repro.tracer.interpreter import Interpreter

    patches = Patches()

    def attr(key: str, compute: Callable[[tuple, Any], Any]):
        def after(span: Span, args: tuple, result: Any) -> None:
            span.attrs[key] = compute(args, result)
        return after

    def function(original: Callable, name: str, after=None) -> None:
        patches.replace_function(original,
                                 _timed(recorder, name, original, after))

    def method(cls: type, method_name: str, name: str, after=None) -> None:
        original = getattr(cls, method_name)
        patches.replace(cls, method_name,
                        _timed(recorder, name, original, after))

    # minicc / codegen
    function(lowering.compile_source, "compile")
    # tracer: every interpreter run, tracing or execute-only
    method(Interpreter, "run", "tracer",
           attr("records", lambda args, result: result.steps))
    # trace.binio: the in-memory-trace encoder (traced cold_fleet split)
    function(binio.write_trace_file_binary, "binio.encode",
             attr("bytes", lambda args, result: result))
    # trace.columnar: one span per decoded block, inside the engine walk
    original_iter_blocks = TraceColumnarReader.iter_blocks

    @functools.wraps(original_iter_blocks)
    def iter_blocks(self, *args, **kwargs):
        blocks = original_iter_blocks(self, *args, **kwargs)
        while True:
            span = recorder.open("columnar.decode")
            try:
                block = next(blocks)
            except StopIteration:
                recorder.discard(span)
                return
            except BaseException:
                recorder.close(span)
                raise
            recorder.close(span)
            span.attrs["records"] = block.count
            yield block

    patches.replace(TraceColumnarReader, "iter_blocks", iter_blocks)
    # core.engine: the columnar walk (decode spans nest inside it)
    method(AnalysisEngine, "run_columnar", "engine.walk",
           attr("records", lambda args, result: result.record_count))
    # core identify: contraction and classification
    function(pipeline.contract_ddg, "identify")
    function(pipeline.classify_variables, "identify")
    # store.serialize: both directions plus the canonical wire form
    function(serialize.report_to_dict, "serialize")
    function(serialize.report_from_dict, "serialize")
    function(serialize.canonical_report_json, "serialize",
             attr("bytes", lambda args, result: len(result)))
    # store.cache
    method(ArtifactStore, "store", "store.publish")
    method(ArtifactStore, "load", "store.load",
           attr("hit", lambda args, result: result is not None))
    # the pipeline entry and its store address
    method(pipeline.AutoCheck, "run", "autocheck.run")
    method(pipeline.AutoCheck, "cache_key", "cache_key",
           attr("key", lambda args, result: result.key))
    # serve: request root, app staging, the analyze flow and pool jobs
    function(batch.prepare_app_analysis, "prepare_app_analysis")
    method(server.AnalysisServer, "execute_analyze", "serve.execute",
           attr("key", lambda args, result: args[1].address.key))
    function(server.run_analysis, "serve.job",
             attr("key", lambda args, result: args[0].address.key))
    method(server._Handler, "handle_one_request", "serve.request")
    # checkpoint
    method(CheckpointInstrumenter, "run", "checkpoint.run")
    method(CheckpointStorage, "write", "checkpoint.write",
           attr("bytes", lambda args, result: os.path.getsize(result)))
    return patches


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
class AppResolver:
    """Which fleet app a span worked for.

    Benchmark-side spans carry ``app``; server-side spans carry the store
    ``key`` the client saw in ``X-Autocheck-Key``, mapped through
    ``key_to_app``.  The first ancestor that names either decides.
    """

    def __init__(self, index: SpanIndex,
                 key_to_app: Optional[Mapping[str, str]] = None) -> None:
        self.index = index
        self.key_to_app = dict(key_to_app or {})
        self._cache: Dict[int, Optional[str]] = {}

    def _own(self, span: Span) -> Optional[str]:
        if "app" in span.attrs:
            return span.attrs["app"]
        return self.key_to_app.get(span.attrs.get("key", ""))

    def app_of(self, span: Span) -> Optional[str]:
        if span.id in self._cache:
            return self._cache[span.id]
        app = self._own(span)
        if app is None:
            for ancestor in self.index.ancestors(span):
                app = self._own(ancestor)
                if app is not None:
                    break
        self._cache[span.id] = app
        return app


def _krec_per_s(records: float, seconds: float) -> float:
    return records / seconds / 1000.0 if seconds > 0 else 0.0


def layer_metrics(index: SpanIndex, apps: Sequence[str],
                  serve_counters: Optional[Mapping[str, int]] = None,
                  key_to_app: Optional[Mapping[str, str]] = None,
                  ) -> Dict[str, Tuple[float, str]]:
    """The ``per_layer`` metrics of one traced measurement."""
    def self_s(*names: str) -> float:
        return index.self_sum(index.named(*names))

    def attr_sum(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in index.named(name))

    tracer_s = self_s("tracer")
    tracer_records = attr_sum("tracer", "records")
    walk_s = self_s("engine.walk")
    walk_records = attr_sum("engine.walk", "records")
    loads = index.named("store.load")
    request_ids = {span.id for span in index.named("serve.request")}
    prepare_s = sum((span.duration for span in index.named(
        "prepare_app_analysis", "cache_key")
        if any(ancestor.id in request_ids
               for ancestor in index.ancestors(span))), 0.0)
    writes = index.named("checkpoint.write")
    values: Dict[str, float] = {
        "compile.s": self_s("compile"),
        "tracer.s": tracer_s,
        "tracer.records": tracer_records,
        "tracer.krec_per_s": _krec_per_s(tracer_records, tracer_s),
        "binio.encode_s": self_s("binio.encode"),
        "binio.bytes": attr_sum("binio.encode", "bytes"),
        "columnar.decode_s": self_s("columnar.decode"),
        "columnar.blocks": len(index.named("columnar.decode")),
        "engine.walk_s": walk_s,
        "engine.krec_per_s": _krec_per_s(walk_records, walk_s),
        "identify.s": self_s("identify"),
        "serialize.s": self_s("serialize"),
        "serialize.bytes": attr_sum("serialize", "bytes"),
        "store.publish_s": self_s("store.publish"),
        "store.load_s": index.self_sum(loads),
        "store.hits": sum(1 for span in loads if span.attrs.get("hit")),
        "store.lookups": len(loads),
        "serve.prepare_s": prepare_s,
        "checkpoint.run_s": sum((span.duration for span
                                 in index.named("checkpoint.run")), 0.0),
        "checkpoint.writes": len(writes),
        "checkpoint.write_s": index.self_sum(writes),
        "checkpoint.bytes": attr_sum("checkpoint.write", "bytes"),
    }
    for name in SERVE_COUNTERS:
        values[name] = (serve_counters or {}).get(name, 0)
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}

    resolver = AppResolver(index, key_to_app)
    per_app_s = {app: 0.0 for app in apps}
    per_app_records = {app: 0 for app in apps}
    for span in index.named("engine.walk"):
        app = resolver.app_of(span)
        if app in per_app_s:
            per_app_s[app] += index.self_time[span.id]
            per_app_records[app] += span.attrs.get("records", 0)
    for app in apps:
        metrics[ENGINE_APP_PREFIX + app] = (
            _krec_per_s(per_app_records[app], per_app_s[app]), "krec/s")
    return metrics


def layer_table(index: SpanIndex, apps: Sequence[str]) -> List[str]:
    """The fleet table: seconds of self time per layer, one row per app.

    Rows come from single-threaded ``app`` spans.  ``other`` is the rest
    of each app span: benchmark-side glue, the pipeline's own code, store
    addressing.  Apps with no spans are left out; the last row sums the
    fleet, and ``walk krec/s`` divides walked records by walk self time.
    """
    resolver = AppResolver(index)
    headings = [heading for heading, _ in TABLE_COLUMNS]
    column_of = {name: heading for heading, names in TABLE_COLUMNS
                 for name in names}
    rows: Dict[str, Dict[str, float]] = {}
    walk_s: Dict[str, float] = {}
    records: Dict[str, int] = {}
    for span in index.spans:
        app = resolver.app_of(span)
        if app is None:
            continue
        row = rows.setdefault(app, dict.fromkeys(headings + ["other"], 0.0))
        row[column_of.get(span.name, "other")] += index.self_time[span.id]
        if span.name == "engine.walk":
            walk_s[app] = walk_s.get(app, 0.0) + index.self_time[span.id]
            records[app] = records.get(app, 0) + span.attrs.get("records", 0)

    columns = headings + ["other", "total", "walk krec/s"]
    lines = ["app".ljust(10) + "".join(c.rjust(12) for c in columns)]
    totals = dict.fromkeys(headings + ["other"], 0.0)
    for app in [name for name in apps if name in rows]:
        for heading in totals:
            totals[heading] += rows[app][heading]
        lines.append(_table_row(app, rows[app], headings, _krec_per_s(
            records.get(app, 0), walk_s.get(app, 0.0))))
    lines.append(_table_row("fleet", totals, headings, _krec_per_s(
        sum(records.values()), sum(walk_s.values()))))
    return lines


def _table_row(label: str, row: Mapping[str, float], headings: List[str],
               walk_krec: float) -> str:
    cells = [row[heading] for heading in headings] + [row["other"]]
    cells.append(sum(cells))
    return (label.ljust(10) + "".join(f"{value:12.3f}" for value in cells)
            + f"{walk_krec:12.1f}")


def link_requests(index: SpanIndex, client_name: str
                  ) -> List[Tuple[Span, Span]]:
    """Pair each ``client_name`` span with the server request it caused.

    The link is the store key: the client span carries the
    ``X-Autocheck-Key`` response header, the server's ``serve.execute``
    span the key it answered for, and the server span must lie inside
    the client's interval.  Returns ``(client span, serve.request span)``
    pairs for the requests that linked.
    """
    executes: Dict[str, List[Span]] = {}
    for span in index.named("serve.execute"):
        executes.setdefault(span.attrs.get("key", ""), []).append(span)
    links = []
    for client in index.named(client_name):
        for execute in executes.get(client.attrs.get("key", ""), ()):
            if client.start <= execute.start and execute.end <= client.end:
                request = index.by_id.get(execute.parent or -1, execute)
                links.append((client, request))
                break
    return links


def serve_counter_delta(before: Mapping[str, Any],
                        after: Mapping[str, Any]) -> Dict[str, int]:
    """``/stats`` counter growth over the measured window."""
    delta = {}
    for name, (section, key) in SERVE_COUNTERS.items():
        delta[name] = int(after[section][key]) - int(before[section][key])
    return delta
