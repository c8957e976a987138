"""Analysis-as-a-service: an HTTP/JSON daemon in front of the artifact store.

Pure stdlib (:class:`http.server.ThreadingHTTPServer` + ``json``): the
daemon turns the pipeline's speed work — warm O(1) store lookups, the
fused columnar walk — into a service surface that concurrent clients can
hit.  Endpoints:

* ``POST /analyze`` — a JSON body naming a bundled app
  (``{"app": "cg", "params": {...}}``) or a raw trace body (any
  non-JSON content type; main-loop location in the query string:
  ``?function=main&start=12&end=18``).  Answers 200 with the canonical
  report JSON (``X-Autocheck-Cache: hit|miss``), or — with ``?wait=0`` —
  202 with a job handle to poll.
* ``GET /jobs/<id>`` — job status + progress; ``?stream=1`` chunks
  progress snapshots as JSON lines until the job resolves.
* ``GET /report/<key>`` — the stored report for an artifact key.
* ``GET /stats`` — request/latency counters, cache hits/misses,
  coalescing and pool stats.
* ``GET /healthz`` — liveness.

Request lifecycle on ``POST /analyze``::

    resolve (app registry / trace spool)
      → address (AutoCheck.cache_key(): digest+fingerprint+schema)
        → store.load (lock-free read path)      — warm: answer now
          → coalesce on the address key         — join an in-flight walk
            → bounded job pool                  — cold: one walk, N fan-ins
              (queue full → 429 QUEUE_FULL: backpressure, not buffering)

Errors are structured JSON ``{"error": {"code", "message"}}`` with stable
named codes (:data:`ERR_BAD_JSON` etc.).  Graceful shutdown
(:meth:`AnalysisServer.close`) stops the listener, lets in-flight
handlers finish and drains the job pool — an accepted analysis always
completes and publishes to the store.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core.config import AutoCheckConfig, MainLoopSpec
from repro.core.pipeline import AutoCheck
from repro.core.report import AutoCheckReport
from repro.serve.coalesce import CoalesceTimeout, RequestCoalescer
from repro.serve.jobs import Job, JobManager, QueueFullError, ShutdownError
from repro.serve.progress import stream_progress
from repro.store.batch import prepare_app_analysis
from repro.store.cache import ArtifactAddress, ArtifactStore, default_cache_dir
from repro.store.serialize import canonical_report_json
from repro.trace.binio import BINARY_MAGIC, verify_content_digest
from repro.util.logging import get_logger

_LOG = get_logger(__name__)

# Named error codes (stable API surface; docs/serve.md documents each).
ERR_BAD_JSON = "BAD_JSON"
ERR_MISSING_FIELD = "MISSING_FIELD"
ERR_BAD_FIELD = "BAD_FIELD"
ERR_UNKNOWN_APP = "UNKNOWN_APP"
ERR_QUEUE_FULL = "QUEUE_FULL"
ERR_SHUTTING_DOWN = "SHUTTING_DOWN"
ERR_JOB_NOT_FOUND = "JOB_NOT_FOUND"
ERR_REPORT_NOT_FOUND = "REPORT_NOT_FOUND"
ERR_NOT_FOUND = "NOT_FOUND"
ERR_METHOD_NOT_ALLOWED = "METHOD_NOT_ALLOWED"
ERR_ANALYSIS_FAILED = "ANALYSIS_FAILED"
ERR_INTERNAL_ERROR = "INTERNAL_ERROR"
ERR_TIMEOUT = "TIMEOUT"
ERR_BAD_CONTENT_LENGTH = "BAD_CONTENT_LENGTH"
ERR_TRACE_DIGEST_MISMATCH = "TRACE_DIGEST_MISMATCH"
ERR_REQUEST_TIMEOUT = "REQUEST_TIMEOUT"

#: Default ceiling a blocking ``POST /analyze`` waits for a cold walk.
DEFAULT_WAIT_SECONDS = 600.0

#: canonical response bytes memoized per artifact key (immutable entries,
#: so the only eviction pressure is memory; ~20-50 KB per report)
RESPONSE_CACHE_ENTRIES = 128


class ServeError(Exception):
    """An HTTP-mappable request error: (status, code, message)."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


class ServeStats:
    """Thread-safe request / latency / hit-miss counters for ``/stats``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: Dict[str, Dict[str, Any]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.started_at = time.time()

    def record(self, endpoint: str, status: int, seconds: float) -> None:
        with self._lock:
            entry = self._endpoints.setdefault(
                endpoint, {"requests": 0, "errors": 0, "seconds": 0.0})
            entry["requests"] += 1
            entry["seconds"] += seconds
            if status >= 400:
                entry["errors"] += 1

    def record_cache(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "uptime_seconds": time.time() - self.started_at,
                "endpoints": {name: dict(entry) for name, entry
                              in self._endpoints.items()},
                "cache": {"hits": self.cache_hits,
                          "misses": self.cache_misses},
            }


class _AnalyzeWork:
    """One resolved ``POST /analyze`` request, ready to address and run."""

    __slots__ = ("label", "autocheck", "address")

    def __init__(self, label: str, autocheck: AutoCheck,
                 address: ArtifactAddress) -> None:
        self.label = label
        self.autocheck = autocheck
        self.address = address


def run_analysis(work: _AnalyzeWork, job: Job) -> AutoCheckReport:
    """Default job body: run the staged pipeline, feeding job progress.

    Module-level (not a method) so tests can swap it — e.g. block on an
    event to pin a worker, or raise to exercise failure propagation —
    without reaching into handler internals.
    """
    work.autocheck.config.progress_callback = job.progress.update
    return work.autocheck.run()


class _ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its owning :class:`AnalysisServer`."""

    daemon_threads = True
    app: "AnalysisServer"


class AnalysisServer:
    """The serve daemon: HTTP front, coalescer, job pool, artifact store."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, queue_limit: int = 16,
                 use_cache: bool = True,
                 cache_dir: Optional[str] = None,
                 trace_dir: Optional[str] = None,
                 analyzer: Optional[Callable[[_AnalyzeWork, Job],
                                             AutoCheckReport]] = None) -> None:
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.trace_dir = trace_dir or os.path.join(
            cache_dir or default_cache_dir(), "traces")
        self.store = ArtifactStore(cache_dir)
        self.jobs = JobManager(workers=workers, queue_limit=queue_limit)
        self.coalescer = RequestCoalescer()
        self.stats = ServeStats()
        # Hot-path memo of canonical response bytes, keyed by artifact
        # key.  Entries are content-addressed and therefore immutable, so
        # the memo can never go stale — it only saves the warm path the
        # per-request deserialize + re-serialize of a stored report.
        self._response_cache: OrderedDict[str, bytes] = OrderedDict()
        self._response_cache_lock = threading.Lock()
        self._analyzer = analyzer or run_analysis
        self._active_requests = 0
        self._active_lock = threading.Lock()
        self._active_drained = threading.Condition(self._active_lock)
        self._serve_thread: Optional[threading.Thread] = None
        self._closed = False
        self.httpd = _ServeHTTPServer((host, port), _Handler)
        self.httpd.app = self

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        return self.httpd.server_address[1]

    def start(self) -> "AnalysisServer":
        """Serve in a background thread; returns self for chaining."""
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="autocheck-serve",
            daemon=True)
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        self.httpd.serve_forever()

    def close(self, graceful: bool = True, timeout: float = 30.0) -> None:
        """Shut down: stop the listener, drain handlers and the job pool.

        Args:
            graceful: drain in-flight handlers and let every accepted job
                run to completion before returning; ``False`` abandons
                queued jobs (they resolve as failed so no waiter hangs).
            timeout: budget for each drain phase.
        """
        if self._closed:
            return
        self._closed = True
        self.httpd.shutdown()  # stop accepting; running handlers continue
        if graceful:
            deadline = time.time() + timeout
            with self._active_drained:
                while self._active_requests > 0:
                    remaining = deadline - time.time()
                    if remaining <= 0:
                        break
                    self._active_drained.wait(remaining)
        self.jobs.shutdown(drain=graceful, timeout=timeout)
        self.httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout)

    def _track_request(self, delta: int) -> None:
        with self._active_drained:
            self._active_requests += delta
            if self._active_requests == 0:
                self._active_drained.notify_all()

    # ------------------------------------------------------------------ #
    # Request resolution
    # ------------------------------------------------------------------ #
    def _resolve_app_request(self, payload: Dict[str, Any]) -> _AnalyzeWork:
        known = {"app", "params", "seed", "induction", "wait"}
        unknown = set(payload) - known
        if unknown:
            raise ServeError(400, ERR_BAD_FIELD,
                             f"unknown analyze fields: {sorted(unknown)}")
        app_name = payload["app"]
        if not isinstance(app_name, str):
            raise ServeError(400, ERR_BAD_FIELD, "'app' must be a string")
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ServeError(400, ERR_BAD_FIELD, "'params' must be an object")
        seed = payload.get("seed", 314159)
        induction = payload.get("induction")
        # Coalesce the prepare step (compile + trace generation) so a
        # thundering herd on a cold app traces it once, not N times.
        prepare_key = ("prepare", app_name,
                       tuple(sorted(params.items())), seed, induction)
        try:
            prepared, _ = self.coalescer.run(
                prepare_key,
                lambda: prepare_app_analysis(
                    app_name, params, induction=induction,
                    use_cache=self.use_cache, cache_dir=self.cache_dir,
                    trace_dir=self.trace_dir, seed=seed))
        except KeyError as exc:
            name = exc.args[0] if exc.args else app_name
            raise ServeError(404, ERR_UNKNOWN_APP,
                             f"unknown app {name!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ServeError(400, ERR_BAD_FIELD,
                             f"cannot stage app {app_name!r}: {exc}") from exc
        address = prepared.autocheck.cache_key()
        return _AnalyzeWork(f"app:{app_name}", prepared.autocheck, address)

    def _spool_trace_body(self, body: bytes) -> str:
        """Persist an uploaded trace body, content-addressed and atomic."""
        digest = hashlib.sha256(body).hexdigest()
        spool_dir = os.path.join(self.trace_dir, "uploads")
        path = os.path.join(spool_dir, f"{digest}.trace")
        if not os.path.exists(path):
            os.makedirs(spool_dir, exist_ok=True)
            tmp_path = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
            try:
                with open(tmp_path, "wb") as handle:
                    handle.write(body)
                os.replace(tmp_path, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.remove(tmp_path)
                raise
        return path

    def _resolve_trace_request(self, body: bytes,
                               query: Dict[str, list]) -> _AnalyzeWork:
        def _int_param(name: str) -> int:
            values = query.get(name)
            if not values:
                raise ServeError(
                    400, ERR_MISSING_FIELD,
                    f"trace uploads need ?{name}= in the query string")
            try:
                return int(values[0])
            except ValueError:
                raise ServeError(400, ERR_BAD_FIELD,
                                 f"?{name}= must be an integer, "
                                 f"got {values[0]!r}") from None

        if not body:
            raise ServeError(400, ERR_MISSING_FIELD,
                             "empty body: upload a trace file, or send "
                             "application/json naming an app")
        if body[:len(BINARY_MAGIC)] == BINARY_MAGIC:
            # A binary trace is addressed by the digest its own footer
            # declares; re-fold it over the body first, so an upload with
            # altered record blocks or globals is refused.  The string
            # table and header lie outside the digest and are not checked.
            try:
                genuine = verify_content_digest(body, name="<upload>")
            except (ValueError, struct.error) as exc:
                raise ServeError(400, ERR_BAD_FIELD,
                                 f"cannot digest uploaded trace: "
                                 f"{exc}") from exc
            if not genuine:
                raise ServeError(422, ERR_TRACE_DIGEST_MISMATCH,
                                 "the uploaded trace's record blocks and "
                                 "globals do not fold to the content "
                                 "digest its footer declares")
        start, end = _int_param("start"), _int_param("end")
        function = query.get("function", ["main"])[0]
        induction = query.get("induction", [None])[0]
        try:
            spec = MainLoopSpec(function=function, start_line=start,
                                end_line=end)
        except ValueError as exc:
            raise ServeError(400, ERR_BAD_FIELD, str(exc)) from exc
        path = self._spool_trace_body(body)
        config = AutoCheckConfig(main_loop=spec,
                                 induction_variable=induction,
                                 use_cache=self.use_cache,
                                 cache_dir=self.cache_dir)
        autocheck = AutoCheck(config, trace_path=path)
        try:
            address = autocheck.cache_key()
        except Exception as exc:
            raise ServeError(400, ERR_BAD_FIELD,
                             f"cannot digest uploaded trace: {exc}") from exc
        return _AnalyzeWork(f"trace:{address.trace_digest[:12]}", autocheck,
                            address)

    # ------------------------------------------------------------------ #
    # Analyze execution: store fast path → coalesce → job pool
    # ------------------------------------------------------------------ #
    def execute_analyze(self, work: _AnalyzeWork, wait: bool,
                        wait_seconds: float = DEFAULT_WAIT_SECONDS,
                        ) -> Tuple[int, Dict[str, str], bytes]:
        """Run the analyze flow; returns (status, headers, body)."""
        key = work.address.key
        headers = {"Content-Type": "application/json",
                   "X-Autocheck-Key": key}
        if self.use_cache:
            body = self.canonical_bytes(key)
            if body is not None:
                self.stats.record_cache(hit=True)
                headers["X-Autocheck-Cache"] = "hit"
                return 200, headers, body
        self.stats.record_cache(hit=False)
        headers["X-Autocheck-Cache"] = "miss"

        flight, leader = self.coalescer.join(key)
        if leader:
            def _job_body(job: Job, _work=work, _flight=flight):
                job.artifact_key = _work.address.key
                try:
                    report = self._analyzer(_work, job)
                except BaseException as exc:
                    self.coalescer.fail(_flight, exc)
                    raise
                self.coalescer.complete(_flight, report)
                return report

            try:
                job = self.jobs.submit(_job_body, label=work.label)
            except QueueFullError as exc:
                # Backpressure propagates to every coalesced waiter: they
                # all shed together instead of re-stampeding the queue.
                self.coalescer.fail(flight, exc)
                raise ServeError(429, ERR_QUEUE_FULL, str(exc)) from exc
            except ShutdownError as exc:
                self.coalescer.fail(flight, exc)
                raise ServeError(503, ERR_SHUTTING_DOWN, str(exc)) from exc
            flight.publish_meta(job_id=job.id)
        headers["X-Autocheck-Coalesced"] = "led" if leader else "joined"

        if not wait:
            try:
                meta = flight.meta(timeout=10.0)
            except CoalesceTimeout as exc:
                raise ServeError(504, ERR_TIMEOUT, str(exc)) from exc
            if flight.done and meta.get("job_id") is None:
                # The flight resolved before a job could be published —
                # the leader's submit was rejected; surface that error
                # instead of handing out an unpollable handle.
                self._wait_flight(flight, 0)
            body = {"job": meta.get("job_id"), "key": key,
                    "coalesced": not leader}
            return 202, headers, (json.dumps(body) + "\n").encode()

        report = self._wait_flight(flight, wait_seconds)
        body = canonical_report_json(report).encode()
        # Seed the memo so followers and later warm requests skip the
        # deserialize + re-serialize round trip entirely.
        self._remember_response(key, body)
        return 200, headers, body

    # ------------------------------------------------------------------ #
    # Canonical response bytes: memo over the store's lock-free reads
    # ------------------------------------------------------------------ #
    def canonical_bytes(self, key: str) -> Optional[bytes]:
        """Canonical response bytes for a stored artifact, memoized.

        The memo never goes stale — keys are content addresses, so the
        bytes for a key are immutable.  On a memo miss this falls through
        to the store's lock-free read path and pays one deserialize +
        canonical re-serialize; subsequent requests are a dict lookup.
        One deliberate trade: memo hits skip the store's mtime touch, so
        the store-level LRU sees only memo misses — acceptable because a
        memo-hot key does not need its disk entry for recency anyway.
        """
        with self._response_cache_lock:
            body = self._response_cache.get(key)
            if body is not None:
                self._response_cache.move_to_end(key)
                return body
        report = self.store.load(key)
        if report is None:
            return None
        body = canonical_report_json(report).encode()
        self._remember_response(key, body)
        return body

    def _remember_response(self, key: str, body: bytes) -> None:
        with self._response_cache_lock:
            self._response_cache[key] = body
            self._response_cache.move_to_end(key)
            while len(self._response_cache) > RESPONSE_CACHE_ENTRIES:
                self._response_cache.popitem(last=False)

    @staticmethod
    def _wait_flight(flight, wait_seconds: float) -> AutoCheckReport:
        """Wait out a flight, mapping its failures onto HTTP shapes."""
        try:
            return flight.wait(timeout=wait_seconds)
        except CoalesceTimeout as exc:
            raise ServeError(504, ERR_TIMEOUT, str(exc)) from exc
        except QueueFullError as exc:
            raise ServeError(429, ERR_QUEUE_FULL, str(exc)) from exc
        except ShutdownError as exc:
            raise ServeError(503, ERR_SHUTTING_DOWN, str(exc)) from exc
        except Exception as exc:
            raise ServeError(
                500, ERR_ANALYSIS_FAILED,
                f"{type(exc).__name__}: {exc}") from exc

    def stats_snapshot(self) -> Dict[str, Any]:
        snap = self.stats.snapshot()
        snap["coalesce"] = self.coalescer.stats()
        snap["jobs"] = self.jobs.stats()
        if self.use_cache:
            store_stats = self.store.stats()
            snap["store"] = {"entries": store_stats.entries,
                             "bytes": store_stats.total_bytes}
        with self._response_cache_lock:
            snap["response_cache"] = {"entries": len(self._response_cache)}
        return snap


class _Handler(BaseHTTPRequestHandler):
    """Routes one connection's requests into the owning AnalysisServer."""

    protocol_version = "HTTP/1.1"
    server: _ServeHTTPServer
    #: Seconds any one socket read or write may block.  An idle keep-alive
    #: connection or a stalled request line or header is closed; a body
    #: that stalls mid-read answers 408.
    timeout = 60.0

    # -- plumbing -------------------------------------------------------- #
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the daemon's /stats replaces per-request stderr chatter

    @property
    def app(self) -> AnalysisServer:
        return self.server.app

    def _send(self, status: int, headers: Dict[str, str],
              body: bytes) -> None:
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = (json.dumps(payload) + "\n").encode()
        out = {"Content-Type": "application/json"}
        out.update(headers or {})
        self._send(status, out, body)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        self._send_json(status, {"error": {"code": code, "message": message}})

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown: it cannot be skipped, so the
            # connection cannot carry another request either.
            self.close_connection = True
            raise ServeError(400, ERR_BAD_CONTENT_LENGTH,
                             f"Content-Length must be a non-negative "
                             f"integer, got {raw!r}")
        try:
            return self.rfile.read(length) if length else b""
        except TimeoutError:
            self.close_connection = True
            raise ServeError(408, ERR_REQUEST_TIMEOUT,
                             f"request body not received within "
                             f"{self.timeout:g} s") from None

    # -- routing --------------------------------------------------------- #
    def _route(self, method: str) -> None:
        started = time.perf_counter()
        url = urlparse(self.path)
        endpoint = f"{method} {url.path.split('/', 2)[1] or '/'}"
        self.app._track_request(+1)
        status = 500
        try:
            status = self._dispatch(method, url)
        except ServeError as exc:
            status = exc.status
            headers = {}
            if exc.status == 429:
                headers["Retry-After"] = "1"
            self._send_json(
                exc.status,
                {"error": {"code": exc.code, "message": str(exc)}},
                headers)
        except BrokenPipeError:
            status = 499  # client went away; nothing to answer
        except Exception as exc:  # noqa: BLE001 — a handler bug must answer
            # 500, not silently drop the connection; a failed analysis job
            # arrives as a ServeError (ANALYSIS_FAILED) instead.
            status = 500
            _LOG.exception("%s %s: handler error", method, self.path)
            with contextlib.suppress(Exception):
                self._send_error_json(500, ERR_INTERNAL_ERROR,
                                      f"{type(exc).__name__}: {exc}")
        finally:
            self.app._track_request(-1)
            self.app.stats.record(endpoint, status,
                                  time.perf_counter() - started)

    def _dispatch(self, method: str, url) -> int:
        parts = [part for part in url.path.split("/") if part]
        query = parse_qs(url.query)
        if method == "POST":
            if parts == ["analyze"]:
                return self._handle_analyze(query)
            if parts and parts[0] in ("jobs", "report", "stats", "healthz"):
                raise ServeError(405, ERR_METHOD_NOT_ALLOWED,
                                 f"/{parts[0]} is GET-only")
            raise ServeError(404, ERR_NOT_FOUND,
                             f"unknown endpoint {url.path!r}")
        # GET
        if parts == ["healthz"]:
            self._send_json(200, {"ok": True})
            return 200
        if parts == ["stats"]:
            self._send_json(200, self.app.stats_snapshot())
            return 200
        if len(parts) == 2 and parts[0] == "jobs":
            return self._handle_job(parts[1], query)
        if len(parts) == 2 and parts[0] == "report":
            return self._handle_report(parts[1])
        if parts == ["analyze"]:
            raise ServeError(405, ERR_METHOD_NOT_ALLOWED,
                             "/analyze is POST-only")
        raise ServeError(404, ERR_NOT_FOUND, f"unknown endpoint {url.path!r}")

    # -- endpoints ------------------------------------------------------- #
    def _handle_analyze(self, query: Dict[str, list]) -> int:
        body = self._read_body()
        content_type = (self.headers.get("Content-Type") or "").split(";")[0]
        if content_type == "application/json" or (
                content_type == "" and body.lstrip()[:1] == b"{"):
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServeError(400, ERR_BAD_JSON,
                                 f"body is not JSON: {exc}") from exc
            if not isinstance(payload, dict):
                raise ServeError(400, ERR_BAD_JSON,
                                 "JSON body must be an object")
            if "app" not in payload:
                raise ServeError(400, ERR_MISSING_FIELD,
                                 "JSON analyze requests need an 'app' field")
            work = self.app._resolve_app_request(payload)
            wait_default = payload.get("wait", True)
        else:
            work = self.app._resolve_trace_request(body, query)
            wait_default = True
        wait_values = query.get("wait")
        wait = (wait_values[0] not in ("0", "false", "no")
                if wait_values else bool(wait_default))
        status, headers, out = self.app.execute_analyze(work, wait=wait)
        self._send(status, headers, out)
        return status

    def _handle_job(self, job_id: str, query: Dict[str, list]) -> int:
        job = self.app.jobs.get(job_id)
        if job is None:
            raise ServeError(404, ERR_JOB_NOT_FOUND,
                             f"unknown job {job_id!r}")
        if query.get("stream", ["0"])[0] in ("1", "true", "yes"):
            return self._stream_job(job)
        self._send_json(200, job.snapshot())
        return 200

    def _stream_job(self, job: Job) -> int:
        """Chunked progress lines (one JSON document each) until resolution."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for line in stream_progress(job):
            self.wfile.write(f"{len(line):x}\r\n".encode())
            self.wfile.write(line)
            self.wfile.write(b"\r\n")
            self.wfile.flush()
        self.wfile.write(b"0\r\n\r\n")
        return 200

    def _handle_report(self, key: str) -> int:
        body = self.app.canonical_bytes(key)
        if body is None:
            raise ServeError(404, ERR_REPORT_NOT_FOUND,
                             f"no stored report under key {key!r}")
        self._send(200, {"Content-Type": "application/json",
                         "X-Autocheck-Key": key}, body)
        return 200

    # -- HTTP verbs ------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")
