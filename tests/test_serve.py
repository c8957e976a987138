"""Black-box concurrency suite for the serve daemon.

Every test here talks to a real :class:`AnalysisServer` bound to an
ephemeral port through :class:`ServeClient` — plain HTTP in, bytes out.
The load-bearing assertions:

* **warm = direct** — a warm request's body is byte-identical to the
  canonical serialization of a direct in-process ``AutoCheck.run``;
* **coalescing** — N concurrent identical cold requests perform exactly
  one engine walk (the ``decode_counter`` fixture counts every decoded
  trace record) and all N bodies match a cold serial run's bytes;
* **backpressure** — a full worker queue answers 429 with a named error
  code instead of queueing unboundedly;
* **failure propagation** — an analysis crash reaches every coalesced
  waiter as a structured 500;
* **graceful shutdown** — ``close(graceful=True)`` drains in-flight jobs
  and publishes their artifacts before returning;
* **fleet stress** — seeded randomized interleavings over every bundled
  app leave the store consistent and every response equal to a cold
  serial reference run.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import (
    JOB_DONE,
    AnalysisServer,
    ServeClient,
)
from repro.core.config import AutoCheckConfig
from repro.core.pipeline import AutoCheck
from repro.serve.server import _Handler, run_analysis
from repro.store import ArtifactStore
from repro.store.batch import prepare_app_analysis
from repro.store.serialize import canonical_report_json
from repro.tracer.driver import trace_to_file

from test_store import ALL_APP_NAMES

#: Apps cheap enough to analyse repeatedly inside a unit test.
FAST_APP = "example"


# --------------------------------------------------------------------------- #
# Fixtures
# --------------------------------------------------------------------------- #
def _make_server(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    kwargs.setdefault("trace_dir", str(tmp_path / "traces"))
    return AnalysisServer(port=0, **kwargs).start()


@pytest.fixture()
def server(tmp_path):
    """A daemon on an ephemeral port with a fresh cache; always closed."""
    srv = _make_server(tmp_path, workers=2, queue_limit=8)
    yield srv
    srv.close(graceful=True, timeout=60.0)


@pytest.fixture()
def client(server):
    return ServeClient(server.host, server.port)


def _direct_canonical(app_name, trace_dir, **kwargs):
    """Canonical bytes of a direct, cache-free in-process run."""
    prepared = prepare_app_analysis(
        app_name, use_cache=False, trace_dir=trace_dir, **kwargs)
    return canonical_report_json(prepared.autocheck.run()).encode()


def _poll(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# --------------------------------------------------------------------------- #
# Endpoint surface: status codes, named error codes, stats shape
# --------------------------------------------------------------------------- #
class TestEndpoints:
    def test_healthz(self, client):
        status, _, body = client.healthz()
        assert status == 200
        assert json.loads(body)["ok"] is True

    def test_stats_shape(self, client):
        snap = client.stats()
        assert {"endpoints", "cache", "coalesce", "jobs", "store"} <= set(snap)

    def test_handler_bug_is_internal_error_and_logged(self, server, client,
                                                      monkeypatch, caplog):
        """A bug in the handler itself answers its own code, not
        ANALYSIS_FAILED (which names a failed analysis job), and leaves
        its traceback in the log."""
        def broken():
            raise KeyError("stats exploded")

        monkeypatch.setattr(server, "stats_snapshot", broken)
        with caplog.at_level("ERROR", logger="repro.serve.server"):
            status, _, body = client.request("GET", "/stats")
        assert status == 500
        error = json.loads(body)["error"]
        assert error["code"] == "INTERNAL_ERROR"
        assert "stats exploded" in error["message"]
        assert any(record.exc_info
                   and isinstance(record.exc_info[1], KeyError)
                   for record in caplog.records
                   if record.name == "repro.serve.server")
        # the daemon keeps serving
        assert client.request("GET", "/healthz")[0] == 200

    def test_malformed_json_is_structured_400(self, client):
        status, _, body = client.request(
            "POST", "/analyze", b"{not json", content_type="application/json")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "BAD_JSON"

    def test_missing_app_field_is_400(self, client):
        status, _, body = client.request(
            "POST", "/analyze", b"{}", content_type="application/json")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "MISSING_FIELD"

    def test_unknown_app_is_404(self, client):
        status, _, body = client.analyze_app("no-such-app")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "UNKNOWN_APP"

    def test_unknown_job_is_404(self, client):
        status, _, body = client.job("j999999")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "JOB_NOT_FOUND"

    def test_unknown_report_is_404(self, client):
        status, _, body = client.report("0" * 64)
        assert status == 404
        assert json.loads(body)["error"]["code"] == "REPORT_NOT_FOUND"

    def test_unknown_path_is_404(self, client):
        status, _, body = client.request("GET", "/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "NOT_FOUND"

    def test_wrong_method_is_405(self, client):
        status, _, body = client.request("POST", "/healthz", b"")
        assert status == 405
        assert json.loads(body)["error"]["code"] == "METHOD_NOT_ALLOWED"

    def test_trace_upload_requires_loop_bounds(self, client):
        status, _, body = client.request(
            "POST", "/analyze", b"\x00\x01",
            content_type="application/octet-stream")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "MISSING_FIELD"

    @staticmethod
    def _post_with_content_length(server, content_length):
        """POST /analyze over a raw socket with a hand-written header (an
        HTTP client library would compute the header itself)."""
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            sock.sendall((
                "POST /analyze?start=1&end=2 HTTP/1.1\r\n"
                "Host: localhost\r\n"
                "Content-Type: application/octet-stream\r\n"
                f"Content-Length: {content_length}\r\n\r\n").encode())
            response = http.client.HTTPResponse(sock)
            response.begin()
            return response.status, json.loads(response.read())

    def test_non_numeric_content_length_is_400(self, server):
        status, body = self._post_with_content_length(server, "twelve")
        assert status == 400
        assert body["error"]["code"] == "BAD_CONTENT_LENGTH"

    def test_negative_content_length_is_400_not_a_hang(self, server):
        status, body = self._post_with_content_length(server, "-5")
        assert status == 400
        assert body["error"]["code"] == "BAD_CONTENT_LENGTH"

    def test_stalled_request_line_closes_the_connection(self, server,
                                                         monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            sock.sendall(b"POST /anal")
            assert sock.recv(1024) == b""

    def test_stalled_body_is_408_and_publishes_nothing(self, server,
                                                        monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            sock.sendall((
                "POST /analyze?function=main&start=1&end=2 HTTP/1.1\r\n"
                "Host: localhost\r\n"
                "Content-Type: application/octet-stream\r\n"
                "Content-Length: 100\r\n\r\n").encode() + b"ACTB" + bytes(6))
            response = http.client.HTTPResponse(sock)
            response.begin()
            body = json.loads(response.read())
            assert response.status == 408
            assert body["error"]["code"] == "REQUEST_TIMEOUT"
            assert sock.recv(1024) == b""
        assert server.jobs.stats()["submitted"] == 0
        assert server.store.stats().entries == 0


# --------------------------------------------------------------------------- #
# Warm path: store-backed responses are byte-identical to direct runs
# --------------------------------------------------------------------------- #
class TestWarmPath:
    def test_warm_request_matches_direct_run_bytes(self, server, client):
        expected = _direct_canonical(FAST_APP, server.trace_dir)

        cold_status, cold_headers, cold_body = client.analyze_app(FAST_APP)
        warm_status, warm_headers, warm_body = client.analyze_app(FAST_APP)

        assert cold_status == warm_status == 200
        assert cold_headers["x-autocheck-cache"] == "miss"
        assert warm_headers["x-autocheck-cache"] == "hit"
        assert cold_body == expected
        assert warm_body == expected

    def test_report_endpoint_serves_stored_bytes(self, server, client):
        _, headers, body = client.analyze_app(FAST_APP)
        key = headers["x-autocheck-key"]
        status, report_headers, report_body = client.report(key)
        assert status == 200
        assert report_headers["x-autocheck-key"] == key
        assert report_body == body

    def test_async_job_lifecycle_and_progress_stream(self, server, client):
        status, headers, body = client.analyze_app(FAST_APP, wait=False)
        assert status == 202
        handle = json.loads(body)
        assert handle["key"] == headers["x-autocheck-key"]
        job_id = handle["job"]

        snapshots = list(client.stream_job(job_id))
        assert snapshots, "stream must emit at least the final snapshot"
        assert snapshots[-1]["state"] == JOB_DONE
        records = [s["progress"]["records"] for s in snapshots]
        assert records == sorted(records), "progress must be monotonic"
        assert records[-1] > 0

        status, _, body = client.job(job_id)
        assert status == 200
        assert json.loads(body)["state"] == JOB_DONE

        # The async run published the artifact: the next request is warm.
        _, warm_headers, _ = client.analyze_app(FAST_APP)
        assert warm_headers["x-autocheck-cache"] == "hit"


# --------------------------------------------------------------------------- #
# Coalescing: N identical concurrent cold requests, one engine walk
# --------------------------------------------------------------------------- #
class TestCoalescing:
    N = 8

    def test_concurrent_cold_requests_share_one_engine_walk(
            self, tmp_path, decode_counter):
        # Reference: one cold serial run, counting its decode cost.
        trace_dir = str(tmp_path / "traces")
        expected_body = _direct_canonical(FAST_APP, trace_dir)
        walk_cost = decode_counter["records"]
        assert walk_cost > 0
        decode_counter["records"] = 0

        # Hold the analysis until every request has joined the flight, so
        # the test is deterministic rather than a lucky interleaving.
        release = threading.Event()

        def gated(work, job):
            assert release.wait(timeout=60.0)
            return run_analysis(work, job)

        srv = _make_server(tmp_path, workers=2, queue_limit=8,
                           analyzer=gated)
        try:
            cli = ServeClient(srv.host, srv.port)
            with ThreadPoolExecutor(max_workers=self.N) as pool:
                futures = [pool.submit(cli.analyze_app, FAST_APP)
                           for _ in range(self.N)]
                stats = srv.coalescer.stats
                assert _poll(lambda: stats()["led"] + stats()["joined"]
                             >= self.N)
                release.set()
                responses = [f.result(timeout=120) for f in futures]

            statuses = [r[0] for r in responses]
            bodies = {r[2] for r in responses}
            coalesced = sorted(r[1]["x-autocheck-coalesced"]
                               for r in responses)

            assert statuses == [200] * self.N
            assert bodies == {expected_body}
            assert coalesced == ["joined"] * (self.N - 1) + ["led"]
            # The acceptance bar: exactly one trace-record decode pass
            # across all eight requests.
            assert decode_counter["records"] == walk_cost
            jobs = srv.jobs.stats()
            assert jobs["submitted"] == jobs["completed"] == 1
        finally:
            srv.close(graceful=True, timeout=60.0)

    def test_sequential_requests_do_not_coalesce(self, server, client):
        client.analyze_app(FAST_APP)
        client.analyze_app(FAST_APP)
        stats = server.coalescer.stats()
        assert stats["joined"] == 0
        assert stats["in_flight"] == 0

    def test_failure_propagates_to_every_coalesced_waiter(self, tmp_path):
        release = threading.Event()

        def exploding(work, job):
            assert release.wait(timeout=60.0)
            raise RuntimeError("engine exploded")

        srv = _make_server(tmp_path, workers=1, queue_limit=4,
                           analyzer=exploding)
        try:
            cli = ServeClient(srv.host, srv.port)
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(cli.analyze_app, FAST_APP)
                           for _ in range(4)]
                stats = srv.coalescer.stats
                assert _poll(lambda: stats()["led"] + stats()["joined"] >= 4)
                release.set()
                responses = [f.result(timeout=60) for f in futures]

            for status, _, body in responses:
                assert status == 500
                error = json.loads(body)["error"]
                assert error["code"] == "ANALYSIS_FAILED"
                assert "engine exploded" in error["message"]
        finally:
            srv.close(graceful=True, timeout=60.0)


# --------------------------------------------------------------------------- #
# Backpressure and shutdown
# --------------------------------------------------------------------------- #
class TestBackpressureAndShutdown:
    def test_queue_full_returns_429(self, tmp_path):
        release = threading.Event()

        def gated(work, job):
            assert release.wait(timeout=60.0)
            return run_analysis(work, job)

        # One worker, one queue slot: the third distinct key must shed.
        srv = _make_server(tmp_path, workers=1, queue_limit=1,
                           analyzer=gated)
        try:
            cli = ServeClient(srv.host, srv.port)
            status1, _, body1 = cli.analyze_app("example", wait=False)
            assert status1 == 202
            job1 = json.loads(body1)["job"]
            # Wait until the worker has dequeued job 1 (it is now pinned
            # on the gate) so the single queue slot is free for job 2.
            assert _poll(lambda: json.loads(cli.job(job1)[2])["state"]
                         == "running")

            status2, _, _ = cli.analyze_app("cg", wait=False)
            assert status2 == 202

            status3, _, body3 = cli.analyze_app("mg", wait=False)
            assert status3 == 429
            assert json.loads(body3)["error"]["code"] == "QUEUE_FULL"
            assert srv.jobs.stats()["rejected"] == 1

            # Backpressure is transient: after draining, the shed key runs.
            release.set()
            assert _poll(lambda: srv.jobs.stats()["completed"] == 2,
                         timeout=120.0)
            status4, _, _ = cli.analyze_app("mg")
            assert status4 == 200
        finally:
            release.set()
            srv.close(graceful=True, timeout=120.0)

    def test_graceful_shutdown_drains_in_flight_job(self, tmp_path):
        release = threading.Event()

        def gated(work, job):
            assert release.wait(timeout=60.0)
            return run_analysis(work, job)

        srv = _make_server(tmp_path, workers=1, queue_limit=4,
                           analyzer=gated)
        cli = ServeClient(srv.host, srv.port)
        status, headers, body = cli.analyze_app(FAST_APP, wait=False)
        assert status == 202
        job_id = json.loads(body)["job"]
        key = headers["x-autocheck-key"]

        closer = threading.Thread(
            target=srv.close, kwargs={"graceful": True, "timeout": 120.0})
        closer.start()
        try:
            release.set()
            closer.join(timeout=120.0)
            assert not closer.is_alive(), "close() must return after drain"
        finally:
            release.set()
            closer.join(timeout=120.0)

        job = srv.jobs.get(job_id)
        assert job is not None and job.state == JOB_DONE
        # The drained job published its artifact before the store went dark.
        assert ArtifactStore(srv.cache_dir).load(key) is not None


# --------------------------------------------------------------------------- #
# Fleet stress: seeded randomized interleavings over every bundled app
# --------------------------------------------------------------------------- #
class TestFleetStress:
    SEED = 20240808
    THREADS = 8
    REQUESTS_PER_APP = 3

    def test_randomized_fleet_hammer_keeps_store_consistent(self, tmp_path):
        trace_dir = str(tmp_path / "traces")

        # Cold serial reference bytes for every app, before the daemon
        # ever runs: the ground truth the concurrent runs must match.
        expected = {name: _direct_canonical(name, trace_dir)
                    for name in ALL_APP_NAMES}

        srv = _make_server(tmp_path, workers=4, queue_limit=64)
        try:
            cli = ServeClient(srv.host, srv.port)
            rng = random.Random(self.SEED)
            schedule = ALL_APP_NAMES * self.REQUESTS_PER_APP
            rng.shuffle(schedule)

            with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
                results = list(pool.map(cli.analyze_app, schedule))

            for app_name, (status, headers, body) in zip(schedule, results):
                assert status == 200, (app_name, status, body)
                assert body == expected[app_name], app_name
                assert headers["x-autocheck-cache"] in ("miss", "hit")

            # Store integrity: one entry per app, every one strict-loads.
            store = srv.store
            assert store.stats().entries == len(ALL_APP_NAMES)
            for _, headers, _ in results:
                key = headers["x-autocheck-key"]
                store.load_entry(store.entry_path(key), key)  # raises if bad

            snap = srv.stats_snapshot()
            cache = snap["cache"]
            assert cache["hits"] + cache["misses"] == len(schedule)
            jobs = snap["jobs"]
            assert jobs["failed"] == 0
            assert jobs["submitted"] == jobs["completed"]
            # Each app's artifact was computed at least once and at most
            # once per non-coalesced miss.
            assert len(ALL_APP_NAMES) <= jobs["completed"] <= len(schedule)
        finally:
            srv.close(graceful=True, timeout=120.0)


# --------------------------------------------------------------------------- #
# Binary trace upload path
# --------------------------------------------------------------------------- #
class TestTraceUpload:
    def test_upload_miss_then_hit_byte_identical(self, tmp_path, server,
                                                 client, example_source):
        from repro.codegen.lowering import compile_source

        module = compile_source(example_source, module_name="example")
        trace_path = str(tmp_path / "upload.btrace")
        trace_to_file(module, trace_path, module_name="example",
                      fmt="binary")
        with open(trace_path, "rb") as handle:
            payload = handle.read()

        prepared = prepare_app_analysis("example", use_cache=False,
                                        trace_dir=server.trace_dir)
        spec = prepared.spec
        cold = client.analyze_trace(payload, spec.function,
                                    spec.start_line, spec.end_line)
        warm = client.analyze_trace(payload, spec.function,
                                    spec.start_line, spec.end_line)
        assert cold[0] == warm[0] == 200
        assert cold[1]["x-autocheck-cache"] == "miss"
        assert warm[1]["x-autocheck-cache"] == "hit"
        assert cold[2] == warm[2]

    def test_tampered_upload_is_refused_and_publishes_nothing(
            self, tmp_path, server, client, example_source):
        """A record byte flipped under an intact footer keeps the footer's
        digest — the store address — but changes the report; the daemon
        must refuse it before addressing, so the genuine upload that
        follows computes (and publishes) the genuine report."""
        from repro.codegen.lowering import compile_source

        module = compile_source(example_source, module_name="example")
        trace_path = str(tmp_path / "genuine.btrace")
        trace_to_file(module, trace_path, module_name="example",
                      fmt="binary")
        with open(trace_path, "rb") as handle:
            genuine = handle.read()
        tampered = bytearray(genuine)
        tampered[25] ^= 1

        spec = prepare_app_analysis("example", use_cache=False,
                                    trace_dir=server.trace_dir).spec
        bounds = (spec.function, spec.start_line, spec.end_line)
        status, _, body = client.analyze_trace(bytes(tampered), *bounds)
        assert status == 422
        assert json.loads(body)["error"]["code"] == "TRACE_DIGEST_MISMATCH"
        assert server.store.stats().entries == 0

        status, headers, body = client.analyze_trace(genuine, *bounds)
        assert status == 200
        assert headers["x-autocheck-cache"] == "miss"
        direct = AutoCheck(AutoCheckConfig(main_loop=spec),
                           trace_path=trace_path).run()
        assert body == canonical_report_json(direct).encode()
