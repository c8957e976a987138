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
  serial reference run;
* **address memo** — a warm app request stages nothing (no prepare, no
  compile, no ``cache_key``) and answers the cold bytes, while any change
  to the request's identity stages it afresh.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import (
    JOB_DONE,
    AnalysisServer,
    ServeClient,
)
from repro.apps.registry import get_app
from repro.codegen import lowering
from repro.core.config import AutoCheckConfig
from repro.core.pipeline import AutoCheck
from repro.serve import server as serve_module
from repro.serve.server import _Handler, run_analysis
from repro.store import ArtifactStore
from repro.store.batch import app_trace_path, prepare_app_analysis
from repro.store.serialize import canonical_report_json, report_from_dict
from repro.trace import binio
from repro.trace.textio import write_trace_file
from repro.tracer.driver import run_and_trace, trace_to_file

from test_golden_reports import GOLDEN
from test_store import ALL_APP_NAMES
from test_trace_binio import (
    FOOTER_LIES,
    RECORD_PROBES,
    UNDECODABLE,
    WALK_REFUSED,
    lying_footer,
    record_probe,
    undecodable_cases,
)
from test_trace_format import MALFORMED_TEXT, malformed_text

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


def _spy(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (still calling through)."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


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
        assert {"endpoints", "cache", "coalesce", "jobs", "store",
                "response_cache", "app_addresses"} <= set(snap)
        assert snap["app_addresses"] == {"entries": 0, "hits": 0,
                                         "misses": 0}

    def test_responses_leave_with_tcp_nodelay(self, client, monkeypatch):
        """A response is written as headers then body; with Nagle's
        algorithm on, the body's last segment waits for the client's
        delayed ACK, so every accepted socket must carry TCP_NODELAY."""
        seen = []
        original = _Handler._dispatch

        def dispatch(handler, method, url):
            seen.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))
            return original(handler, method, url)

        monkeypatch.setattr(_Handler, "_dispatch", dispatch)
        assert client.healthz()[0] == 200
        assert len(seen) == 1 and seen[0] != 0

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

    @pytest.mark.parametrize("body, content_type", [
        (b"[" * 100000, "application/json"),
        (b'{"a":' * 50000, None),
    ], ids=["array", "object"])
    def test_deeply_nested_json_is_structured_400(self, client, body,
                                                  content_type):
        status, _, answer = client.request("POST", "/analyze", body,
                                           content_type=content_type)
        assert status == 400
        error = json.loads(answer)["error"]
        assert error["code"] == "BAD_JSON"
        assert "recursion" in error["message"]

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
        for key in ("0" * 64, "..x"):
            status, _, body = client.report(key)
            assert status == 404
            assert json.loads(body)["error"]["code"] == "REPORT_NOT_FOUND"

    def test_deeply_nested_entry_header_is_404_and_heals(self, server,
                                                        client):
        key = "ab" + "2" * 62
        path = server.store.entry_path(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(b"[" * 100000 + b"\n{}")
        status, _, body = client.report(key)
        assert status == 404
        assert json.loads(body)["error"]["code"] == "REPORT_NOT_FOUND"
        assert not os.path.exists(path)

    def test_report_name_outside_the_store_touches_nothing(self, server,
                                                           client):
        """``/report/..x`` names no store entry: the file its name would
        reach outside ``objects/`` is neither read nor unlinked."""
        outside = os.path.join(server.store.root, "..x.json")
        # A store that holds entries has objects/, so objects/.. resolves.
        os.makedirs(os.path.join(server.store.root, "objects"))
        with open(outside, "w", encoding="utf-8") as handle:
            handle.write("not an entry")
        status, _, body = client.report("..x")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "REPORT_NOT_FOUND"
        assert os.path.exists(outside)

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
    def _post_with_content_length(server, content_length, body=b""):
        """POST /analyze over a raw socket with a hand-written header (an
        HTTP client library would compute the header itself).  Every
        length this is used with is refused with the body unread, so the
        daemon must then close the connection."""
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            sock.sendall((
                "POST /analyze?start=1&end=2 HTTP/1.1\r\n"
                "Host: localhost\r\n"
                "Content-Type: application/octet-stream\r\n"
                f"Content-Length: {content_length}\r\n\r\n").encode()
                + body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
            assert sock.recv(1024) == b""
            return response.status, payload

    def test_non_numeric_content_length_is_400(self, server):
        status, body = self._post_with_content_length(server, "twelve")
        assert status == 400
        assert body["error"]["code"] == "BAD_CONTENT_LENGTH"

    def test_negative_content_length_is_400_not_a_hang(self, server):
        status, body = self._post_with_content_length(server, "-5")
        assert status == 400
        assert body["error"]["code"] == "BAD_CONTENT_LENGTH"

    @pytest.mark.parametrize("declared", [10_000_000_000_000, 2 ** 63])
    def test_oversized_content_length_is_413_before_reading(self, server,
                                                             declared):
        """A length past ``MAX_UPLOAD_BYTES`` is refused before the body
        is read, so nothing is allocated for it (it was a 500 from a
        ``MemoryError`` or ``OverflowError``)."""
        status, body = self._post_with_content_length(server, declared,
                                                      b"ACTB")
        assert status == 413
        assert body["error"]["code"] == "PAYLOAD_TOO_LARGE"
        assert server.jobs.stats()["submitted"] == 0

    def test_upload_at_the_cap_is_analysed(self, server, client,
                                           example_trace, example_spec,
                                           monkeypatch):
        upload = example_trace.encoded()[0]
        monkeypatch.setattr(serve_module, "MAX_UPLOAD_BYTES", len(upload))
        status, headers, _ = client.analyze_trace(
            upload, example_spec.function, example_spec.start_line,
            example_spec.end_line)
        assert status == 200
        assert headers["x-autocheck-cache"] == "miss"
        status, body = self._post_with_content_length(server,
                                                      len(upload) + 1)
        assert (status, body["error"]["code"]) == (413, "PAYLOAD_TOO_LARGE")

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


    @staticmethod
    def _post_then_close(server, content_length, body, content_type):
        """POST /analyze declaring ``content_length`` but sending only
        ``body``, then close the sending side."""
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as sock:
            sock.sendall((
                "POST /analyze?function=main&start=1&end=2 HTTP/1.1\r\n"
                "Host: localhost\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {content_length}\r\n\r\n").encode()
                + body)
            sock.shutdown(socket.SHUT_WR)
            response = http.client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
            assert sock.recv(1024) == b""
            return response.status, payload

    @pytest.mark.parametrize("content_type, declared, body", [
        # A cut JSON body that still parses must not be analysed.
        ("application/json", 40, b'{"app": "example"}'),
        # A cut binary body must not be blamed on the trace's bytes.
        ("application/octet-stream", 1000, b"ACTB" + bytes(20)),
    ])
    def test_body_shorter_than_its_content_length_is_400(
            self, server, content_type, declared, body):
        status, payload = self._post_then_close(server, declared, body,
                                                content_type)
        assert status == 400
        error = payload["error"]
        assert error["code"] == "BODY_TRUNCATED"
        assert f"after {len(body)} of the {declared} bytes" \
            in error["message"]
        assert server.jobs.stats()["submitted"] == 0
        assert server.store.stats().entries == 0

    def test_body_is_read_in_bounded_chunks(self, server, client,
                                            example_trace, example_spec,
                                            monkeypatch):
        """No single read asks for more than ``BODY_CHUNK_BYTES``, so a
        client holds what it sent, not what it declared."""
        chunk = 4096
        monkeypatch.setattr(serve_module, "BODY_CHUNK_BYTES", chunk)
        sizes = []

        class ReadSpy:
            def __init__(self, rfile):
                self._rfile = rfile

            def read(self, size=-1):
                sizes.append(size)
                return self._rfile.read(size)

            def __getattr__(self, name):
                return getattr(self._rfile, name)

        original_setup = _Handler.setup

        def setup(handler):
            original_setup(handler)
            handler.rfile = ReadSpy(handler.rfile)

        monkeypatch.setattr(_Handler, "setup", setup)
        upload = example_trace.encoded()[0]
        status, headers, _ = client.analyze_trace(
            upload, example_spec.function, example_spec.start_line,
            example_spec.end_line)
        assert status == 200
        assert headers["x-autocheck-cache"] == "miss"
        assert len(sizes) == -(-len(upload) // chunk)
        assert 0 < max(sizes) <= chunk


# --------------------------------------------------------------------------- #
# App-request fields: checked before they key anything
# --------------------------------------------------------------------------- #
def _documented_app_body():
    """The app-mode example body in docs/serve.md."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "docs", "serve.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    section = text[text.index("### `POST /analyze` — app mode"):]
    match = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    return json.loads(match.group(1))


class TestAppRequestFields:
    @pytest.mark.parametrize("field, value", [
        ("induction", 5),
        ("seed", True),
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", None),
        ("wait", "0"),
        ("params", [8]),
        ("params.iterations", True),
        ("params.iterations", "8"),
    ])
    def test_ill_typed_field_is_400_naming_it(self, server, client, field,
                                               value):
        payload = {"app": FAST_APP}
        if field.startswith("params."):
            payload["params"] = {field.split(".", 1)[1]: value}
        else:
            payload[field] = value
        status, _, body = client.request(
            "POST", "/analyze", json.dumps(payload).encode(),
            content_type="application/json")
        assert status == 400
        error = json.loads(body)["error"]
        assert error["code"] == "BAD_FIELD"
        assert f"'{field}'" in error["message"]
        # Refused before staging: nothing traced, run or published.
        assert not os.path.exists(server.trace_dir)
        assert server.jobs.stats()["submitted"] == 0
        assert server.store.stats().entries == 0
        assert client.stats()["app_addresses"]["misses"] == 0

    def test_unknown_param_names_the_app(self, client):
        status, _, body = client.analyze_app(FAST_APP, params={"nope": 4})
        assert status == 400
        error = json.loads(body)["error"]
        assert error["code"] == "BAD_FIELD"
        assert "cannot stage app 'example'" in error["message"]

    def test_documented_app_body_answers_200(self, client):
        payload = _documented_app_body()
        status, headers, body = client.request(
            "POST", "/analyze", json.dumps(payload).encode(),
            content_type="application/json")
        assert status == 200, body
        assert headers["x-autocheck-cache"] == "miss"
        assert json.loads(body)["critical_variables"]


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
# Stored bytes: a store entry's report line is the response
# --------------------------------------------------------------------------- #
def _spy_everywhere(monkeypatch, function):
    """Count the calls of ``function`` under every name a loaded ``repro``
    module bound it to (``from x import f`` copies the binding)."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, spy)
    return calls


def _report_line(store, key):
    with open(store.entry_path(key), "rb") as handle:
        return handle.read().split(b"\n")[1]


class TestStoredBytes:
    def test_miss_answers_the_report_line_its_publish_wrote(
            self, server, client, monkeypatch):
        """A miss encodes its report once, to publish it, and answers
        with those bytes."""
        encodes = _spy_everywhere(monkeypatch, canonical_report_json)
        status, headers, body = client.analyze_app(FAST_APP)
        assert status == 200
        assert headers["x-autocheck-cache"] == "miss"
        assert body == _report_line(server.store,
                                    headers["x-autocheck-key"])
        assert len(encodes) == 1

    def test_daemon_without_a_store_encodes_its_report(self, tmp_path):
        srv = _make_server(tmp_path, use_cache=False)
        try:
            status, headers, body = ServeClient(
                srv.host, srv.port).analyze_app(FAST_APP)
        finally:
            srv.close(graceful=True, timeout=60.0)
        assert status == 200
        assert headers["x-autocheck-cache"] == "miss"
        assert body == _direct_canonical(FAST_APP, srv.trace_dir)
        assert srv.store.stats().entries == 0

    def test_second_daemon_answers_the_first_ones_bytes_undecoded(
            self, tmp_path, monkeypatch):
        """A daemon started on a store another daemon filled answers its
        first request for a stored report with the bytes the first one
        published, and neither decodes nor encodes a report."""
        first = _make_server(tmp_path)
        try:
            cold = ServeClient(first.host, first.port).analyze_app(FAST_APP)
        finally:
            first.close(graceful=True, timeout=60.0)
        assert cold[1]["x-autocheck-cache"] == "miss"
        spies = {function.__name__: _spy_everywhere(monkeypatch, function)
                 for function in (report_from_dict, canonical_report_json)}
        second = _make_server(tmp_path)
        try:
            warm = ServeClient(second.host, second.port).analyze_app(
                FAST_APP)
        finally:
            second.close(graceful=True, timeout=60.0)
        assert warm[0] == 200
        assert warm[1]["x-autocheck-cache"] == "hit"
        assert warm[1]["x-autocheck-key"] == cold[1]["x-autocheck-key"]
        assert warm[2] == cold[2]
        assert {name: len(calls) for name, calls in spies.items()} == {
            "report_from_dict": 0, "canonical_report_json": 0}


# --------------------------------------------------------------------------- #
# Address memo: warm app requests stage nothing
# --------------------------------------------------------------------------- #
class TestAddressMemo:
    @staticmethod
    def _staging_spies(monkeypatch):
        return {
            "prepare_app_analysis": _spy(monkeypatch, serve_module,
                                         "prepare_app_analysis"),
            "compile_source": _spy(monkeypatch, lowering, "compile_source"),
            "cache_key": _spy(monkeypatch, AutoCheck, "cache_key"),
        }

    def test_warm_hit_stages_nothing_and_answers_the_cold_bytes(
            self, client, monkeypatch):
        cold = client.analyze_app(FAST_APP)
        spies = self._staging_spies(monkeypatch)
        warm = client.analyze_app(FAST_APP)

        assert {name: len(calls) for name, calls in spies.items()} == {
            "prepare_app_analysis": 0, "compile_source": 0, "cache_key": 0}
        assert cold[0] == warm[0] == 200
        assert warm[1]["x-autocheck-cache"] == "hit"
        assert warm[1]["x-autocheck-key"] == cold[1]["x-autocheck-key"]
        assert warm[2] == cold[2]
        assert client.stats()["app_addresses"] == {"entries": 1, "hits": 1,
                                                   "misses": 1}

    @pytest.mark.parametrize("field, value, new_key", [
        ("params", {"iterations": 8}, True),
        ("induction", "it", True),
        # example draws no random numbers: its trace, and so its store
        # key, do not depend on the seed; its memo entry still does.
        ("seed", 7, False),
    ])
    def test_changed_field_misses_the_memo(self, server, client, monkeypatch,
                                           field, value, new_key):
        base = client.analyze_app(FAST_APP)
        prepare = _spy(monkeypatch, serve_module, "prepare_app_analysis")
        variant = client.analyze_app(FAST_APP, **{field: value})
        again = client.analyze_app(FAST_APP, **{field: value})

        assert variant[0] == again[0] == 200
        assert len(prepare) == 1
        key = variant[1]["x-autocheck-key"]
        assert (key != base[1]["x-autocheck-key"]) == new_key
        assert again[1]["x-autocheck-key"] == key
        assert again[2] == variant[2]
        assert client.stats()["app_addresses"] == {"entries": 2, "hits": 1,
                                                   "misses": 2}

    def test_changed_source_misses_the_memo(self, client, monkeypatch):
        cold = client.analyze_app(FAST_APP)
        app = get_app(FAST_APP)
        builder = app.source_builder
        monkeypatch.setattr(
            app, "source_builder",
            lambda **params: builder(**params) + "// edited\n")
        spies = self._staging_spies(monkeypatch)
        edited = client.analyze_app(FAST_APP)

        assert len(spies["prepare_app_analysis"]) == 1
        assert len(spies["compile_source"]) == 1
        # A trailing comment leaves the module, and so the analysis, as it
        # was: the staged request addresses the cold artifact again.
        assert edited[1]["x-autocheck-key"] == cold[1]["x-autocheck-key"]
        assert edited[2] == cold[2]
        assert client.stats()["app_addresses"]["misses"] == 2

    def test_gone_artifact_is_staged_again(self, server, client, monkeypatch):
        cold = client.analyze_app(FAST_APP)
        key = cold[1]["x-autocheck-key"]
        assert (hashlib.sha256(cold[2]).hexdigest()
                == GOLDEN[FAST_APP]["report_sha256"])
        trace_path = app_trace_path(server.trace_dir, FAST_APP, {}, 314159)
        os.remove(server.store.entry_path(key))
        os.remove(trace_path)
        server._response_cache.clear()

        prepare = _spy(monkeypatch, serve_module, "prepare_app_analysis")
        status, headers, body = client.analyze_app(FAST_APP)

        assert status == 200
        assert len(prepare) == 1
        assert os.path.exists(trace_path)
        assert headers["x-autocheck-cache"] == "miss"
        assert headers["x-autocheck-key"] == key
        assert body == cold[2]
        assert server.store.load(key) is not None
        assert client.stats()["app_addresses"] == {"entries": 1, "hits": 0,
                                                   "misses": 2}

    def test_memo_stays_within_its_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serve_module, "RESPONSE_CACHE_ENTRIES", 2)
        srv = _make_server(tmp_path)
        try:
            cli = ServeClient(srv.host, srv.port)
            for seed in (1, 2, 3, 1, 3):
                assert cli.analyze_app(FAST_APP, seed=seed)[0] == 200
            # seed 1 was evicted by seed 3 and staged again; 3 stayed.
            assert cli.stats()["app_addresses"] == {"entries": 2, "hits": 1,
                                                    "misses": 4}
        finally:
            srv.close(graceful=True, timeout=60.0)


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

    def test_text_and_binary_uploads_share_one_entry_and_write_nothing(
            self, tmp_path, server, client, example_module, example_spec):
        """An upload is walked from its body, so no file is written for
        it; a text upload is keyed by its binary encoding's digest, so it
        answers from the entry the binary upload of the trace published."""
        trace, _ = run_and_trace(example_module, module_name="example")
        text_path = str(tmp_path / "upload.trace")
        write_trace_file(trace, text_path)
        with open(text_path, "rb") as handle:
            text = handle.read()
        bounds = (example_spec.function, example_spec.start_line,
                  example_spec.end_line)
        binary = client.analyze_trace(trace.encoded()[0], *bounds)
        text_upload = client.analyze_trace(text, *bounds)
        assert binary[0] == text_upload[0] == 200
        assert binary[1]["x-autocheck-cache"] == "miss"
        assert text_upload[1]["x-autocheck-cache"] == "hit"
        assert binary[1]["x-autocheck-key"] == \
            text_upload[1]["x-autocheck-key"]
        assert binary[2] == text_upload[2]
        assert server.store.stats().entries == 1
        assert not os.path.exists(os.path.join(server.trace_dir, "uploads"))

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

    @pytest.mark.parametrize("case", sorted(MALFORMED_TEXT))
    def test_malformed_text_upload_is_422_never_500(
            self, tmp_path, server, client, example_trace, example_spec,
            case):
        path = str(tmp_path / "bad.trace")
        write_trace_file(example_trace, path)
        number = malformed_text(path, case)
        with open(path, "rb") as handle:
            upload = handle.read()
        status, _, body = client.analyze_trace(
            upload, example_spec.function, example_spec.start_line,
            example_spec.end_line)
        error = json.loads(body)["error"]
        assert (status, error["code"]) == (422, "INVALID_TRACE")
        assert re.search(rf":{number}: malformed trace line",
                         error["message"])
        assert server.store.stats().entries == 0

    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    def test_undecodable_field_upload_is_refused_naming_it(
            self, tmp_path, server, client, example_module, case):
        """A name that is not UTF-8, a footer that ends early or a footer
        offset past the body's end: 400, naming ``<upload>`` and the
        field, before anything is stored."""
        trace_path = str(tmp_path / "genuine.btrace")
        trace_to_file(example_module, trace_path, module_name="example",
                      fmt="binary")
        with open(trace_path, "rb") as handle:
            upload = undecodable_cases(handle.read())[case]
        spec = prepare_app_analysis("example", use_cache=False,
                                    trace_dir=server.trace_dir).spec
        status, _, body = client.analyze_trace(
            upload, spec.function, spec.start_line, spec.end_line)
        error = json.loads(body)["error"]
        assert (status, error["code"]) == (400, "BAD_FIELD")
        assert "'<upload>'" in error["message"]
        assert re.search(UNDECODABLE[case], error["message"])
        assert server.store.stats().entries == 0

    @pytest.mark.parametrize("case", RECORD_PROBES)
    def test_undecodable_record_upload_is_422_never_500(
            self, server, client, example_trace, example_spec, case):
        """A record the decoder refuses (a string id past the table, a
        has-result byte of 2, an unknown value tag or big-integer digits
        that do not parse), under a digest folded again over its bytes:
        the walk refuses it naming ``<upload>``, the record and the field,
        and nothing is stored."""
        upload, refusal = record_probe(example_trace.encoded()[0], case,
                                       example_spec)
        status, _, body = client.analyze_trace(
            upload, example_spec.function, example_spec.start_line,
            example_spec.end_line)
        error = json.loads(body)["error"]
        assert (status, error["code"]) == (422, "INVALID_TRACE")
        assert re.search(rf"'<upload>': record \d+ .*{refusal}",
                         error["message"])
        assert server.store.stats().entries == 0

    @pytest.mark.parametrize("lie", sorted(FOOTER_LIES))
    def test_lying_footer_upload_is_refused_never_500(
            self, tmp_path, server, client, example_module, lie):
        """The footer checks refuse a lying stride or count before the
        upload is addressed (400); a count they cannot catch keeps the
        genuine digest, so the job's walk refuses it (422)."""
        trace_path = str(tmp_path / "genuine.btrace")
        trace_to_file(example_module, trace_path, module_name="example",
                      fmt="binary")
        with open(trace_path, "rb") as handle:
            upload = lying_footer(handle.read(), lie)
        spec = prepare_app_analysis("example", use_cache=False,
                                    trace_dir=server.trace_dir).spec
        status, _, body = client.analyze_trace(
            upload, spec.function, spec.start_line, spec.end_line)
        error = json.loads(body)["error"]
        if lie in WALK_REFUSED:
            assert (status, error["code"]) == (422, "INVALID_TRACE")
            assert "their span in the block index" in error["message"]
        else:
            assert (status, error["code"]) == (400, "BAD_FIELD")
            assert "corrupt binary trace footer" in error["message"]
        assert server.store.stats().entries == 0

    def test_cold_binary_upload_hashes_its_records_once(
            self, server, client, example_trace, example_spec, monkeypatch):
        """The digest check at upload records on the ``Trace`` that its
        bytes matched, so the publishing walk does not hash them again."""
        upload = example_trace.encoded()[0]
        layout = example_trace.layout
        hashed = []
        add = binio._DigestFold.add

        def counting_add(fold, start, data):
            hashed.append(len(data))
            return add(fold, start, data)

        monkeypatch.setattr(binio._DigestFold, "add", counting_add)
        status, headers, _ = client.analyze_trace(
            upload, example_spec.function, example_spec.start_line,
            example_spec.end_line)
        assert status == 200
        assert headers["x-autocheck-cache"] == "miss"
        assert sum(hashed) == layout.records_end - layout.records_start

    @staticmethod
    def _upload_parses(client, trace, spec, footer_parses):
        """Upload ``trace``'s binary bytes; the cache header and the footer
        parses the request made."""
        footer_parses["count"] = 0
        status, headers, _ = client.analyze_trace(
            trace.encoded()[0], spec.function, spec.start_line,
            spec.end_line)
        assert status == 200
        return headers["x-autocheck-cache"], footer_parses["count"]

    def test_cold_binary_upload_makes_one_footer_parse(
            self, server, client, example_trace, example_spec,
            footer_parses):
        """An upload's ``Trace`` keeps the layout of the one parse of its
        footer: the digest check, the key and the walk all use it."""
        assert self._upload_parses(client, example_trace, example_spec,
                                   footer_parses) == ("miss", 1)

    def test_warm_binary_upload_makes_one_footer_parse(
            self, server, client, example_trace, example_spec,
            footer_parses):
        self._upload_parses(client, example_trace, example_spec,
                            footer_parses)
        assert self._upload_parses(client, example_trace, example_spec,
                                   footer_parses) == ("hit", 1)


class TestTextUploadMemo:
    """A text upload is keyed by its v2 encoding's digest, so its key costs
    a parse; the address memo also holds the address each body (by
    SHA-256) and loop bounds came to, and answers a repeated upload from it
    while the artifact lasts."""

    @pytest.fixture()
    def text_upload(self, tmp_path, example_trace):
        path = str(tmp_path / "upload.trace")
        write_trace_file(example_trace, path)
        with open(path, "rb") as handle:
            return handle.read()

    @staticmethod
    def _bounds(spec, **changes):
        bounds = {"function": spec.function, "start": spec.start_line,
                  "end": spec.end_line, **changes}
        return bounds["function"], bounds["start"], bounds["end"]

    def test_repeated_text_upload_answers_without_a_parse(
            self, client, monkeypatch, text_upload, example_spec):
        from repro.trace import textio

        bounds = self._bounds(example_spec)
        cold = client.analyze_trace(text_upload, *bounds)
        parses = _spy(monkeypatch, textio, "iter_parsed_records")
        warm = client.analyze_trace(text_upload, *bounds)

        assert cold[0] == warm[0] == 200
        assert cold[1]["x-autocheck-cache"] == "miss"
        assert warm[1]["x-autocheck-cache"] == "hit"
        assert warm[1]["x-autocheck-key"] == cold[1]["x-autocheck-key"]
        assert warm[2] == cold[2]
        assert parses == []
        assert client.stats()["app_addresses"] == {"entries": 1, "hits": 1,
                                                   "misses": 1}

    def test_other_bounds_parse_again(self, client, monkeypatch,
                                      text_upload, example_spec):
        from repro.trace import textio

        client.analyze_trace(text_upload, *self._bounds(example_spec))
        parses = _spy(monkeypatch, textio, "iter_parsed_records")
        other = client.analyze_trace(
            text_upload,
            *self._bounds(example_spec, start=example_spec.start_line + 1))

        assert other[0] == 200
        assert len(parses) == 1
        assert client.stats()["app_addresses"] == {"entries": 2, "hits": 0,
                                                   "misses": 2}

    def test_gone_artifact_takes_the_full_path(self, server, client,
                                               monkeypatch, text_upload,
                                               example_spec):
        from repro.trace import textio

        bounds = self._bounds(example_spec)
        cold = client.analyze_trace(text_upload, *bounds)
        key = cold[1]["x-autocheck-key"]
        os.remove(server.store.entry_path(key))
        server._response_cache.clear()
        parses = _spy(monkeypatch, textio, "iter_parsed_records")
        status, headers, body = client.analyze_trace(text_upload, *bounds)

        assert status == 200
        assert len(parses) == 1
        assert headers["x-autocheck-cache"] == "miss"
        assert headers["x-autocheck-key"] == key
        assert body == cold[2]
        assert server.store.load(key) is not None
        assert client.stats()["app_addresses"] == {"entries": 1, "hits": 0,
                                                   "misses": 2}


class TestTextUploadCoalescing:
    """Identical text bodies in flight together share one parse: the text
    parse runs through the daemon's coalescer, keyed by the body's
    SHA-256, so the followers wait for the leader's ``Trace`` (or its
    error)."""

    N = 4

    def _upload_together(self, tmp_path, monkeypatch, upload, spec):
        """``N`` concurrent uploads of ``upload``, with the first text
        parse held until the others have joined it; returns the
        responses and the number of text parses started."""
        from repro.trace import textio

        parses = []
        release = threading.Event()
        real_iter_parsed = textio.iter_parsed_records

        def held_iter_parsed(*args, **kwargs):
            parses.append(args)
            assert release.wait(timeout=60.0)
            return real_iter_parsed(*args, **kwargs)

        monkeypatch.setattr(textio, "iter_parsed_records", held_iter_parsed)
        srv = _make_server(tmp_path, workers=2, queue_limit=8)
        try:
            cli = ServeClient(srv.host, srv.port)
            bounds = (spec.function, spec.start_line, spec.end_line)
            with ThreadPoolExecutor(max_workers=self.N) as pool:
                futures = [pool.submit(cli.analyze_trace, upload, *bounds)
                           for _ in range(self.N)]
                joined = _poll(lambda: srv.coalescer.stats()["joined"]
                               >= self.N - 1, timeout=10.0)
                release.set()
                responses = [f.result(timeout=120) for f in futures]
        finally:
            srv.close(graceful=True, timeout=60.0)
        assert joined, "the uploads did not join one text parse"
        return responses, len(parses)

    def test_identical_text_uploads_share_one_parse(
            self, tmp_path, monkeypatch, example_trace, example_spec):
        path = str(tmp_path / "upload.trace")
        write_trace_file(example_trace, path)
        with open(path, "rb") as handle:
            upload = handle.read()
        responses, parses = self._upload_together(tmp_path, monkeypatch,
                                                  upload, example_spec)
        assert parses == 1
        assert [status for status, _, _ in responses] == [200] * self.N
        assert len({body for _, _, body in responses}) == 1

    def test_malformed_text_upload_is_422_for_every_waiter(
            self, tmp_path, monkeypatch, example_trace, example_spec):
        path = str(tmp_path / "bad.trace")
        write_trace_file(example_trace, path)
        number = malformed_text(path, sorted(MALFORMED_TEXT)[0])
        with open(path, "rb") as handle:
            upload = handle.read()
        responses, parses = self._upload_together(tmp_path, monkeypatch,
                                                  upload, example_spec)
        assert parses == 1
        for status, _, body in responses:
            error = json.loads(body)["error"]
            assert (status, error["code"]) == (422, "INVALID_TRACE")
            assert re.search(rf"<upload>:{number}: malformed trace line",
                             error["message"])
