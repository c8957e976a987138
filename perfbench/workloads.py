"""The four fleet workloads and the run driver behind ``run.py``.

Each workload loads one layer heavily and the others lightly:

* ``cold_fleet`` — a user's first analysis of each program: compile,
  trace to a binary file, analyse against an empty store (publishing the
  report), canonical JSON.  Tracer and encoder dominate.
* ``reanalyze`` — the paper's own setting: recorded traces (made in
  set-up) analysed again with their modules, no store.  Decode and walk
  dominate; tracer and encoder are bypassed.
* ``serve_mixed`` — windows of an in-process serve daemon (2 pool
  workers) over a fresh copy of a store snapshot holding a slice of the
  fleet: one closed-loop connection sends warm app requests, a second
  uploads the slice's traces, none of which are stored.
* ``campaign`` — kill/restart fault-injection trials over a slice of the
  fleet through a warm store: the only path into ``checkpoint`` and the
  tracer's execute-only mode.

A workload's :meth:`Workload.prepare` is the timed set-up; its
:meth:`Workload.measure` runs the measured window and verifies every
operation.  :func:`run` drives one benchmark run, untraced (end-to-end
metrics) or traced (per-layer metrics from spans).
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import math
import os
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from fleet import (
    APP_SEED,
    FleetApp,
    Verdicts,
    fleet_names,
    load_fleet,
    load_golden,
    report_problems,
    sha256,
)
from hostspeed import HostMeter, Timing
from layers import (
    install_probes,
    layer_metrics,
    layer_table,
    link_requests,
    serve_counter_delta,
)
from spans import NullRecorder, SpanIndex, SpanRecorder, self_by_name

from repro.campaign import runner as campaign_runner
from repro.campaign.plan import CONTENT_POLICIES
from repro.codegen import lowering
from repro.core import pipeline
from repro.core.config import AutoCheckConfig
from repro.serve.server import AnalysisServer
from repro.store import batch
from repro.store import serialize as store_serialize
from repro.trace import binio
from repro.tracer import driver
from repro.tracer.interpreter import InMemoryTraceSink, Interpreter

#: Apps of the campaign slice: the three cheapest to execute, so a run
#: fits five campaigns of 3 apps x 3 content policies x 3 trials.
CAMPAIGN_APPS = ("example", "is", "miniamr")
#: Kill/restart trials per (app, content policy) cell.
CAMPAIGN_TRIALS = 3
#: Campaigns per window at least: the determinism check needs two, and
#: the median of five steadies the figure.
MIN_CAMPAIGNS = 5
#: Apps of the serve_mixed slice: eight of the fleet's sixteen, from the
#: smallest trace to call-heavy ep and cg, 318,147 records.  A set-up
#: over all sixteen (trace, snapshot and reference walks) alone takes
#: about 28 s, more than a run can afford.
SERVE_APPS = ("example", "himeno", "cg", "ep", "is", "miniamr", "hacc",
              "bigarray")
#: Warm hits per serve_mixed window beside its 8 uploads: 15 per upload,
#: the mix of a closed-loop probe of the daemon (about 240 hits beside 16
#: misses).  Three timed windows give 360 samples, 18 above the p95.
HITS_PER_WINDOW = 120
#: Untimed windows before the timed ones, and timed windows at least: a
#: median per round needs three.
SERVE_WARMUP_WINDOWS = 1
MIN_SERVE_WINDOWS = 3
#: Upper bound on one serve_mixed window, whatever else happens.
MAX_SERVE_WINDOW_S = 90.0
#: Pool width of the serve daemon under test (the host has 2 cores).
SERVE_WORKERS = 2


@dataclass
class Measurement:
    """One measured window: its verified operations and figures."""

    #: verified operations, and the wall seconds the window measured
    ops: int
    seconds: float
    #: verified operations per reference CPU second (see ``hostspeed``;
    #: for repeated passes or campaigns, from their medians)
    ops_per_ref_cpu_s: float
    #: the same per raw process-CPU second, printed for comparison
    ops_per_cpu_s: float
    verdicts: Verdicts
    #: (label, value, unit, note) of the workload's own figures.
    figures: List[Tuple[str, float, str, str]] = field(default_factory=list)
    serve_counters: Optional[Dict[str, int]] = None
    key_to_app: Dict[str, str] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q`` quantile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def seeded_order(names: Sequence[str], seed: Any) -> List[str]:
    order = list(names)
    random.Random(seed).shuffle(order)
    return order


def canonical_bytes(report) -> bytes:
    return store_serialize.canonical_report_json(report).encode()


class Workload:
    """Set-up plus a measured window over some of the fleet.

    Every timed section, in set-up and in the window, runs under the
    workload's :class:`HostMeter`, so its CPU time is normalised to the
    host's speed at that moment.
    """

    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 1

    def __init__(self, seed: int, apps: Optional[Sequence[str]] = None
                 ) -> None:
        self.seed = seed
        self.apps = list(apps or self.default_apps())
        self.fleet = load_fleet(self.apps)
        self.golden = load_golden()
        self.meter = HostMeter()
        self.setup_steps: List[Timing] = []

    def default_apps(self) -> List[str]:
        return fleet_names()

    @contextlib.contextmanager
    def setup_step(self) -> Iterator[None]:
        """Time one step of :meth:`prepare` into ``setup_steps``."""
        with self.meter.timed() as timing:
            yield
        self.setup_steps.append(timing)

    def prepare(self, work_dir: str, verdicts: Verdicts) -> None:
        """Set up the window, timing its work in :meth:`setup_step`s."""
        raise NotImplementedError

    def measure(self, seconds: float, recorder) -> Measurement:
        raise NotImplementedError

    def traced_lines(self, index: SpanIndex) -> List[str]:
        """Extra lines a traced run prints (the fleet table by default)."""
        return layer_table(index, self.apps)


class FleetPasses(Workload):
    """Whole passes over the apps, each app one verified operation.

    The window runs ``warmup_passes`` untimed passes, then at least
    ``min_passes`` timed ones, and stops after the first timed pass that
    ends past ``seconds``.  The fleet time is the sum over apps of each
    app's median time across timed passes, so a burst of host noise in one
    pass is voted out.  Checks and garbage collection happen between apps,
    outside the timed calls, so the peak memory is one app's working set
    whatever the app order.
    """

    warmup_passes = 0
    min_passes = 1

    def _analyse(self, name: str, pass_dir: str, recorder):
        """One app to ``(report, canonical bytes)``."""
        raise NotImplementedError

    def _verify(self, name: str, report, body: bytes,
                traced: bool) -> Tuple[bool, str]:
        raise NotImplementedError

    def measure(self, seconds: float, recorder) -> Measurement:
        verdicts = Verdicts()
        order = seeded_order(self.apps, self.seed)
        timings: Dict[str, List[Timing]] = {name: [] for name in order}
        elapsed = 0.0
        passes = ok_ops = records = 0
        while (passes < self.warmup_passes + self.min_passes
               or elapsed < seconds):
            timed = passes >= self.warmup_passes
            pass_dir = tempfile.mkdtemp(prefix="pass-", dir=self.work_dir)
            for name in order:
                with self.meter.timed() as timing, \
                        recorder.span("app", app=name):
                    report, body = self._analyse(name, pass_dir, recorder)
                ok = verdicts.check(*self._verify(name, report, body,
                                                  recorder.enabled))
                if timed:
                    timings[name].append(timing)
                    elapsed += timing.wall
                    ok_ops += ok
                    records += report.trace_stats.record_count
                del report, body
                gc.collect()
            passes += 1
            shutil.rmtree(pass_dir)
        passes -= self.warmup_passes

        def fleet(clock: str) -> float:
            return sum(statistics.median(getattr(t, clock) for t in times)
                       for times in timings.values())

        fleet_wall, fleet_cpu, fleet_norm = (fleet("wall"), fleet("cpu"),
                                             fleet("norm"))
        pass_norm = [sum(times[index].norm for times in timings.values())
                     for index in range(passes)]
        latencies = [t.wall for times in timings.values() for t in times]
        per_pass = records // passes
        return Measurement(
            ops=ok_ops, seconds=elapsed,
            ops_per_ref_cpu_s=ok_ops / passes / fleet_norm,
            ops_per_cpu_s=ok_ops / passes / fleet_cpu, verdicts=verdicts,
            figures=[
                ("krec_per_s", per_pass / fleet_wall / 1000.0, "krec/s",
                 f"{per_pass} records per pass; {fleet_wall:.3f} wall s "
                 f"from per-app medians over {passes} timed pass(es) after "
                 f"{self.warmup_passes} warm-up"),
                ("krec_per_ref_cpu_s", per_pass / fleet_norm / 1000.0,
                 "krec/s", f"{fleet_norm:.3f} reference CPU s from per-app "
                 f"medians; passes of " + ", ".join(f"{t:.3f}"
                                                   for t in pass_norm)),
                ("app_p50_ms", statistics.median(latencies) * 1000.0, "ms",
                 f"median of {len(latencies)} app analyses"),
            ])


# --------------------------------------------------------------------------- #
# cold_fleet
# --------------------------------------------------------------------------- #
class ColdFleet(FleetPasses):
    name = "cold_fleet"
    setup_repeats = 3

    def prepare(self, work_dir: str, verdicts: Verdicts) -> None:
        # The lazy set-up a first analysis would otherwise pay (imports,
        # numpy, struct caches): one cold pass of the smallest app.
        self.work_dir = work_dir
        self.untraced_digests: Dict[str, str] = {}
        warm = load_fleet(["example"])["example"]
        with self.setup_step():
            report, body = self._cold_app(
                warm, work_dir, os.path.join(work_dir, "warm-store"),
                NullRecorder())
        verdicts.check(not report_problems(warm, report, body, self.golden),
                       "set-up: the example warm-up report is wrong")

    def _analyse(self, name: str, pass_dir: str, recorder):
        return self._cold_app(self.fleet[name], pass_dir,
                              os.path.join(pass_dir, "store"), recorder)

    @staticmethod
    def _cold_app(app: FleetApp, pass_dir: str, store_dir: str, recorder):
        module = lowering.compile_source(app.source, module_name=app.name)
        path = os.path.join(pass_dir, f"{app.name}.btrace")
        if recorder.enabled:
            # Traced runs split trace_to_file into its two halves.
            sink = InMemoryTraceSink(module_name=module.name)
            Interpreter(module, trace_sink=sink, seed=APP_SEED).run()
            binio.write_trace_file_binary(sink.trace, path)
        else:
            driver.trace_to_file(module, path, module_name=app.name,
                                 seed=APP_SEED, fmt="binary")
        config = app.config(use_cache=True, cache_dir=store_dir)
        report = pipeline.AutoCheck(config, trace_path=path,
                                    module=module).run()
        return report, canonical_bytes(report)

    def _verify(self, name: str, report, body: bytes,
                traced: bool) -> Tuple[bool, str]:
        app = self.fleet[name]
        problems = report_problems(app, report, body, self.golden)
        golden = self.golden.get(name, {})
        info = report.cache_info
        if info is None or info.hit:
            problems.append(f"{name}: expected a store miss on a fresh store")
        digest = info.trace_digest if info is not None else None
        if digest != golden.get("trace_digest"):
            problems.append(f"{name}: trace footer digest {digest} differs "
                            f"from the golden digest")
        if report.trace_stats.record_count != golden.get("records"):
            problems.append(f"{name}: {report.trace_stats.record_count} "
                            f"records, golden {golden.get('records')}")
        if traced:
            untraced = self.untraced_digests.get(name)
            if untraced is not None and digest != untraced:
                problems.append(f"{name}: split trace digest {digest} != "
                                f"trace_to_file digest {untraced}")
        else:
            self.untraced_digests[name] = digest
        return not problems, "; ".join(problems)


# --------------------------------------------------------------------------- #
# reanalyze
# --------------------------------------------------------------------------- #
class Reanalyze(FleetPasses):
    name = "reanalyze"
    warmup_passes = 1
    min_passes = 2

    def prepare(self, work_dir: str, verdicts: Verdicts) -> None:
        self.work_dir = work_dir
        self.modules = {}
        self.paths = {}
        for name in self.apps:
            app = self.fleet[name]
            path = os.path.join(work_dir, f"{name}.btrace")
            with self.setup_step():
                module = lowering.compile_source(app.source,
                                                 module_name=name)
                driver.trace_to_file(module, path, module_name=name,
                                     seed=APP_SEED, fmt="binary")
            digest = binio.read_layout(path).content_digest
            verdicts.check(
                digest == self.golden.get(name, {}).get("trace_digest"),
                f"set-up: {name} trace digest differs from the golden one")
            self.modules[name] = module
            self.paths[name] = path
            gc.collect()

    def _analyse(self, name: str, pass_dir: str, recorder):
        config = self.fleet[name].config(use_cache=False)
        report = pipeline.AutoCheck(config, trace_path=self.paths[name],
                                    module=self.modules[name]).run()
        return report, canonical_bytes(report)

    def _verify(self, name: str, report, body: bytes,
                traced: bool) -> Tuple[bool, str]:
        problems = report_problems(self.fleet[name], report, body,
                                   self.golden)
        return not problems, "; ".join(problems)


# --------------------------------------------------------------------------- #
# serve_mixed
# --------------------------------------------------------------------------- #
@dataclass
class _Upload:
    body: bytes
    reference_sha256: str
    records: int


@dataclass
class _Sample:
    app: str
    status: int
    cache: Optional[str]
    key: Optional[str]
    seconds: float
    #: SHA-256 of the response body (the body itself is not kept)
    digest: str


@dataclass
class _Window:
    """What one serve_mixed window sent, got and spent."""

    hits: List[_Sample] = field(default_factory=list)
    uploads: List[_Sample] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: one per round
    timings: List[Timing] = field(default_factory=list)
    #: ``/stats`` counter growth over the window
    counters: Dict[str, int] = field(default_factory=dict)


def _post(conn: http.client.HTTPConnection, path: str, body: bytes,
          content_type: str) -> Tuple[int, Optional[str], Optional[str], bytes]:
    conn.request("POST", path, body=body,
                 headers={"Content-Type": content_type})
    response = conn.getresponse()
    payload = response.read()
    return (response.status, response.getheader("X-Autocheck-Cache"),
            response.getheader("X-Autocheck-Key"), payload)


def _get_stats(host: str, port: int) -> Dict[str, Any]:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read().decode("utf-8"))
    finally:
        conn.close()


class ServeMixed(Workload):
    name = "serve_mixed"

    def __init__(self, seed: int, apps: Optional[Sequence[str]] = None,
                 hits: int = HITS_PER_WINDOW) -> None:
        super().__init__(seed, apps)
        self.hits = hits

    def default_apps(self) -> List[str]:
        return list(SERVE_APPS)

    def prepare(self, work_dir: str, verdicts: Verdicts) -> None:
        self.work_dir = work_dir
        self.trace_dir = os.path.join(work_dir, "traces")
        self.snapshot = os.path.join(work_dir, "snapshot")
        self.uploads: Dict[str, _Upload] = {}
        for name in self.apps:
            with self.setup_step():
                # The store snapshot: every app's entry, as the daemon's
                # own staging path writes it.
                prepared = batch.prepare_app_analysis(
                    name, use_cache=True, cache_dir=self.snapshot,
                    trace_dir=self.trace_dir, seed=APP_SEED)
                report = prepared.autocheck.run()
                # The upload reference: a direct run without a module, as
                # the daemon analyses an uploaded trace.
                upload = pipeline.AutoCheck(
                    AutoCheckConfig(main_loop=prepared.spec, use_cache=False),
                    trace_path=prepared.trace_path)
                reference = upload.run()
                with open(prepared.trace_path, "rb") as handle:
                    body = handle.read()
            problems = report_problems(self.fleet[name], report,
                                       canonical_bytes(report), self.golden)
            verdicts.check(not problems, "set-up: " + "; ".join(problems))
            verdicts.check(
                upload.cache_key().key != prepared.autocheck.cache_key().key,
                f"set-up: the {name} upload would hit its app entry")
            self.uploads[name] = _Upload(
                body=body,
                reference_sha256=sha256(canonical_bytes(reference)),
                records=reference.trace_stats.record_count)
            del report, reference
            gc.collect()

    def measure(self, seconds: float, recorder) -> Measurement:
        """Whole windows, each against a fresh daemon over a fresh copy of
        the store snapshot, so every window does the same work.  The first
        warms the process up and is checked but not timed; then timed
        windows run until their wall time passes ``seconds``."""
        verdicts = Verdicts()
        rounds: List[List[Timing]] = []
        hits: List[_Sample] = []
        uploads: List[_Sample] = []
        counters: Dict[str, int] = {}
        key_to_app: Dict[str, str] = {}
        windows = ok_ops = 0
        while (windows < SERVE_WARMUP_WINDOWS + MIN_SERVE_WINDOWS
               or sum(t.wall for timings in rounds for t in timings)
               < seconds):
            warmup = windows < SERVE_WARMUP_WINDOWS
            window = self._serve_window(NullRecorder() if warmup
                                        else recorder)
            windows += 1
            ok = self._verify(window, verdicts)
            if warmup:
                continue
            ok_ops += ok
            rounds.append(window.timings)
            hits += window.hits
            uploads += window.uploads
            for name, value in window.counters.items():
                counters[name] = counters.get(name, 0) + value
            key_to_app.update((sample.key or "", sample.app)
                              for sample in window.hits + window.uploads)
        return self._measurement(ok_ops, hits, uploads, rounds, verdicts,
                                 counters, key_to_app)

    def _serve_window(self, recorder) -> _Window:
        live = tempfile.mkdtemp(prefix="live-store-", dir=self.work_dir)
        shutil.rmtree(live)
        shutil.copytree(self.snapshot, live)
        shutil.rmtree(os.path.join(self.trace_dir, "uploads"),
                      ignore_errors=True)
        gc.collect()
        server = AnalysisServer(host="127.0.0.1", port=0,
                                workers=SERVE_WORKERS, cache_dir=live,
                                trace_dir=self.trace_dir)
        server.start()
        try:
            before = _get_stats(server.host, server.port)
            window = self._window(server.host, server.port, recorder)
            after = _get_stats(server.host, server.port)
        finally:
            server.close(graceful=True, timeout=60.0)
        shutil.rmtree(live, ignore_errors=True)
        window.counters = serve_counter_delta(before, after)
        return window

    def _window(self, host: str, port: int, recorder) -> _Window:
        """Both schedules in rounds, one round per upload: in each, one
        connection sends its share of the window's warm hits while the
        other uploads one trace.  Each round is one timed section, so the
        reference chunks run between rounds, while the daemon idles.
        """
        window = _Window()

        def client(kind: str, conn: http.client.HTTPConnection, schedule,
                   sink: List[_Sample]) -> None:
            try:
                for name, path, body, content_type in schedule:
                    started = time.perf_counter()
                    with recorder.span(f"client.{kind}", app=name) as span:
                        status, cache, key, payload = _post(
                            conn, path, body, content_type)
                    took = time.perf_counter() - started
                    span.attrs["key"] = key
                    sink.append(_Sample(name, status, cache, key, took,
                                        sha256(payload)))
            except (OSError, http.client.HTTPException) as exc:
                window.errors.append(f"{kind} connection: "
                                     f"{type(exc).__name__}: {exc}")
                conn.close()

        # Hits come in rounds that each visit every app once, in a seeded
        # order: the app mix, and so the work per hit, is the same for
        # every seed.
        rng = random.Random(f"hits-{self.seed}")
        names: List[str] = []
        while len(names) < self.hits:
            names += rng.sample(self.apps, len(self.apps))
        hit_items = [(name, "/analyze", json.dumps({"app": name}).encode(),
                      "application/json") for name in names[:self.hits]]
        upload_items = []
        for name in seeded_order(self.apps, f"uploads-{self.seed}"):
            spec = self.fleet[name].spec
            upload_items.append(
                (name, f"/analyze?function={spec.function}"
                       f"&start={spec.start_line}&end={spec.end_line}",
                 self.uploads[name].body, "application/octet-stream"))

        hit_conn = http.client.HTTPConnection(host, port, timeout=60)
        upload_conn = http.client.HTTPConnection(host, port, timeout=60)
        rounds = len(upload_items)
        deadline = time.perf_counter() + MAX_SERVE_WINDOW_S
        try:
            for index, upload in enumerate(upload_items):
                share = hit_items[index * self.hits // rounds:
                                  (index + 1) * self.hits // rounds]
                threads = [
                    threading.Thread(target=client, name="hit-client",
                                     args=("hit", hit_conn, share,
                                           window.hits)),
                    threading.Thread(target=client, name="upload-client",
                                     args=("upload", upload_conn, [upload],
                                           window.uploads)),
                ]
                gc.collect()
                with self.meter.timed() as timing:
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(max(0.0, deadline - time.perf_counter()))
                window.timings.append(timing)
                stuck = [thread.name for thread in threads
                         if thread.is_alive()]
                if stuck:
                    window.errors.append(f"{', '.join(stuck)} did not "
                                         f"finish in {MAX_SERVE_WINDOW_S:g} s")
                    break
        finally:
            hit_conn.close()
            upload_conn.close()
        return window

    def _verify(self, window: _Window, verdicts: Verdicts) -> int:
        """Check every response of a window; returns the verified count."""
        for error in window.errors:
            verdicts.check(False, error)
        ok_ops = 0
        for sample in window.hits:
            want = self.golden.get(sample.app, {}).get("report_sha256")
            ok_ops += verdicts.check(
                sample.status == 200 and sample.cache == "hit"
                and sample.digest == want,
                f"hit {sample.app}: status {sample.status}, cache "
                f"{sample.cache}, body matches golden: "
                f"{sample.digest == want}")
        for sample in window.uploads:
            want = self.uploads[sample.app].reference_sha256
            ok_ops += verdicts.check(
                sample.status == 200 and sample.cache == "miss"
                and sample.digest == want,
                f"upload {sample.app}: status {sample.status}, cache "
                f"{sample.cache}, body matches the set-up reference: "
                f"{sample.digest == want}")
        verdicts.check(len(window.uploads) == len(self.apps),
                       f"{len(window.uploads)} of {len(self.apps)} uploads "
                       f"answered")
        return ok_ops

    def _measurement(self, ok_ops: int, hits: List[_Sample],
                     uploads: List[_Sample], rounds: List[List[Timing]],
                     verdicts: Verdicts, counters: Dict[str, int],
                     key_to_app: Dict[str, str]) -> Measurement:
        """Figures of the timed windows; ``rounds`` holds each window's
        round timings."""
        windows = len(rounds)
        total = sum((t for timings in rounds for t in timings), Timing())

        def window_time(clock: str) -> float:
            # Every window sends the same schedule, so its i-th round is
            # the i-th round of every other window: the per-round median
            # across windows votes out a burst of host noise.
            return sum(statistics.median(getattr(t, clock) for t in same)
                       for same in zip(*rounds))

        figures = []
        hit_latencies = [sample.seconds * 1000.0 for sample in hits]
        if hit_latencies:
            p95, above = percentile(hit_latencies, 0.95)
            figures += [
                ("hit_rps", len(hits) / total.wall, "1/s",
                 f"{len(hits)} hits in {total.wall:.2f} wall s over "
                 f"{windows} timed windows of {len(self.apps)} rounds"),
                ("hit_p50_ms", statistics.median(hit_latencies), "ms",
                 f"{len(hit_latencies)} samples"),
                ("hit_p95_ms", p95, "ms",
                 f"{len(hit_latencies)} samples, {above} above"),
            ]
        if uploads:
            records = sum(self.uploads[sample.app].records
                          for sample in uploads)
            figures += [
                ("miss_p50_ms",
                 statistics.median(s.seconds for s in uploads) * 1000.0,
                 "ms", f"{len(uploads)} samples"),
                ("miss_krec_per_s", records / 1000.0
                 / sum(s.seconds for s in uploads), "krec/s",
                 f"{records} uploaded records over upload latency"),
            ]
        return Measurement(ops=ok_ops, seconds=total.wall,
                           ops_per_ref_cpu_s=ok_ops / windows
                           / window_time("norm"),
                           ops_per_cpu_s=ok_ops / windows / window_time("cpu"),
                           verdicts=verdicts, figures=figures,
                           serve_counters=counters, key_to_app=key_to_app)

    def traced_lines(self, index: SpanIndex) -> List[str]:
        lines = []
        for kind in ("hit", "upload"):
            clients = index.named(f"client.{kind}")
            links = link_requests(index, f"client.{kind}")
            lines.append(f"{kind}s linked to server requests by "
                         f"X-Autocheck-Key: {len(links)}/{len(clients)}")
            if not links:
                continue
            client_ms = statistics.fmean(c.duration for c, _ in links) * 1e3
            server_ms = statistics.fmean(r.duration for _, r in links) * 1e3
            totals = self_by_name(index, (span for _, request in links
                                          for span in index.subtree(request)))
            lines.append(f"  mean client {client_ms:.2f} ms, server request "
                         f"{server_ms:.2f} ms; server self ms per request: "
                         f"{_per_request(totals, len(links))}")
            keys = {client.attrs.get("key") for client, _ in links}
            jobs = [job for job in index.named("serve.job")
                    if job.attrs.get("key") in keys]
            if jobs:
                totals = self_by_name(index, (span for job in jobs
                                              for span in index.subtree(job)))
                lines.append(f"  pool job self ms per request: "
                             f"{_per_request(totals, len(links))}")
        return lines


def _per_request(totals: Dict[str, float], requests: int) -> str:
    return ", ".join(f"{name} {seconds / requests * 1e3:.2f}"
                     for name, seconds in sorted(totals.items(),
                                                 key=lambda item: -item[1]))


# --------------------------------------------------------------------------- #
# campaign
# --------------------------------------------------------------------------- #
class Campaign(Workload):
    name = "campaign"
    setup_repeats = 3

    def __init__(self, seed: int, apps: Optional[Sequence[str]] = None,
                 trials: int = CAMPAIGN_TRIALS) -> None:
        super().__init__(seed, apps)
        self.trials = trials

    def default_apps(self) -> List[str]:
        return list(CAMPAIGN_APPS)

    def prepare(self, work_dir: str, verdicts: Verdicts) -> None:
        self.cache_dir = os.path.join(work_dir, "store")
        self.trace_dir = os.path.join(work_dir, "traces")
        for name in self.apps:
            with self.setup_step():
                report = batch.analyze_app_cached(
                    name, use_cache=True, cache_dir=self.cache_dir,
                    trace_dir=self.trace_dir, seed=APP_SEED)
            problems = report_problems(self.fleet[name], report,
                                       canonical_bytes(report), self.golden)
            verdicts.check(not problems, "set-up: " + "; ".join(problems))
            gc.collect()

    def measure(self, seconds: float, recorder) -> Measurement:
        """Whole campaigns of the slice, each one ``run_campaign`` call per
        app (its cells draw their kill schedules independently of the
        other apps, so the trials are those of one call over the slice).
        Per-app calls are short timed sections, which the host meter
        normalises far better than one long call."""
        verdicts = Verdicts()
        configs = {name: campaign_runner.CampaignConfig(
            apps=[name], content_policies=list(CONTENT_POLICIES),
            interval_policies=["every-k"], trials=self.trials,
            seed=self.seed, workers=1, use_cache=True,
            cache_dir=self.cache_dir, trace_dir=self.trace_dir,
            app_seed=APP_SEED) for name in self.apps}
        timings: Dict[str, List[Timing]] = {name: [] for name in self.apps}
        first_json: Dict[str, str] = {}
        elapsed = 0.0
        campaigns = ok_ops = trials = 0
        while campaigns < MIN_CAMPAIGNS or elapsed < seconds:
            for name in self.apps:
                with self.meter.timed() as timing:
                    report = campaign_runner.run_campaign(configs[name])
                timings[name].append(timing)
                elapsed += timing.wall
                text = report.to_json()
                for trial in report.trials:
                    ok_ops += verdicts.check(
                        trial.ok, f"trial {trial.app}/{trial.content}/"
                                  f"{trial.trial_index}: {trial.error}")
                trials += len(report.trials)
                verdicts.check(report.all_pass,
                               f"the {name} campaign reported a failure")
                if name not in first_json:
                    first_json[name] = text
                else:
                    verdicts.check(text == first_json[name],
                                   f"{name} campaign JSON differs for the "
                                   f"same seed")
                del report
                gc.collect()
            campaigns += 1
        # Every campaign of a run is the same plan, so the per-app median
        # time votes out a burst of host noise.
        per_campaign = trials // campaigns

        def slice_sum(clock: str) -> float:
            return sum(statistics.median(getattr(t, clock) for t in times)
                       for times in timings.values())

        campaign_norm = [sum(times[index].norm for times in timings.values())
                         for index in range(campaigns)]
        return Measurement(
            ops=ok_ops, seconds=elapsed,
            ops_per_ref_cpu_s=ok_ops / campaigns / slice_sum("norm"),
            ops_per_cpu_s=ok_ops / campaigns / slice_sum("cpu"),
            verdicts=verdicts,
            figures=[("trials_per_s", per_campaign / slice_sum("wall"),
                      "1/s",
                      f"{per_campaign} trials per campaign of "
                      f"{len(self.apps)} apps x {len(CONTENT_POLICIES)} "
                      f"policies x {self.trials} trials; per-app medians "
                      f"over {campaigns} campaigns of "
                      + ", ".join(f"{t:.3f}" for t in campaign_norm)
                      + " reference CPU s")])

    def traced_lines(self, index: SpanIndex) -> List[str]:
        totals = self_by_name(index, index.spans)
        return ["self seconds by span: " + ", ".join(
            f"{name} {seconds:.3f}" for name, seconds
            in sorted(totals.items(), key=lambda item: -item[1]))]


WORKLOADS = {cls.name: cls for cls in (ColdFleet, Reanalyze, ServeMixed,
                                       Campaign)}


# --------------------------------------------------------------------------- #
# One benchmark run
# --------------------------------------------------------------------------- #
@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    lines: List[str]

    def to_json(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _figure_lines(label: str, measurement: Measurement) -> List[str]:
    lines = [f"{label}: {measurement.ops} verified operations in "
             f"{measurement.seconds:.3f} wall s; "
             f"{measurement.ops_per_ref_cpu_s:.4f} per reference CPU "
             f"second, {measurement.ops_per_cpu_s:.4f} per raw CPU second"]
    for name, value, unit, note in measurement.figures:
        lines.append(f"  {name} = {value:.4f} {unit} ({note})")
    return lines


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        work_root: str, **options: Any) -> RunResult:
    """One benchmark run of ``workload_name`` under ``work_root``.

    Untraced runs report the end-to-end metrics; traced runs measure once
    untraced and once with spans on, and report the per-layer metrics plus
    the difference between the two (the tracing overhead).
    """
    workload = WORKLOADS[workload_name](seed, **options)
    verdicts = Verdicts()
    lines = [f"workload {workload_name}: {len(workload.apps)} apps, "
             f"seed {seed}, {seconds:g} s measured, traced {int(traced)}"]
    setups: List[Timing] = []
    for repeat in range(1 if traced else workload.setup_repeats):
        setup_dir = os.path.join(work_root, f"setup-{repeat}")
        if repeat:
            shutil.rmtree(os.path.join(work_root, f"setup-{repeat - 1}"))
        os.makedirs(setup_dir)
        workload.setup_steps = []
        workload.prepare(setup_dir, verdicts)
        setups.append(sum(workload.setup_steps, Timing()))
    lines.append("set-up seconds, reference CPU / raw CPU / wall: "
                 + "; ".join(f"{t.norm:.4f} / {t.cpu:.4f} / {t.wall:.4f}"
                             for t in setups))

    plain = workload.measure(seconds, NullRecorder())
    verdicts.merge(plain.verdicts)
    lines += _figure_lines("untraced", plain)
    if not traced:
        metrics = {
            "ops_per_ref_cpu_s": (plain.ops_per_ref_cpu_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "verified_ratio": (
                (verdicts.attempted - verdicts.failed) / verdicts.attempted
                if verdicts.attempted else 0.0, "ratio"),
            "setup_s": (statistics.median(t.norm for t in setups), "s"),
        }
    else:
        recorder = SpanRecorder()
        patches = install_probes(recorder)
        try:
            spanned = workload.measure(seconds, recorder)
        finally:
            patches.restore()
        verdicts.merge(spanned.verdicts)
        index = SpanIndex(recorder.spans)
        lines += _figure_lines("traced", spanned)
        lines.append(f"tracing overhead ({len(index.spans)} spans): "
                     + _overhead(plain, spanned))
        lines += workload.traced_lines(index)
        metrics = layer_metrics(index, fleet_names(), spanned.serve_counters,
                                spanned.key_to_app)
    if verdicts.problems:
        lines.append(f"{verdicts.failed} failed checks, first ones:")
        lines += [f"  {problem}" for problem in verdicts.problems[:20]]
    return RunResult(correct=verdicts.failed == 0 and verdicts.attempted > 0,
                     attempted=max(1, verdicts.attempted),
                     failed=verdicts.failed, metrics=metrics, lines=lines)


def _overhead(plain: Measurement, spanned: Measurement) -> str:
    pairs = [("ops_per_ref_cpu_s", plain.ops_per_ref_cpu_s,
              spanned.ops_per_ref_cpu_s)]
    traced_figures = {name: value for name, value, _, _ in spanned.figures}
    pairs += [(name, value, traced_figures[name])
              for name, value, _, _ in plain.figures
              if name in traced_figures]
    return ", ".join(
        f"{name} {traced - untraced:+.4f} "
        f"({(traced - untraced) / untraced * 100 if untraced else 0.0:+.1f}%)"
        for name, untraced, traced in pairs)
