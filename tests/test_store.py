"""The artifact store: serialization round-trip, digests, cache, batch, gc.

The two load-bearing guarantees, asserted here across every bundled app:

* **round trip** — ``report_from_json(report_to_json(r)) == r`` over the
  full report surface (critical variables, MLI set, DDG nodes+edges+kinds,
  R/W sequences, timings, trace stats);
* **warm = cold, for free** — a warm-cache ``analyze`` returns a report
  equal to the cold run's while performing *zero* trace-record decodes
  (the counting monkeypatches below intercept every decode path).
"""

from __future__ import annotations

import json
import os
import time

import pytest
from conftest import FLEET_NAMES

from repro.core.config import AutoCheckConfig
from repro.core.pipeline import AutoCheck
from repro.store import (
    ArtifactStore,
    BatchEntry,
    ManifestError,
    SerializationError,
    StoreError,
    artifact_key,
    compute_trace_digest,
    config_fingerprint,
    digest_file_bytes,
    load_manifest,
    report_from_json,
    report_to_json,
    run_batch,
)
from repro.trace.binio import BinaryTraceError, encode_trace, read_layout
from repro.tracer.driver import run_and_trace

#: Every bundled application: the 14 study benchmarks + example + bigarray.
ALL_APP_NAMES = FLEET_NAMES


# The ``decode_counter`` fixture (counting monkeypatch over every
# bytes-to-records decode path) lives in ``conftest.py`` — the serve
# daemon's black-box suite shares it for its single-engine-walk proof.


# The shared ``fleet`` fixture (conftest.py) traced every app to a binary
# file and analysed it cold through ``fleet.store_dir``.


def _store_config(fleet, entry, **overrides):
    """The config the fleet's cold runs published their entries under."""
    return entry.config(use_cache=True, cache_dir=fleet.store_dir,
                        **overrides)


# --------------------------------------------------------------------------- #
# Round trip
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ALL_APP_NAMES)
class TestRoundTrip:
    def test_report_round_trips_exactly(self, fleet, name):
        report = fleet.apps[name].report
        restored = report_from_json(report_to_json(report))
        assert restored == report

    def test_serialization_is_deterministic(self, fleet, name):
        report = fleet.apps[name].report
        assert report_to_json(report) == report_to_json(report)


class TestRoundTripSurface:
    """Spot-check that equality really covers the deep structures."""

    def test_ddg_edge_change_breaks_equality(self, fleet):
        report = fleet.apps["example"].report
        restored = report_from_json(report_to_json(report))
        edges = restored.complete_ddg.edges()
        assert edges, "example must produce a non-trivial DDG"
        parent, child = edges[0]
        restored.complete_ddg.remove_edge(parent, child)
        assert restored != report

    def test_rw_event_change_breaks_equality(self, fleet):
        report = fleet.apps["example"].report
        restored = report_from_json(report_to_json(report))
        assert restored.rw_sequence.loop_events, \
            "example must produce loop R/W events"
        restored.rw_sequence.loop_events.pop()
        assert restored != report

    def test_schema_mismatch_is_rejected(self, fleet):
        payload = json.loads(report_to_json(fleet.apps["example"].report))
        payload["schema"] = 999
        with pytest.raises(SerializationError, match="schema"):
            report_from_json(json.dumps(payload))

    def test_wrong_kind_is_rejected(self):
        with pytest.raises(SerializationError, match="kind"):
            report_from_json('{"kind": "something-else", "schema": 1}')

    def test_garbage_is_rejected(self):
        with pytest.raises(SerializationError):
            report_from_json("not json at all {")


# --------------------------------------------------------------------------- #
# Warm cache: equal report, zero record decodes — on every bundled app
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ALL_APP_NAMES)
def test_warm_analyze_equals_cold_with_zero_decodes(fleet, name,
                                                    decode_counter):
    entry = fleet.apps[name]
    warm = AutoCheck(_store_config(fleet, entry), trace_path=entry.trace_path,
                     module=entry.module).run()
    assert warm.cache_info is not None and warm.cache_info.hit
    assert warm == entry.report
    assert decode_counter["records"] == 0


def test_warm_analyze_on_text_trace_decodes_nothing(tmp_path, example_trace,
                                                    example_spec,
                                                    decode_counter):
    """Text traces digest by raw bytes — warm runs never parse a line."""
    from repro.trace.textio import write_trace_file

    path = str(tmp_path / "example.trace")
    write_trace_file(example_trace, path)
    config = AutoCheckConfig(main_loop=example_spec, use_cache=True,
                             cache_dir=str(tmp_path / "cache"))
    cold = AutoCheck(config, trace_path=path).run()
    assert decode_counter["records"] > 0
    decode_counter["records"] = 0
    warm = AutoCheck(config, trace_path=path).run()
    assert warm.cache_info.hit
    assert warm == cold
    assert decode_counter["records"] == 0


def test_in_memory_trace_shares_entries_with_file_runs(fleet, decode_counter):
    """An in-memory analysis of the same trace hits the file run's entry."""
    entry = fleet.apps["example"]
    trace, _ = run_and_trace(entry.module, module_name="example")
    report = AutoCheck(_store_config(fleet, entry), trace=trace,
                       module=entry.module).run()
    assert report.cache_info.hit
    assert report == entry.report
    assert decode_counter["records"] == 0


# --------------------------------------------------------------------------- #
# Digests
# --------------------------------------------------------------------------- #
class TestDigests:
    def test_in_memory_digest_matches_binary_footer(self, fleet):
        entry = fleet.apps["example"]
        trace, _ = run_and_trace(entry.module, module_name="example")
        _, digest = encode_trace(trace.module_name, trace.globals,
                                 trace.records)
        assert digest == read_layout(entry.trace_path).content_digest

    def test_text_digest_is_raw_file_hash(self, tmp_path, example_trace):
        from repro.trace.textio import write_trace_file

        path = str(tmp_path / "t.trace")
        write_trace_file(example_trace, path)
        assert compute_trace_digest(path) == digest_file_bytes(path)

    def test_version1_binary_falls_back_to_file_hash(self, tmp_path, fleet):
        """A v1 file (no footer digest) is read fine and digested by bytes."""
        entry = fleet.apps["example"]
        with open(entry.trace_path, "rb") as handle:
            data = bytearray(handle.read())
        data[4:6] = (1).to_bytes(2, "little")  # header version u16 -> 1
        v1_path = str(tmp_path / "v1.btrace")
        with open(v1_path, "wb") as handle:
            handle.write(data)
        layout = read_layout(v1_path)
        assert layout.content_digest is None
        assert layout.record_count == read_layout(entry.trace_path).record_count
        assert compute_trace_digest(v1_path) == digest_file_bytes(v1_path)

    def test_digest_changes_with_content(self, fleet):
        a = fleet.apps["example"]
        b = fleet.apps["mg"]
        assert read_layout(a.trace_path).content_digest != \
            read_layout(b.trace_path).content_digest


# --------------------------------------------------------------------------- #
# Cache semantics
# --------------------------------------------------------------------------- #
class TestCacheSemantics:
    def test_different_fingerprint_misses(self, fleet, decode_counter):
        """Changing a semantic config field addresses a different entry."""
        entry = fleet.apps["example"]
        config = AutoCheckConfig(
            main_loop=entry.spec, use_cache=True,
            cache_dir=fleet.store_dir,
            include_global_accesses_in_calls=True)
        report = AutoCheck(config, trace_path=entry.trace_path,
                           module=entry.module).run()
        assert not report.cache_info.hit
        assert decode_counter["records"] > 0

    def test_progress_callback_shares_the_entry(self, fleet,
                                                decode_counter):
        """Per-run plumbing is not in the fingerprint: a run with a
        progress callback hits the plain run's entry."""
        entry = fleet.apps["example"]
        config = _store_config(fleet, entry,
                               progress_callback=lambda records: None)
        report = AutoCheck(config, trace_path=entry.trace_path,
                           module=entry.module).run()
        assert report.cache_info.hit
        assert report == entry.report
        assert decode_counter["records"] == 0

    def test_corrupted_entry_is_a_miss_and_self_heals(self, tmp_path,
                                                      example_trace,
                                                      example_spec):
        cache_dir = str(tmp_path / "cache")
        config = AutoCheckConfig(main_loop=example_spec, use_cache=True,
                                 cache_dir=cache_dir)
        cold = AutoCheck(config, trace=example_trace).run()
        entry_path = cold.cache_info.path
        assert os.path.exists(entry_path)
        with open(entry_path, "w", encoding="utf-8") as handle:
            handle.write("{ corrupted")
        healed = AutoCheck(config, trace=example_trace).run()
        assert not healed.cache_info.hit
        # Recomputed, so timings differ; everything else must match.
        from repro.store import report_to_dict

        healed_dict, cold_dict = report_to_dict(healed), report_to_dict(cold)
        healed_dict.pop("timings"), cold_dict.pop("timings")
        assert healed_dict == cold_dict
        # The rewrite healed the slot: next run hits again.
        warm = AutoCheck(config, trace=example_trace).run()
        assert warm.cache_info.hit
        assert warm == healed

    def test_strict_load_of_corrupt_entry_names_path_and_key(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        key = "ab" + "0" * 62
        path = store.entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage")
        with pytest.raises(StoreError) as excinfo:
            store.load_entry(path, key)
        message = str(excinfo.value)
        assert path in message
        assert key in message

    def test_missing_entry_load_is_none(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        assert store.load("ff" + "0" * 62) is None

    def test_artifact_key_components(self):
        base = artifact_key("d1", "f1", 1)
        assert artifact_key("d2", "f1", 1) != base
        assert artifact_key("d1", "f2", 1) != base
        assert artifact_key("d1", "f1", 2) != base

    def test_fingerprint_tracks_static_induction(self, example_spec):
        config = AutoCheckConfig(main_loop=example_spec)
        assert config_fingerprint(config, static_induction="it") != \
            config_fingerprint(config, static_induction=None)


# --------------------------------------------------------------------------- #
# Garbage collection
# --------------------------------------------------------------------------- #
class TestGC:
    def _populate(self, tmp_path, count=4):
        store = ArtifactStore(str(tmp_path / "cache"))
        # Entries need not be real reports for gc (it never deserializes);
        # distinct mtimes define the eviction order.
        now = time.time()
        for index in range(count):
            key = f"{index:02x}" + "0" * 62
            path = store.entry_path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("x" * 100)
            os.utime(path, (now - 1000 + index, now - 1000 + index))
        return store

    def test_max_entries_evicts_oldest_first(self, tmp_path):
        store = self._populate(tmp_path)
        result = store.gc(max_entries=2)
        assert result.evicted == 2 and result.kept == 2
        remaining = store.stats()
        assert remaining.entries == 2
        # The two oldest (smallest mtime) are the ones gone.
        assert not os.path.exists(store.entry_path("00" + "0" * 62))
        assert os.path.exists(store.entry_path("03" + "0" * 62))

    def test_max_age_evicts_only_old_entries(self, tmp_path):
        store = self._populate(tmp_path)
        fresh_key = "aa" + "0" * 62
        path = store.entry_path(fresh_key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("x")
        result = store.gc(max_age_seconds=500.0)
        assert result.evicted == 4 and result.kept == 1
        assert os.path.exists(path)

    def test_max_bytes_keeps_newest(self, tmp_path):
        store = self._populate(tmp_path)
        result = store.gc(max_bytes=250)
        assert result.kept == 2 and result.evicted == 2

    def test_dry_run_removes_nothing(self, tmp_path):
        store = self._populate(tmp_path)
        result = store.gc(clear=True, dry_run=True)
        assert result.evicted == 4
        assert store.stats().entries == 4

    def test_clear(self, tmp_path):
        store = self._populate(tmp_path)
        store.gc(clear=True)
        assert store.stats().entries == 0

    def test_no_limits_is_inventory_only(self, tmp_path):
        store = self._populate(tmp_path)
        result = store.gc()
        assert result.evicted == 0 and result.kept == 4

    def test_load_hit_refreshes_eviction_order(self, tmp_path,
                                               example_trace, example_spec):
        """Eviction is LRU: a hit entry outlives never-read newer ones."""
        cache_dir = str(tmp_path / "cache")
        config = AutoCheckConfig(main_loop=example_spec, use_cache=True,
                                 cache_dir=cache_dir)
        hot = AutoCheck(config, trace=example_trace).run()
        store = ArtifactStore(cache_dir)
        now = time.time()
        os.utime(hot.cache_info.path, (now - 1000, now - 1000))
        cold_key = "cd" + "0" * 62
        cold_path = store.entry_path(cold_key)
        os.makedirs(os.path.dirname(cold_path), exist_ok=True)
        with open(cold_path, "w", encoding="utf-8") as handle:
            handle.write("x")
        os.utime(cold_path, (now - 500, now - 500))
        # Without the hit, the hot entry is the older one and would go.
        assert AutoCheck(config, trace=example_trace).run().cache_info.hit
        result = store.gc(max_entries=1)
        assert result.evicted == 1
        assert os.path.exists(hot.cache_info.path)
        assert not os.path.exists(cold_path)


# --------------------------------------------------------------------------- #
# Batch frontend
# --------------------------------------------------------------------------- #
class TestBatch:
    def _manifest(self, tmp_path):
        manifest = {
            "trace_dir": "traces",
            "entries": [
                {"app": "example"},
                {"app": "mg", "params": {"n": 24, "iters": 5}},
            ],
        }
        path = str(tmp_path / "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        return path

    def test_cold_then_warm(self, tmp_path):
        path = self._manifest(tmp_path)
        cache_dir = str(tmp_path / "cache")
        cold = run_batch(path, workers=1, cache_dir=cache_dir)
        assert cold.all_ok and cold.misses == 2 and cold.hits == 0
        warm = run_batch(path, workers=1, cache_dir=cache_dir)
        assert warm.all_ok and warm.hits == 2 and warm.misses == 0
        assert "hit" in warm.summary()
        # Traces were generated once, into the manifest-relative dir.
        assert os.path.isdir(str(tmp_path / "traces"))

    def test_process_pool_warm_run(self, tmp_path):
        path = self._manifest(tmp_path)
        cache_dir = str(tmp_path / "cache")
        run_batch(path, workers=1, cache_dir=cache_dir)
        pooled = run_batch(path, workers=2, cache_dir=cache_dir)
        assert pooled.all_ok and pooled.hits == 2

    def test_trace_entry(self, tmp_path, example_trace, example_spec):
        from repro.trace import write_trace_file_binary

        trace_path = str(tmp_path / "ex.btrace")
        write_trace_file_binary(example_trace, trace_path)
        entry = BatchEntry(trace=trace_path,
                           function=example_spec.function,
                           start=example_spec.start_line,
                           end=example_spec.end_line)
        result = run_batch([entry], cache_dir=str(tmp_path / "cache"))
        assert result.all_ok and result.misses == 1
        assert any("WAR" in item for item in result.items[0].critical)

    def test_failures_are_isolated(self, tmp_path):
        entries = [BatchEntry(app="example"),
                   BatchEntry(app="no-such-app")]
        result = run_batch(entries, cache_dir=str(tmp_path / "cache"),
                           trace_dir=str(tmp_path / "traces"))
        assert not result.all_ok
        assert result.failures == 1
        ok = {item.name: item.ok for item in result.items}
        assert ok == {"example": True, "no-such-app": False}
        assert result.items[1].error

    def test_manifest_trace_paths_resolve_against_manifest_dir(
            self, tmp_path, example_trace, example_spec, monkeypatch):
        """A manifest with relative trace paths works from any cwd."""
        from repro.trace import write_trace_file_binary

        project = tmp_path / "project"
        project.mkdir()
        write_trace_file_binary(example_trace, str(project / "run.btrace"))
        manifest = str(project / "manifest.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump([{"trace": "run.btrace",
                        "function": example_spec.function,
                        "start": example_spec.start_line,
                        "end": example_spec.end_line}], handle)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        entries, _ = load_manifest(manifest)
        assert entries[0].trace == str(project / "run.btrace")
        result = run_batch(manifest, cache_dir=str(tmp_path / "cache"))
        assert result.all_ok

    def test_corrupt_reused_trace_self_heals(self, tmp_path):
        """A truncated leftover under the reuse name is regenerated, not
        reused forever."""
        from repro.store import app_trace_path

        trace_dir = str(tmp_path / "traces")
        os.makedirs(trace_dir)
        stale = app_trace_path(trace_dir, "example")
        with open(stale, "wb") as handle:
            handle.write(b"ACTB garbage truncated")
        result = run_batch([BatchEntry(app="example")],
                           cache_dir=str(tmp_path / "cache"),
                           trace_dir=trace_dir)
        assert result.all_ok
        from repro.trace.binio import read_layout

        assert read_layout(stale).record_count > 0

    def test_manifest_validation(self, tmp_path):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write('[{"app": "x", "trace": "y"}]')
        with pytest.raises(ManifestError, match="exactly one"):
            load_manifest(bad)
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write('[{"trace": "y.trace"}]')
        with pytest.raises(ManifestError, match="start"):
            load_manifest(bad)
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("[]")
        with pytest.raises(ManifestError, match="no entries"):
            load_manifest(bad)
        with pytest.raises(ManifestError, match="cannot read"):
            load_manifest(str(tmp_path / "missing.json"))


# --------------------------------------------------------------------------- #
# Error context: open failures name the offending file (and digest/key)
# --------------------------------------------------------------------------- #
class TestErrorContext:
    def test_truncated_binary_trace_names_the_file(self, tmp_path, fleet):
        source = fleet.apps["example"].trace_path
        with open(source, "rb") as handle:
            data = handle.read()
        truncated = str(tmp_path / "trunc.btrace")
        with open(truncated, "wb") as handle:
            handle.write(data[:len(data) // 2])
        from repro.trace.textio import read_preamble

        with pytest.raises(BinaryTraceError, match="trunc.btrace"):
            read_preamble(truncated)

    def test_version_skew_names_the_file(self, tmp_path, fleet):
        source = fleet.apps["example"].trace_path
        with open(source, "rb") as handle:
            data = bytearray(handle.read())
        data[4:6] = (77).to_bytes(2, "little")
        skewed = str(tmp_path / "skew.btrace")
        with open(skewed, "wb") as handle:
            handle.write(data)
        with pytest.raises(BinaryTraceError) as excinfo:
            read_layout(skewed)
        assert "skew.btrace" in str(excinfo.value)
        assert "version 77" in str(excinfo.value)

    def test_malformed_text_preamble_names_file_and_line(self, tmp_path):
        from repro.trace.textio import TraceFormatError, read_preamble

        path = str(tmp_path / "bad.trace")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("#,autocheck-trace,1,m\n")
            handle.write("g,x,not-hex,4,32,0\n")
        with pytest.raises(TraceFormatError) as excinfo:
            read_preamble(path)
        message = str(excinfo.value)
        assert "bad.trace" in message
        assert "not-hex" in message
