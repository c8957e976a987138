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

import hashlib
import json
import os
import re
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
    config_fingerprint,
    load_manifest,
    report_from_json,
    report_to_json,
    run_batch,
)
from repro.store.serialize import canonical_report_json
from repro.trace import columnar
from repro.trace.binio import (
    BinaryTraceError,
    TraceDigestMismatch,
    encode_trace,
    read_layout,
)
from repro.trace.textio import read_trace_file
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
    # The Trace holds the bytes the interpreter emitted, undecoded.
    assert decode_counter["records"] == 0
    report = AutoCheck(_store_config(fleet, entry), trace=trace,
                       module=entry.module).run()
    assert report.cache_info.hit
    assert report == entry.report
    assert decode_counter["records"] == 0


# --------------------------------------------------------------------------- #
# Digests
# --------------------------------------------------------------------------- #
def _file_sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _version1_copy(source_path, target_path):
    """``source_path``'s bytes with the header version set to 1 (so the
    footer digest is not read)."""
    with open(source_path, "rb") as handle:
        data = bytearray(handle.read())
    data[4:6] = (1).to_bytes(2, "little")  # header version u16 -> 1
    with open(target_path, "wb") as handle:
        handle.write(data)


class TestDigests:
    def test_in_memory_digest_matches_binary_footer(self, fleet):
        entry = fleet.apps["example"]
        trace, _ = run_and_trace(entry.module, module_name="example")
        _, layout = encode_trace(trace.module_name, trace.globals,
                                 trace.records)
        assert (layout.content_digest
                == read_layout(entry.trace_path).content_digest)

    def test_text_digest_is_raw_file_hash(self, tmp_path, example_trace,
                                          example_spec):
        from repro.trace.textio import write_trace_file

        path = str(tmp_path / "t.trace")
        write_trace_file(example_trace, path)
        digest = AutoCheck(AutoCheckConfig(main_loop=example_spec),
                           trace_path=path).cache_key().trace_digest
        assert digest == _file_sha256(path)

    def test_version1_binary_falls_back_to_file_hash(self, tmp_path, fleet):
        """A v1 file (no footer digest) is read fine and digested by bytes."""
        entry = fleet.apps["example"]
        v1_path = str(tmp_path / "v1.btrace")
        _version1_copy(entry.trace_path, v1_path)
        layout = read_layout(v1_path)
        assert layout.content_digest is None
        assert layout.record_count == read_layout(entry.trace_path).record_count
        digest = AutoCheck(entry.config(),
                           trace_path=v1_path).cache_key().trace_digest
        assert digest == _file_sha256(v1_path)

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


#: ``AutoCheck.cache_key().key`` of ``example``'s default binary trace with
#: and without its module.
EXAMPLE_KEY_WITH_MODULE = (
    "73ca9a0338d34efc71ca3a3e738d321f3ba28c2462da92437593df006452e1b6")
EXAMPLE_KEY_WITHOUT_MODULE = (
    "6437938fce8af0bd8626126985cea85a084cf38b0ccad0366c3e01a216561ef0")


class TestPinnedStoreKeys:
    """Store keys are a persistent format: a change that re-keys them
    orphans every entry published before it, so the values are literals."""

    def test_binary_trace_with_module(self, fleet):
        entry = fleet.apps["example"]
        key = AutoCheck(entry.config(), trace_path=entry.trace_path,
                        module=entry.module).cache_key().key
        assert key == EXAMPLE_KEY_WITH_MODULE

    def test_binary_trace_without_module(self, fleet):
        entry = fleet.apps["example"]
        key = AutoCheck(entry.config(),
                        trace_path=entry.trace_path).cache_key().key
        assert key == EXAMPLE_KEY_WITHOUT_MODULE

    def test_in_memory_trace_shares_the_file_key(self, fleet, example_trace,
                                                 example_module):
        entry = fleet.apps["example"]
        key = AutoCheck(entry.config(), trace=example_trace,
                        module=example_module).cache_key().key
        assert key == EXAMPLE_KEY_WITH_MODULE


def test_published_entry_is_one_json_dumps(tmp_path, fleet):
    """An entry is a header line (one ``json.dumps``, the C encoder) and
    then the report's canonical bytes, which the header's ``report_sha256``
    hashes; it loads back equal."""
    entry = fleet.apps["example"]
    store = ArtifactStore(str(tmp_path / "cache"))
    key = "ab" + "1" * 62
    path = store.store(key, entry.report, trace_digest="d", fingerprint="f")
    with open(path, "rb") as handle:
        head, body = handle.read().split(b"\n")
    header = json.loads(head)
    assert head == json.dumps(header).encode()
    assert body == canonical_report_json(entry.report).encode()
    assert header["report_sha256"] == hashlib.sha256(body).hexdigest()
    assert store.load(key) == entry.report
    assert store.load_canonical(key) == body


def _flip_record_count(header, body):
    """A digit of the report line's record count changed: still JSON, and
    a different report."""
    match = re.search(rb'"record_count":([0-9])', body)
    digit = b"8" if match.group(1) == b"9" else b"9"
    return header, body[:match.start(1)] + digit + body[match.end(1):]


def _other_key(header, body):
    return dict(header, key="cd" + "0" * 62), body


def _other_schema(header, body):
    return dict(header, schema=header["schema"] + 1), body


#: Entry edits every read must refuse: a report line that no longer hashes
#: to its ``report_sha256``, and a header for another key or schema.
ENTRY_CORRUPTIONS = {
    "report digit": _flip_record_count,
    "header key": _other_key,
    "header schema": _other_schema,
}


class TestEntryChecks:
    """Every read checks its entry, so an entry that still parses but was
    changed on disk is a miss (and heals), never a wrong report."""

    @staticmethod
    def _published(tmp_path, example_trace, example_spec):
        config = AutoCheckConfig(main_loop=example_spec, use_cache=True,
                                 cache_dir=str(tmp_path / "cache"))
        cold = AutoCheck(config, trace=example_trace).run()
        return config, cold, ArtifactStore(config.cache_dir)

    @pytest.mark.parametrize("read", ["load", "load_canonical"])
    @pytest.mark.parametrize("corruption", sorted(ENTRY_CORRUPTIONS))
    def test_corrupt_entry_is_a_miss_and_unlinked(
            self, tmp_path, example_trace, example_spec, corruption, read):
        _, cold, store = self._published(tmp_path, example_trace,
                                         example_spec)
        path, key = cold.cache_info.path, cold.cache_info.key
        with open(path, "rb") as handle:
            head, body = handle.read().split(b"\n")
        header, body = ENTRY_CORRUPTIONS[corruption](json.loads(head), body)
        json.loads(body)  # still parses: only the entry's checks refuse it
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n" + body)

        with pytest.raises(StoreError) as excinfo:
            store.load_entry(path, key)
        assert path in str(excinfo.value)
        assert key in str(excinfo.value)
        assert getattr(store, read)(key) is None
        assert not os.path.exists(path)

    @pytest.mark.parametrize("line, read", [
        ("header", "load"), ("header", "load_canonical"), ("report", "load")])
    def test_deeply_nested_entry_is_a_miss_and_heals(
            self, tmp_path, example_trace, example_spec, line, read):
        """A header or report line nested deeper than the JSON parser goes
        is a corrupt entry.  The report line's digest is made to match, so
        only its parse refuses it (``load_canonical`` does not parse it)."""
        _, cold, store = self._published(tmp_path, example_trace,
                                         example_spec)
        path, key = cold.cache_info.path, cold.cache_info.key
        with open(path, "rb") as handle:
            head, body = handle.read().split(b"\n")
        nested = b"[" * 100000
        if line == "header":
            head = nested
        else:
            body = nested
            head = json.dumps(dict(
                json.loads(head),
                report_sha256=hashlib.sha256(body).hexdigest())).encode()
        with open(path, "wb") as handle:
            handle.write(head + b"\n" + body)

        with pytest.raises(StoreError) as excinfo:
            store.load_entry(path, key)
        assert path in str(excinfo.value)
        assert key in str(excinfo.value)
        assert getattr(store, read)(key) is None
        assert not os.path.exists(path)

    def test_single_document_entry_is_a_miss_and_heals(
            self, tmp_path, example_trace, example_spec):
        """An entry written before the two-line layout (one JSON document
        holding the whole report) is corrupt: one recompute heals it."""
        from repro.store import report_to_dict

        config, cold, store = self._published(tmp_path, example_trace,
                                              example_spec)
        path, key = cold.cache_info.path, cold.cache_info.key
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "key": key, "schema": 1, "trace_digest": "",
                "config_fingerprint": "", "created_at": time.time(),
                "report": report_to_dict(cold)}))
        with pytest.raises(StoreError, match="not a header line") as excinfo:
            store.load_entry(path, key)
        assert path in str(excinfo.value)

        healed = AutoCheck(config, trace=example_trace).run()
        assert not healed.cache_info.hit
        warm = AutoCheck(config, trace=example_trace).run()
        assert warm.cache_info.hit
        assert warm == healed

    @pytest.mark.parametrize("name", [
        "..x", "../" + "0" * 61, "AB" + "0" * 62, "0" * 63, "0" * 65])
    def test_a_name_that_is_not_a_key_names_no_entry(self, tmp_path, fleet,
                                                     name):
        """Reads miss without building a path, so a file outside
        ``objects/`` is neither read nor unlinked; a publish refuses."""
        store = ArtifactStore(str(tmp_path / "cache"))
        outside = os.path.join(store.root, "..x.json")
        # A store that holds entries has objects/, so objects/.. resolves.
        os.makedirs(os.path.join(store.root, "objects"))
        with open(outside, "w", encoding="utf-8") as handle:
            handle.write("not an entry")
        assert store.load(name) is None
        assert store.load_canonical(name) is None
        assert os.path.exists(outside)
        with pytest.raises(ValueError, match="not an artifact store key"):
            store.store(name, fleet.apps["example"].report)
        assert store.stats().entries == 0


# --------------------------------------------------------------------------- #
# A trace file changed after it was written
# --------------------------------------------------------------------------- #
def _tampered_copy(source_path, target_path):
    """``source_path`` with bit 0 of byte 25 (the first record's opcode)
    flipped and the footer kept."""
    with open(source_path, "rb") as handle:
        data = bytearray(handle.read())
    data[25] ^= 0x01
    with open(target_path, "wb") as handle:
        handle.write(data)


class TestTamperedTraceFile:
    def test_publishing_run_refuses_with_both_digests(self, tmp_path,
                                                      fleet):
        entry = fleet.apps["example"]
        path = str(tmp_path / "tampered.btrace")
        _tampered_copy(entry.trace_path, path)
        cache_dir = str(tmp_path / "cache")
        with pytest.raises(TraceDigestMismatch) as excinfo:
            AutoCheck(entry.config(use_cache=True, cache_dir=cache_dir),
                      trace_path=path, module=entry.module).run()
        error = excinfo.value
        assert isinstance(error, BinaryTraceError)
        assert error.path == path
        assert error.expected == read_layout(entry.trace_path).content_digest
        assert error.actual != error.expected
        assert path in str(error) and error.actual in str(error)
        assert ArtifactStore(cache_dir).stats().entries == 0

    def test_trace_read_from_the_file_is_refused_too(self, tmp_path,
                                                      fleet):
        """``read_trace_file`` keeps the file's footer digest, so a
        publishing walk of that Trace folds it over the bytes it walks."""
        entry = fleet.apps["example"]
        path = str(tmp_path / "tampered.btrace")
        _tampered_copy(entry.trace_path, path)
        cache_dir = str(tmp_path / "cache")
        trace = read_trace_file(path)
        genuine = read_layout(entry.trace_path).content_digest
        assert trace.encoded()[1] == genuine
        with pytest.raises(TraceDigestMismatch) as excinfo:
            AutoCheck(entry.config(use_cache=True, cache_dir=cache_dir),
                      trace=trace, module=entry.module).run()
        assert excinfo.value.expected == genuine
        assert ArtifactStore(cache_dir).stats().entries == 0

    def test_trace_read_from_the_file_is_refused_naming_it(self, tmp_path,
                                                           fleet):
        """The walk of a ``Trace`` read from a file names that file, not
        ``'<buffer>'``, and the refused report is not stored."""
        entry = fleet.apps["example"]
        path = str(tmp_path / "tampered.btrace")
        _tampered_copy(entry.trace_path, path)
        cache_dir = str(tmp_path / "cache")
        with pytest.raises(TraceDigestMismatch) as excinfo:
            AutoCheck(entry.config(use_cache=True, cache_dir=cache_dir),
                      trace=read_trace_file(path), module=entry.module).run()
        assert excinfo.value.path == path
        assert path in str(excinfo.value)
        assert ArtifactStore(cache_dir).stats().entries == 0

    def test_run_without_the_store_does_not_fold(self, tmp_path, fleet,
                                                 monkeypatch):
        """Only runs that publish hash the file: a ``use_cache=False``
        walk of the same file neither folds nor refuses."""
        entry = fleet.apps["example"]
        path = str(tmp_path / "tampered.btrace")
        _tampered_copy(entry.trace_path, path)
        folds = []
        monkeypatch.setattr(columnar._DigestFold, "add",
                            lambda self, start, data: folds.append(start))
        AutoCheck(entry.config(), trace_path=path, module=entry.module).run()
        assert folds == []


# --------------------------------------------------------------------------- #
# A trace file rewritten between its store key and its walk
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def rewritten_example_trace(example_source):
    """``example`` with ``r++;`` changed to ``r = 3;``: another report."""
    from repro.codegen.lowering import compile_source

    source = example_source.replace("r++;", "r = 3;")
    assert source != example_source
    trace, _ = run_and_trace(compile_source(source, module_name="example"),
                             module_name="example")
    return trace


def _file_bytes(trace, encoding, tmp_path):
    """The bytes of ``trace``'s file in ``encoding``: ``text``, or a
    ``version1`` binary file (no footer digest)."""
    from repro.trace.textio import write_trace_file

    path = str(tmp_path / f"staging.{encoding}")
    if encoding == "text":
        write_trace_file(trace, path)
    else:
        with open(path, "wb") as handle:
            handle.write(trace.encoded()[0])
        _version1_copy(path, path)
    with open(path, "rb") as handle:
        return handle.read()


def _rewrite_after_the_key(monkeypatch, path, data):
    """Wrap ``AutoCheck.cache_key`` so that once the first key has been
    computed, ``path`` is overwritten with ``data``."""
    real_cache_key = AutoCheck.cache_key
    rewrites = []

    def cache_key(self):
        address = real_cache_key(self)
        if not rewrites:
            with open(path, "wb") as handle:
                handle.write(data)
            rewrites.append(path)
        return address

    monkeypatch.setattr(AutoCheck, "cache_key", cache_key)
    return rewrites


@pytest.mark.parametrize("encoding", ["text", "version1"])
class TestRewrittenTraceFile:
    """A text or version-1 file is keyed by its raw bytes; its walk reads
    the file again.  A publishing walk must refuse bytes that are not the
    ones its key came from, or it would store the new content's report
    under the old content's key."""

    def test_run_refuses_naming_the_file_and_both_digests(
            self, tmp_path, monkeypatch, example_trace, example_spec,
            rewritten_example_trace, encoding):
        path = str(tmp_path / f"example.{encoding}")
        original = _file_bytes(example_trace, encoding, tmp_path)
        rewritten = _file_bytes(rewritten_example_trace, encoding, tmp_path)
        with open(path, "wb") as handle:
            handle.write(original)
        rewrites = _rewrite_after_the_key(monkeypatch, path, rewritten)
        cache_dir = str(tmp_path / "cache")
        config = AutoCheckConfig(main_loop=example_spec, use_cache=True,
                                 cache_dir=cache_dir)
        with pytest.raises(TraceDigestMismatch) as excinfo:
            AutoCheck(config, trace_path=path).run()
        assert rewrites == [path]
        error = excinfo.value
        assert error.path == path
        assert error.expected == hashlib.sha256(original).hexdigest()
        assert error.actual == hashlib.sha256(rewritten).hexdigest()
        message = str(error)
        assert path in message
        assert error.expected in message and error.actual in message
        assert ArtifactStore(cache_dir).stats().entries == 0

    def test_analyze_cache_exits_2_with_one_error_line(
            self, tmp_path, monkeypatch, capsys, example_trace,
            example_source, example_spec, rewritten_example_trace,
            encoding):
        from repro.cli import main

        path = str(tmp_path / f"example.{encoding}")
        with open(path, "wb") as handle:
            handle.write(_file_bytes(example_trace, encoding, tmp_path))
        _rewrite_after_the_key(
            monkeypatch, path,
            _file_bytes(rewritten_example_trace, encoding, tmp_path))
        source = str(tmp_path / "example.c")
        with open(source, "w", encoding="utf-8") as handle:
            handle.write(example_source)
        cache_dir = str(tmp_path / "cache")
        code = main(["analyze", path, "--source", source,
                     "--function", example_spec.function,
                     "--start", str(example_spec.start_line),
                     "--end", str(example_spec.end_line),
                     "--cache", "--cache-dir", cache_dir])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert path in err and "Traceback" not in err
        assert ArtifactStore(cache_dir).stats().entries == 0


def test_cold_cached_run_resolves_its_input_once(tmp_path, fleet,
                                                 monkeypatch, footer_parses):
    """The store key and the walk share one resolution of a version-2
    file: one footer parse and one static loop analysis per cold run."""
    from repro.analysis import induction

    entry = fleet.apps["example"]
    loops = []
    real_find_loops = induction.find_loops

    def find_loops(*args, **kwargs):
        loops.append(args)
        return real_find_loops(*args, **kwargs)

    monkeypatch.setattr(induction, "find_loops", find_loops)
    config = entry.config(use_cache=True, cache_dir=str(tmp_path / "cache"))
    report = AutoCheck(config, trace_path=entry.trace_path,
                       module=entry.module).run()
    assert not report.cache_info.hit
    assert canonical_report_json(report) == \
        canonical_report_json(entry.report)
    assert (footer_parses["count"], len(loops)) == (1, 1)


# --------------------------------------------------------------------------- #
# A Trace keeps the layout of its bytes: footer parses per route
# --------------------------------------------------------------------------- #
def _same_report(report, entry):
    return canonical_report_json(report) == canonical_report_json(entry.report)


def test_run_and_trace_then_run_makes_no_footer_parse(fleet, footer_parses):
    """The sink hands its writer's layout to the ``Trace``, and the walk
    streams over it."""
    entry = fleet.apps["example"]
    trace, _ = run_and_trace(entry.module, module_name="example")
    report = AutoCheck(entry.config(), trace=trace, module=entry.module).run()
    assert _same_report(report, entry)
    assert footer_parses["count"] == 0


def test_cold_cached_text_run_makes_no_footer_parse(tmp_path, fleet,
                                                   footer_parses):
    """A text file is keyed by its raw bytes and encoded once for the
    walk, which streams over the encoder's layout."""
    from repro.trace.textio import write_trace_file

    entry = fleet.apps["example"]
    path = str(tmp_path / "example.trace")
    write_trace_file(read_trace_file(entry.trace_path), path)
    footer_parses["count"] = 0
    config = entry.config(use_cache=True, cache_dir=str(tmp_path / "cache"))
    report = AutoCheck(config, trace_path=path, module=entry.module).run()
    assert not report.cache_info.hit and _same_report(report, entry)
    assert footer_parses["count"] == 0


def test_uncached_version1_run_makes_two_footer_parses(tmp_path, fleet,
                                                       footer_parses):
    """A version-1 file's footer is parsed for its key (it carries no
    digest) and once more when its bytes are read for the walk; the
    re-encode's layout serves the decode and the walk."""
    entry = fleet.apps["example"]
    path = str(tmp_path / "example.v1.btrace")
    _version1_copy(entry.trace_path, path)
    report = AutoCheck(entry.config(), trace_path=path,
                       module=entry.module).run()
    assert _same_report(report, entry)
    assert footer_parses["count"] == 2


def test_read_trace_file_then_records_makes_one_footer_parse(fleet,
                                                             footer_parses):
    """``read_trace_file`` parses a version-2 file's footer once; its
    records decode over that layout, and ``len`` reads its count."""
    entry = fleet.apps["example"]
    trace = read_trace_file(entry.trace_path)
    assert len(trace.records) == entry.report.trace_stats.record_count
    assert len(trace) == len(trace.records)
    assert footer_parses["count"] == 1


# --------------------------------------------------------------------------- #
# Staged app traces
# --------------------------------------------------------------------------- #
class TestAppTraceStaging:
    def test_changed_source_traces_again(self, tmp_path, monkeypatch):
        """A staged trace is named by the app's source too: after an edit
        that changes the program, the app is traced again and addresses a
        new entry."""
        from repro.apps.registry import get_app
        from repro.store.batch import prepare_app_analysis

        dirs = {"cache_dir": str(tmp_path / "cache"),
                "trace_dir": str(tmp_path / "traces")}
        before = prepare_app_analysis("example", **dirs)
        app = get_app("example")
        builder = app.source_builder
        assert "int r = 1;" in builder(**app.default_params)
        monkeypatch.setattr(
            app, "source_builder",
            lambda **params: builder(**params).replace("int r = 1;",
                                                       "int r = 2;"))
        after = prepare_app_analysis("example", **dirs)
        assert after.trace_path != before.trace_path
        assert (read_layout(after.trace_path).content_digest
                != read_layout(before.trace_path).content_digest)
        assert (after.autocheck.cache_key().key
                != before.autocheck.cache_key().key)


    def test_seed_free_app_is_traced_once(self, tmp_path):
        """example draws no random numbers: every seed stages the one
        trace file."""
        from repro.store.batch import prepare_app_analysis

        dirs = {"cache_dir": str(tmp_path / "cache"),
                "trace_dir": str(tmp_path / "traces")}
        first = prepare_app_analysis("example", seed=1, **dirs)
        second = prepare_app_analysis("example", seed=314159, **dirs)
        assert first.trace_path == second.trace_path
        assert os.listdir(dirs["trace_dir"]) == [
            os.path.basename(first.trace_path)]
        assert (first.autocheck.cache_key().key
                == second.autocheck.cache_key().key)

    def test_random_drawing_program_is_traced_per_seed(self, tmp_path):
        """A program that calls ``rand()`` gets one trace per seed."""
        from repro.codegen.lowering import compile_source
        from repro.store.batch import ensure_app_trace

        module = compile_source(
            "int main() {\n    int x = rand();\n    print(\"x\", x);\n"
            "    return 0;\n}\n", module_name="example")
        trace_dir = str(tmp_path / "traces")
        paths = {seed: ensure_app_trace(module, "example", {}, trace_dir,
                                        seed)
                 for seed in (1, 314159)}
        assert paths[1] != paths[314159]
        assert sorted(os.listdir(trace_dir)) == sorted(
            os.path.basename(path) for path in paths.values())
        assert (read_layout(paths[1]).content_digest
                != read_layout(paths[314159]).content_digest)


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

    @pytest.mark.parametrize("contents", [b"[" * 100000, b"\xff"],
                             ids=["nested", "not UTF-8"])
    def test_manifest_that_does_not_parse_names_the_file(self, tmp_path,
                                                         contents):
        bad = str(tmp_path / "bad.json")
        with open(bad, "wb") as handle:
            handle.write(contents)
        with pytest.raises(ManifestError, match="is not JSON") as excinfo:
            load_manifest(bad)
        assert bad in str(excinfo.value)


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
        with pytest.raises(BinaryTraceError, match="trunc.btrace"):
            read_trace_file(truncated)

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
        from repro.trace.textio import TraceFormatError

        path = str(tmp_path / "bad.trace")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("#,autocheck-trace,1,m\n")
            handle.write("g,x,not-hex,4,32,0\n")
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace_file(path)
        message = str(excinfo.value)
        assert "bad.trace:2:" in message
        assert "not-hex" in message


# --------------------------------------------------------------------------- #
# A hit decodes only what its caller reads
# --------------------------------------------------------------------------- #
#: Malformed DDG and R/W sections of an entry whose digest still matches.
MALFORMED_SECTIONS = {
    "nodes-not-a-list": ("complete_ddg", {"nodes": 5, "edges": []}),
    "unknown-node-kind": ("complete_ddg",
                          {"nodes": [["x", "bogus", "x"]], "edges": []}),
    "short-node": ("complete_ddg", {"nodes": [["x"]], "edges": []}),
    "edge-to-no-node": ("contracted_ddg", {"nodes": [], "edges": [["a", "b"]]}),
    "section-is-a-list": ("complete_ddg", []),
    "short-event-row": ("rw_sequence", {"loop_events": [[1, 2]],
                                        "post_loop_events": []}),
    "no-post-events": ("rw_sequence", {"loop_events": []}),
    "unknown-event-kind": ("rw_sequence", {
        "loop_events": [[1, "v", "v", "Peek", 3, "main", 0]],
        "post_loop_events": []}),
}


class TestLazyHit:
    APPS = ["example", "is"]

    @staticmethod
    def _spy(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return calls

    def test_warm_batch_decodes_no_ddg_and_no_rw_events(self, tmp_path,
                                                        monkeypatch):
        from repro.core.rwdeps import RWDependencies
        from repro.store import batch, serialize

        cache_dir = str(tmp_path / "cache")
        entries = [BatchEntry(app=name) for name in self.APPS]
        assert run_batch(entries, cache_dir=cache_dir).misses == 2
        ddgs = self._spy(monkeypatch, serialize, "_decode_ddg")
        rows = self._spy(monkeypatch, RWDependencies, "from_rows")
        warm = run_batch(entries, cache_dir=cache_dir)
        assert warm.all_ok and warm.hits == 2
        assert (len(ddgs), len(rows)) == (0, 0)

        store = ArtifactStore(cache_dir)
        for name in self.APPS:
            hit = batch.prepare_app_analysis(
                name, cache_dir=cache_dir).autocheck.run()
            assert hit.cache_info.hit
            reference = store.load_entry(hit.cache_info.path,
                                         hit.cache_info.key)
            assert hit.complete_ddg == reference.complete_ddg
            assert hit.contracted_ddg == reference.contracted_ddg
            assert hit.rw_sequence.rows() == reference.rw_sequence.rows()
            assert hit.rw_sequence.rows(post=True) \
                == reference.rw_sequence.rows(post=True)
            assert report_to_json(hit) == report_to_json(reference)
            assert hit == reference
        # The spies were live: the reads above decoded the sections.
        assert len(ddgs) >= 2 * len(self.APPS)
        assert len(rows) >= len(self.APPS)

    def test_concurrent_first_reads_see_equal_values(self, tmp_path,
                                                     example_trace,
                                                     example_spec):
        import threading

        config = AutoCheckConfig(main_loop=example_spec, use_cache=True,
                                 cache_dir=str(tmp_path / "cache"))
        cold = AutoCheck(config, trace=example_trace).run()
        hit = ArtifactStore(config.cache_dir).load(cold.cache_info.key)
        barrier = threading.Barrier(4)
        seen = []

        def read():
            barrier.wait()
            seen.append((hit.complete_ddg, hit.rw_sequence.rows()))

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 4
        for ddg, rows in seen:
            assert ddg == cold.complete_ddg
            assert rows == cold.rw_sequence.rows()

    @pytest.mark.parametrize("case", sorted(MALFORMED_SECTIONS))
    def test_malformed_section_raises_store_error_on_read(
            self, tmp_path, example_trace, example_spec, case):
        """An entry whose digest matches its body (forged, since every
        publish writes a report that decodes) but whose section does not
        decode is a hit; reading the section names the entry."""
        section, value = MALFORMED_SECTIONS[case]
        config = AutoCheckConfig(main_loop=example_spec, use_cache=True,
                                 cache_dir=str(tmp_path / "cache"))
        cold = AutoCheck(config, trace=example_trace).run()
        path, key = cold.cache_info.path, cold.cache_info.key
        with open(path, "rb") as handle:
            head, body = handle.read().split(b"\n")
        header, payload = json.loads(head), json.loads(body)
        payload[section] = value
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode()
        header["report_sha256"] = hashlib.sha256(body).hexdigest()
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n" + body)

        hit = ArtifactStore(config.cache_dir).load(key)
        assert hit is not None
        assert hit.names() == cold.names()
        with pytest.raises(StoreError) as excinfo:
            getattr(hit, section)
        message = str(excinfo.value)
        assert path in message and key in message and section in message
        with pytest.raises(StoreError, match="corrupt artifact store entry"):
            ArtifactStore(config.cache_dir).load_entry(path, key)
