"""Tests for the command line interface."""

import hashlib
import json
import os
import re

import pytest

from repro.cli import main
from repro.store import ArtifactStore
from repro.store.serialize import canonical_report_json
from repro.trace.binio import write_trace_file_binary
from repro.trace.textio import write_trace_file
from repro.tracer.driver import trace_to_file

from test_trace_binio import (
    FOOTER_LIES,
    STRING_ID_PAST_THE_TABLE,
    UNDECODABLE,
    lying_footer,
    string_id_past_the_table,
    undecodable_cases,
)
from test_trace_format import MALFORMED_TEXT, malformed_text

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "golden.json")


class TestCLI:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "himeno" in out
        assert "hacc" in out
        assert "x (WAR)" in out

    def test_app_command_matches_paper(self, capsys):
        assert main(["app", "himeno"]) == 0
        out = capsys.readouterr().out
        assert "WAR" in out and "Index" in out
        assert "matches" in out

    def test_analyze_command_on_trace_file(self, capsys, tmp_path,
                                           example_trace, example_spec):
        path = str(tmp_path / "example.trace")
        write_trace_file(example_trace, path)
        code = main(["analyze", path,
                     "--function", example_spec.function,
                     "--start", str(example_spec.start_line),
                     "--end", str(example_spec.end_line)])
        assert code == 0
        out = capsys.readouterr().out
        assert "r" in out and "WAR" in out

    def test_trace_command(self, capsys, tmp_path, example_source):
        source_path = str(tmp_path / "prog.mc")
        with open(source_path, "w", encoding="utf-8") as handle:
            handle.write(example_source)
        out_path = str(tmp_path / "prog.trace")
        assert main(["trace", source_path, "-o", out_path]) == 0
        assert os.path.getsize(out_path) > 0
        assert "sum 300" in capsys.readouterr().out

    def test_figure5_command(self, capsys):
        assert main(["figure5"]) == 0
        out = capsys.readouterr().out
        assert "Critical variables" in out
        assert "RAPO" in out

    def test_table2_subset(self, capsys):
        assert main(["table2", "--apps", "himeno"]) == 0
        out = capsys.readouterr().out
        assert "Himeno" in out and "p (WAR)" in out

    def test_table4_subset(self, capsys):
        assert main(["table4", "--apps", "himeno"]) == 0
        out = capsys.readouterr().out
        assert "BLCR" in out


class TestCacheCLI:
    def test_analyze_cache_cold_then_warm(self, capsys, tmp_path,
                                          example_trace, example_spec):
        path = str(tmp_path / "example.trace")
        write_trace_file(example_trace, path)
        cache_dir = str(tmp_path / "cache")
        argv = ["analyze", path,
                "--function", example_spec.function,
                "--start", str(example_spec.start_line),
                "--end", str(example_spec.end_line),
                "--cache", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Artifact cache: miss" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "Artifact cache: hit" in warm
        # --no-cache bypasses the store entirely.
        assert main(argv[:-3] + ["--no-cache"]) == 0
        assert "Artifact cache" not in capsys.readouterr().out

    def test_analyze_profile_prints_the_breakdown(self, capsys, tmp_path,
                                                  example_trace,
                                                  example_spec):
        """``--profile`` appends the run's stage table; the report lines
        before it are the ones a run without the flag prints (two warm
        runs print the same stored report)."""
        path = str(tmp_path / "example.btrace")
        write_trace_file_binary(example_trace, path)
        argv = ["analyze", path,
                "--function", example_spec.function,
                "--start", str(example_spec.start_line),
                "--end", str(example_spec.end_line),
                "--cache", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--profile"]) == 0
        profiled = capsys.readouterr().out
        assert profiled.startswith(plain)
        table = profiled[len(plain):]
        assert table.startswith("Profile (seconds per stage):")
        rows = {line.split("|")[1].strip(): line.split("|")[2].strip()
                for line in table.splitlines()[3:]}
        for stage in ("preprocessing", "fused_analysis",
                      "identify_variables", "walk.decode", "walk.scope",
                      "walk.resolve", "walk.mli", "walk.dependency",
                      "walk.rw", "total", "records", "krec/s"):
            assert stage in rows, stage
        assert int(rows["records"]) == len(example_trace.records)
        assert float(rows["krec/s"]) > 0
        assert float(rows["total"]) >= float(rows["fused_analysis"])

    def test_analyze_batch_and_gc(self, capsys, tmp_path):
        import json

        manifest = str(tmp_path / "manifest.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump([{"app": "example"}], handle)
        cache_dir = str(tmp_path / "cache")
        argv = ["analyze-batch", manifest, "--cache-dir", cache_dir,
                "--trace-dir", str(tmp_path / "traces")]
        assert main(argv) == 0
        assert "miss" in capsys.readouterr().out
        assert main(argv) == 0
        assert "hit" in capsys.readouterr().out

        assert main(["gc", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert main(["gc", "--cache-dir", cache_dir, "--clear",
                     "--dry-run"]) == 0
        assert "would evict 1" in capsys.readouterr().out
        assert main(["gc", "--cache-dir", cache_dir, "--clear"]) == 0
        assert "evicted 1" in capsys.readouterr().out

    def test_analyze_batch_reports_failures(self, capsys, tmp_path):
        import json

        manifest = str(tmp_path / "manifest.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump([{"app": "no-such-app"}], handle)
        assert main(["analyze-batch", manifest,
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace-dir", str(tmp_path / "traces")]) == 1
        assert "ERROR" in capsys.readouterr().out


class TestStaticCLI:
    def test_static_report_on_app(self, capsys):
        assert main(["static-report", "bigarray"]) == 0
        out = capsys.readouterr().out
        assert "static main loop" in out
        assert "static MLI candidates" in out
        assert "idom:" in out
        assert "live " in out

    def test_static_report_on_source_file(self, capsys, tmp_path,
                                          example_source):
        source_path = str(tmp_path / "prog.mc")
        with open(source_path, "w", encoding="utf-8") as handle:
            handle.write(example_source)
        assert main(["static-report", source_path]) == 0
        out = capsys.readouterr().out
        assert "static DDG" in out

    def test_static_report_unknown_target(self, capsys):
        assert main(["static-report", "no-such-thing"]) == 2
        assert "neither" in capsys.readouterr().err

    def test_app_static_check_passes(self, capsys):
        assert main(["app", "example", "--static-check"]) == 0
        out = capsys.readouterr().out
        assert "Static cross-check" in out and "ok" in out

    def test_analyze_static_check_needs_source(self, capsys, tmp_path,
                                               example_trace, example_spec):
        path = str(tmp_path / "example.trace")
        write_trace_file(example_trace, path)
        assert main(["analyze", path,
                     "--function", example_spec.function,
                     "--start", str(example_spec.start_line),
                     "--end", str(example_spec.end_line),
                     "--static-check"]) == 2
        assert "--source" in capsys.readouterr().err

    def test_analyze_static_check(self, capsys, tmp_path, example_source,
                                  example_trace, example_spec):
        trace_path = str(tmp_path / "example.trace")
        write_trace_file(example_trace, trace_path)
        source_path = str(tmp_path / "example.mc")
        with open(source_path, "w", encoding="utf-8") as handle:
            handle.write(example_source)
        assert main(["analyze", trace_path,
                     "--function", example_spec.function,
                     "--start", str(example_spec.start_line),
                     "--end", str(example_spec.end_line),
                     "--source", source_path,
                     "--static-check"]) == 0
        out = capsys.readouterr().out
        assert "Static cross-check: ok" in out


class TestBadInput:
    """``analyze`` and ``trace`` turn bad input into one ``error:`` line on
    stderr and exit 2 (1 is the failed-verdict status), never a
    traceback."""

    def _analyze(self, path, spec, *extra):
        return main(["analyze", path, "--function", spec.function,
                     "--start", str(spec.start_line),
                     "--end", str(spec.end_line), *extra])

    def _assert_error(self, capsys, code, fragment):
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert fragment in captured.err
        assert "Traceback" not in captured.err

    def test_missing_trace_file(self, capsys, tmp_path, example_spec):
        path = str(tmp_path / "missing.btrace")
        self._assert_error(capsys, self._analyze(path, example_spec),
                           "missing.btrace")

    def test_truncated_binary_trace(self, capsys, tmp_path, example_trace,
                                    example_spec):
        path = str(tmp_path / "cut.btrace")
        write_trace_file_binary(example_trace, path)
        with open(path, "rb") as handle:
            head = handle.read(3000)
        with open(path, "wb") as handle:
            handle.write(head)
        self._assert_error(capsys, self._analyze(path, example_spec),
                           "truncated")

    def test_garbage_line_in_text_trace(self, capsys, tmp_path,
                                        example_trace, example_spec):
        path = str(tmp_path / "bad.trace")
        write_trace_file(example_trace, path)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines.insert(3, "garbage line here\n")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        self._assert_error(capsys, self._analyze(path, example_spec),
                           "garbage line here")

    def test_loop_range_without_records(self, capsys, tmp_path,
                                        example_trace, example_spec):
        path = str(tmp_path / "example.btrace")
        write_trace_file_binary(example_trace, path)
        code = main(["analyze", path, "--function", example_spec.function,
                     "--start", "90", "--end", "95"])
        self._assert_error(capsys, code, "main computation loop range 90-95")

    def test_source_that_does_not_compile(self, capsys, tmp_path,
                                          example_trace, example_spec):
        source_path = str(tmp_path / "nomain.mc")
        with open(source_path, "w", encoding="utf-8") as handle:
            handle.write("int helper() { return 1; }\n")
        out_path = str(tmp_path / "nomain.btrace")
        code = main(["trace", source_path, "-o", out_path, "-f", "binary"])
        self._assert_error(capsys, code, "no 'main' function")
        assert not os.path.exists(out_path)
        # the same compile failure through analyze --source
        trace_path = str(tmp_path / "example.btrace")
        write_trace_file_binary(example_trace, trace_path)
        code = self._analyze(trace_path, example_spec, "--source",
                             source_path)
        self._assert_error(capsys, code, "no 'main' function")


class TestExitCodeConvention:
    """campaign and the experiment verbs agree on exit codes:
    0 = success, 1 = failed verdict, 2 = unknown app/policy."""

    def _campaign_args(self, tmp_path, *extra):
        return ["campaign", "--apps", "example", "--policies", "critical",
                "--intervals", "every-k", "--trials", "1",
                "--cache-dir", str(tmp_path / "cache"), *extra]

    def test_campaign_success_writes_out_file(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "campaign.json"
        args = self._campaign_args(tmp_path, "--trials", "2",
                                   "--out", str(out_path))
        assert main(args) == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads(out_path.read_text())
        assert report["schema"] == 1
        assert report["all_pass"] is True

    def test_campaign_unknown_app_is_2(self, capsys, tmp_path):
        assert main(["campaign", "--apps", "nosuchapp",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "nosuchapp" in capsys.readouterr().err

    def test_campaign_unknown_policy_is_2(self, capsys, tmp_path):
        assert main(["campaign", "--apps", "example",
                     "--policies", "everything",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "everything" in capsys.readouterr().err

    def test_campaign_failed_verdict_is_1(self, capsys, tmp_path,
                                          monkeypatch):
        # Force every trial to look non-equivalent: the campaign must report
        # the failure through the exit code, not a traceback.
        monkeypatch.setattr("repro.campaign.runner.outputs_equivalent",
                            lambda *args: False)
        assert main(self._campaign_args(tmp_path)) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_table_verb_unknown_app_is_2(self, capsys):
        assert main(["table2", "--apps", "nosuchapp"]) == 2
        assert "nosuchapp" in capsys.readouterr().err

    def test_validate_unknown_app_is_2(self, capsys):
        assert main(["validate", "--apps", "nosuchapp"]) == 2
        assert "nosuchapp" in capsys.readouterr().err

    def test_app_verb_unknown_app_is_2(self, capsys):
        assert main(["app", "nosuchapp"]) == 2
        assert "nosuchapp" in capsys.readouterr().err

    def test_validate_failed_verdict_is_1(self, capsys, monkeypatch):
        class _FailedOutcome:
            restart_successful = False

        class _EmptyNecessity:
            necessary = {}

        class _FakeValidator:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def validate(self, *args, **kwargs):
                return _FailedOutcome()

            def necessity_study(self, *args, **kwargs):
                return _EmptyNecessity()

        monkeypatch.setattr("repro.experiments.validation.RestartValidator",
                            _FakeValidator)
        assert main(["validate", "--apps", "example"]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestTamperedTraceCannotPoisonTheStore:
    """A binary trace changed after it was written keeps its footer, and so
    the genuine file's store key.  ``analyze --cache`` must refuse it
    rather than publish its report under that key."""

    def test_tampered_file_is_refused_and_genuine_file_misses(
            self, capsys, tmp_path, example_module, example_source,
            example_spec):
        genuine = str(tmp_path / "example.btrace")
        trace_to_file(example_module, genuine, module_name="example",
                      fmt="binary")
        tampered = str(tmp_path / "tampered.btrace")
        with open(genuine, "rb") as handle:
            data = bytearray(handle.read())
        data[25] ^= 0x01  # the first record's opcode; the footer is kept
        with open(tampered, "wb") as handle:
            handle.write(data)
        source = str(tmp_path / "example.c")
        with open(source, "w", encoding="utf-8") as handle:
            handle.write(example_source)
        cache_dir = str(tmp_path / "cache")

        def analyze(path):
            return main(["analyze", path, "--source", source,
                         "--function", example_spec.function,
                         "--start", str(example_spec.start_line),
                         "--end", str(example_spec.end_line),
                         "--cache", "--cache-dir", cache_dir])

        assert analyze(tampered) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "footer digest" in err and "Traceback" not in err
        store = ArtifactStore(cache_dir)
        assert store.stats().entries == 0

        assert analyze(genuine) == 0
        assert "miss" in capsys.readouterr().out
        [entry_path] = store._entry_paths()
        key = os.path.basename(entry_path)[:-len(".json")]
        report = store.load(key)
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)["apps"]["example"]
        canonical = canonical_report_json(report).encode()
        assert hashlib.sha256(canonical).hexdigest() \
            == golden["report_sha256"]


class TestLyingFooterIsRefused:
    """A footer whose record count or index stride lies is refused with one
    ``error:`` line naming the file (by the footer checks, or for a count
    they cannot catch by the walk's scan), never a traceback or a
    report."""

    @pytest.mark.parametrize("lie", sorted(FOOTER_LIES))
    def test_analyze_exits_2_naming_the_file(self, capsys, tmp_path,
                                             example_module, example_spec,
                                             lie):
        genuine = str(tmp_path / "example.btrace")
        trace_to_file(example_module, genuine, module_name="example",
                      fmt="binary")
        with open(genuine, "rb") as handle:
            data = handle.read()
        path = str(tmp_path / "lie.btrace")
        with open(path, "wb") as handle:
            handle.write(lying_footer(data, lie))
        code = main(["analyze", path, "--function", example_spec.function,
                     "--start", str(example_spec.start_line),
                     "--end", str(example_spec.end_line)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert path in err and "Traceback" not in err


class TestMalformedTextTraceNamesTheLine:
    """A malformed text trace line is one ``error:`` line naming
    ``path:line`` and exit 2, never a traceback."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_TEXT))
    def test_analyze_exits_2(self, capsys, tmp_path, example_trace,
                             example_spec, case):
        path = str(tmp_path / "bad.trace")
        write_trace_file(example_trace, path)
        number = malformed_text(path, case)
        code = main(["analyze", path, "--function", example_spec.function,
                     "--start", str(example_spec.start_line),
                     "--end", str(example_spec.end_line)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert f"{path}:{number}: " in err and "Traceback" not in err


class TestUndecodableFieldIsRefused:
    """A header, footer or trailer field that does not decode (a name
    that is not UTF-8, a footer that ends early, a footer offset past the
    file's end) is one ``error:`` line naming the file and the field, with
    or without ``--cache``."""

    @pytest.fixture(scope="class")
    def undecodable(self, example_module, tmp_path_factory):
        genuine = str(tmp_path_factory.mktemp("undecodable")
                      / "example.btrace")
        trace_to_file(example_module, genuine, module_name="example",
                      fmt="binary")
        with open(genuine, "rb") as handle:
            return undecodable_cases(handle.read())

    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    def test_analyze_exits_2(self, capsys, tmp_path, undecodable,
                             example_spec, case, cache):
        path = str(tmp_path / "bad.btrace")
        with open(path, "wb") as handle:
            handle.write(undecodable[case])
        extra = ["--cache", "--cache-dir", str(tmp_path / "cache")]
        code = main(["analyze", path, "--function", example_spec.function,
                     "--start", str(example_spec.start_line),
                     "--end", str(example_spec.end_line),
                     *(extra if cache else [])])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert path in err and "Traceback" not in err
        assert re.search(UNDECODABLE[case], err)


class TestStringIdPastTheTableIsRefused:
    """A record whose function, callee or operand-name id reaches past the
    string table is refused with one ``error:`` line naming the file and
    the record, with or without ``--cache``."""

    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("case", sorted(STRING_ID_PAST_THE_TABLE))
    def test_analyze_exits_2(self, capsys, tmp_path, example_module,
                             example_spec, case, cache):
        genuine = str(tmp_path / "example.btrace")
        trace_to_file(example_module, genuine, module_name="example",
                      fmt="binary")
        with open(genuine, "rb") as handle:
            data = handle.read()
        path = str(tmp_path / "ids.btrace")
        with open(path, "wb") as handle:
            handle.write(string_id_past_the_table(data, case, example_spec))
        extra = ["--cache", "--cache-dir", str(tmp_path / "cache")]
        code = main(["analyze", path, "--function", example_spec.function,
                     "--start", str(example_spec.start_line),
                     "--end", str(example_spec.end_line),
                     *(extra if cache else [])])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert path in err and "record " in err and "Traceback" not in err
