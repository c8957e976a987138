"""Trace files stream into the walk: equivalence with in-memory traces.

An analysis never materializes a trace file as a :class:`Trace`: a
version-2 binary file streams from disk block by block, and any other file
streams its records into the in-memory encode the walk then reads.  The
streamed route must be observationally identical to analysing the same
execution held in memory — same regions, same MLI variables, same critical
variables and dependency labels — on the worked example and on every
registered benchmark (the acceptance bar for the paper's Table II
reproduction).
"""

from __future__ import annotations

import pytest

import repro.core.pipeline as pipeline_module
from repro.apps import all_apps
from repro.core import AutoCheck, AutoCheckConfig
from repro.store.serialize import canonical_report_json
from repro.trace import (
    read_trace_file,
    write_trace_file,
    write_trace_file_binary,
)
from repro.trace.columnar import TraceColumnarReader


@pytest.fixture(scope="module", params=["text", "binary"])
def example_trace_file(request, example_trace, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("stream") / f"ex.{request.param}")
    if request.param == "binary":
        write_trace_file_binary(example_trace, path)
    else:
        write_trace_file(example_trace, path)
    return path


@pytest.fixture()
def opened_readers(monkeypatch):
    """Record the byte source of every columnar reader the pipeline opens:
    ``(path, buffer-backed)``."""
    opened = []

    class RecordingReader(TraceColumnarReader):
        def __init__(self, path=None, layout=None, buffer=None, name=None):
            opened.append((path, buffer is not None))
            super().__init__(path, layout=layout, buffer=buffer, name=name)

    monkeypatch.setattr(pipeline_module, "TraceColumnarReader",
                        RecordingReader)
    return opened


class TestStreamingRegions:
    def test_variable_sets_match(self, example_trace_file, example_spec,
                                 example_module, example_walk):
        streamed = AutoCheck(AutoCheckConfig(main_loop=example_spec),
                             trace_path=example_trace_file,
                             module=example_module).walk()
        materialized = example_walk.mli.result()
        streaming = streamed.mli.result()
        assert streaming.mli_keys() == materialized.mli_keys()
        assert set(streaming.before_variables) == \
            set(materialized.before_variables)
        assert set(streaming.inside_variables) == \
            set(materialized.inside_variables)


class TestStreamingPipeline:
    def test_report_identical_on_example(self, example_trace_file,
                                         example_spec, example_report,
                                         opened_readers):
        streaming = AutoCheck(AutoCheckConfig(main_loop=example_spec),
                              trace_path=example_trace_file).run()
        # a binary file streams from disk; a text file streams its
        # records into the in-memory encode
        if example_trace_file.endswith(".binary"):
            assert opened_readers == [(example_trace_file, False)]
        else:
            assert opened_readers == [(None, True)]
        materialized = example_report
        assert streaming.mli_variable_names == materialized.mli_variable_names
        assert streaming.dependency_string() == materialized.dependency_string()
        assert streaming.induction_variable == materialized.induction_variable
        for attr in ("record_count", "before_count", "inside_count",
                     "after_count", "global_count"):
            assert getattr(streaming.trace_stats, attr) == \
                getattr(materialized.trace_stats, attr)

    def test_streaming_falls_back_for_in_memory_traces(self, example_trace,
                                                       example_spec,
                                                       example_report,
                                                       opened_readers):
        """An in-memory trace has no file to stream: it falls back to the
        in-memory encode, and the walk reads the encoded buffer."""
        report = AutoCheck(AutoCheckConfig(main_loop=example_spec),
                           trace=example_trace).run()
        assert opened_readers == [(None, True)]
        assert report.dependency_string() == example_report.dependency_string()


@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.name)
def test_streaming_report_identical_on_all_apps(app, fleet, tmp_path):
    """Acceptance: identical MLI variables, critical variables and dependency
    labels — indeed identical canonical reports — on every registered
    benchmark, whether the execution streams from its text trace file or
    from its binary one."""
    entry = fleet.apps[app.name]
    path = str(tmp_path / f"{app.name}.trace")
    write_trace_file(read_trace_file(entry.trace_path), path)

    streaming = AutoCheck(entry.config(), trace_path=path,
                          module=entry.module).run()
    reference = entry.report

    assert streaming.mli_variable_names == reference.mli_variable_names
    assert [(v.name, v.dependency) for v in streaming.critical_variables] == \
        [(v.name, v.dependency) for v in reference.critical_variables]
    assert streaming.dependency_string() == reference.dependency_string()
    assert streaming.induction_variable == reference.induction_variable
    assert canonical_report_json(streaming) == canonical_report_json(reference)
