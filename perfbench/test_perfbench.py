"""Smoke tests of the fleet benchmark: ``python3 -m pytest perfbench -q``.

Each workload runs at a tiny size (one or two apps, a zero-length window,
which still completes one pass or two campaigns), traced and untraced;
the span self-time arithmetic is checked on hand-built spans; and the
correctness gate must fail when a reference is deliberately altered.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fleet  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from layers import ENGINE_APP_PREFIX  # noqa: E402
from spans import Span, SpanIndex, SpanRecorder, covered_seconds  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}

TINY = {
    "cold_fleet": {"apps": ["example", "is"]},
    "reanalyze": {"apps": ["example", "miniamr"]},
    "serve_mixed": {"apps": ["example", "miniamr"], "hits": 5},
    "campaign": {"apps": ["example"], "trials": 2},
}


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_the_union_of_children():
    parent = Span(1, "parent", start=0.0, end=10.0)
    children = [
        Span(2, "a", start=1.0, end=3.0, parent=1),
        Span(3, "b", start=2.0, end=5.0, parent=1),   # overlaps a
        Span(4, "c", start=7.0, end=8.0, parent=1),
        Span(5, "d", start=9.0, end=12.0, parent=1),  # runs past the parent
        Span(6, "e", start=2.5, end=2.7, parent=3),   # grandchild
    ]
    assert covered_seconds(parent, children[:4]) == pytest.approx(6.0)
    index = SpanIndex([parent] + children)
    assert index.self_time[1] == pytest.approx(4.0)
    assert index.self_time[3] == pytest.approx(2.8)
    assert index.self_time[6] == pytest.approx(0.2)
    # Self times of a tree whose siblings do not overlap (one thread's
    # spans never do) add up to the root's duration.
    tree = SpanIndex([Span(1, "root", start=0.0, end=4.0),
                      Span(2, "x", start=0.0, end=1.0, parent=1),
                      Span(3, "y", start=2.0, end=3.0, parent=1),
                      Span(4, "z", start=2.2, end=2.4, parent=3)])
    assert tree.self_sum(tree.subtree(tree.by_id[1])) == pytest.approx(4.0)


def _open_and_close(recorder: SpanRecorder, name: str) -> None:
    with recorder.span(name):
        pass


def test_recorder_tracks_parents_per_thread():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner", app="x"):
            pass
        worker = threading.Thread(target=_open_and_close,
                                  args=(recorder, "other"))
        worker.start()
        worker.join(10)
        assert not worker.is_alive()
    spans = {span.name: span for span in recorder.spans}
    assert spans["inner"].parent == spans["outer"].id
    assert spans["other"].parent is None  # another thread's root
    assert spans["outer"].parent is None
    assert spans["inner"].attrs == {"app": "x"}
    assert spans["outer"].duration >= spans["inner"].duration >= 0.0


# --------------------------------------------------------------------------- #
# Host-speed normalisation
# --------------------------------------------------------------------------- #
def test_host_meter_scales_by_the_bracketing_references(monkeypatch):
    references = iter([0.010, 0.030, 0.040])
    monkeypatch.setattr(hostspeed, "_reference_cpu",
                        lambda: next(references))
    clock = iter([1.0, 1.5, 2.0, 2.2])
    monkeypatch.setattr(hostspeed.time, "process_time", lambda: next(clock))
    meter = hostspeed.HostMeter()
    with meter.timed() as first:
        pass
    with meter.timed() as second:
        pass
    nominal = hostspeed.REFERENCE_NOMINAL_S
    # 0.5 CPU s between references of 0.010 and 0.030 s, then 0.2 CPU s
    # between 0.030 (shared with the first section) and 0.040 s.
    assert first.cpu == pytest.approx(0.5)
    assert first.norm == pytest.approx(0.5 * nominal / 0.020)
    assert second.norm == pytest.approx(0.2 * nominal / 0.035)
    assert (first + second).cpu == pytest.approx(0.7)


# --------------------------------------------------------------------------- #
# Workloads at a tiny size
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_untraced(name, tmp_path):
    result = workloads.run(name, seed=3, seconds=0.0, traced=False,
                           work_root=str(tmp_path), **TINY[name])
    assert result.correct, result.lines
    assert result.failed == 0 and result.attempted >= 1
    assert set(result.metrics) == END_TO_END
    assert all(value > 0 for value, _ in result.metrics.values())
    assert result.metrics["verified_ratio"][0] == 1.0
    payload = json.loads(result.to_json())
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_traced(name, tmp_path):
    result = workloads.run(name, seed=3, seconds=0.0, traced=True,
                           work_root=str(tmp_path), **TINY[name])
    assert result.correct, result.lines
    assert set(result.metrics) == PER_LAYER
    assert any(line.startswith("tracing overhead") for line in result.lines)
    values = {key: value for key, (value, _) in result.metrics.items()}
    if name in ("cold_fleet", "reanalyze"):
        assert values["engine.walk_s"] > 0
        assert values[ENGINE_APP_PREFIX + "example"] > 0
        assert any(line.startswith("fleet ") for line in result.lines)
    if name == "cold_fleet":
        assert values["tracer.records"] > 0 and values["binio.bytes"] > 0
    if name == "serve_mixed":
        assert values["serve.cache_hits"] >= 5
        assert values["serve.cache_misses"] == 2 * workloads.MIN_SERVE_WINDOWS
        assert any("linked to server requests" in line
                   for line in result.lines)
    if name == "campaign":
        assert values["checkpoint.writes"] > 0
        assert values["checkpoint.run_s"] > values["checkpoint.write_s"]


# --------------------------------------------------------------------------- #
# The gate must fail on an altered reference
# --------------------------------------------------------------------------- #
def test_gate_fails_on_altered_golden_digest(tmp_path, monkeypatch):
    golden = fleet.load_golden()
    altered = dict(golden)
    altered["example"] = dict(golden["example"], report_sha256="0" * 64)
    monkeypatch.setattr(workloads, "load_golden", lambda: altered)
    result = workloads.run("reanalyze", seed=3, seconds=0.0, traced=False,
                           work_root=str(tmp_path), apps=["example"])
    assert not result.correct
    assert result.failed >= 1
    assert result.metrics["verified_ratio"][0] < 1.0
    assert any("golden digest" in line for line in result.lines)


def test_gate_fails_on_altered_table_ii_row(tmp_path, monkeypatch):
    app = fleet.load_fleet(["example"])["example"].app
    monkeypatch.setitem(app.expected_critical, "r", "RAPO")
    result = workloads.run("reanalyze", seed=3, seconds=0.0, traced=False,
                           work_root=str(tmp_path), apps=["example"])
    assert not result.correct
    assert any("Table II" in line for line in result.lines)


def test_run_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
