"""Trace emission: pinned bytes on the corners the fleet never reaches,
atomic trace files, and execute-only runs equal to traced ones.

The bundled fleet exercises no operand outside int64 and few parameter
bindings.  ``CORNER_PROGRAM`` reaches them (int64 overflow, float arrays
passed by pointer, recursion, builtins with results, ``print`` and void
returns); its trace bytes in both formats and the digest of its in-memory
trace are pinned to values measured before the interpreter emitted
records through templates.
"""

from __future__ import annotations

import hashlib
import os

import pytest
from conftest import FLEET_NAMES

from repro.trace.binio import check_content_digest, encode_trace, read_layout
from repro.trace.records import Trace
from repro.tracer import InterpreterError, compile_and_run
from repro.tracer.driver import run_and_trace, trace_to_file

CORNER_PROGRAM = """\
double grid[6];
int acc;

void scale(double *v, int n, double f) {
    for (int i = 0; i < n; ++i) {
        v[i] = v[i] * f;
    }
    return;
}

int fact(int n) {
    if (n <= 1) {
        return 1;
    }
    return n * fact(n - 1);
}

void report(double *v, int n) {
    double s = 0.0;
    for (int i = 0; i < n; ++i) {
        s = s + sqrt(fabs(v[i]));
    }
    print("norm", s);
}

int main() {
    double local[4];
    int x = 7;
    acc = 0;
    for (int i = 0; i < 4; ++i) {
        local[i] = pow(1.5, i) + randf();
    }
    for (int i = 0; i < 6; ++i) {
        grid[i] = i * 0.5;
    }
    for (int it = 0; it < 12; ++it) {
        x = x * 1000003;
        acc = acc + x;
        scale(local, 4, 1.25);
        scale(grid, 6, 0.75);
    }
    report(local, 4);
    report(grid, 6);
    print("fact", fact(6), "x", x);
    print("acc", acc);
    return 0;
}
"""

CORNER_RECORDS = 3307
#: footer content digest of the binary trace (and of its in-memory trace
#: encoded by ``encode_trace``)
CORNER_DIGEST = \
    "99115c9fd7e7d3e983352eeaff2a47bfbb5b6ac637555d69e56e5c9d0217b814"
#: SHA-256 of the whole binary file, footer string table included (and
#: its block index: re-pinned for the 64-record index stride)
CORNER_BINARY_SHA256 = \
    "594b548c1de72917c75fa8397888c7cd7b8a27499d5c86a8f64845f5e45dfdca"
CORNER_TEXT_SHA256 = \
    "dfb1dfdca8a92b5edba6c02188b3d897b30334c58210927dcbdb80aea3d48b58"


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.fixture(scope="module")
def corner_trace():
    trace, result = run_and_trace(CORNER_PROGRAM, module_name="corner")
    assert not result.failed
    return trace


class TestCornerProgram:
    def test_reaches_the_corners(self, corner_trace):
        operands = [operand for record in corner_trace.records
                    for operand in record.operands
                    + ([record.result] if record.result else [])]
        big = [op for op in operands if isinstance(op.value, int)
               and not -2 ** 63 <= op.value < 2 ** 63]
        params = [op for op in operands if op.is_parameter]
        float_pointer_args = [
            op for record in corner_trace.records
            if record.is_call and record.callee in ("scale", "report")
            for op in record.argument_operands() if op.address is not None]
        callees = {record.callee for record in corner_trace.records
                   if record.is_call}
        assert len(big) > 100
        assert len(params) > 50
        assert float_pointer_args
        assert {"fact", "sqrt", "fabs", "pow", "randf", "print"} <= callees
        assert any(record.opcode_name == "Ret" and not record.operands
                   for record in corner_trace.records)

    def test_binary_trace_bytes(self, tmp_path):
        path = str(tmp_path / "corner.btrace")
        trace_to_file(CORNER_PROGRAM, path, module_name="corner",
                      fmt="binary")
        layout = read_layout(path)
        assert layout.record_count == CORNER_RECORDS
        assert layout.content_digest == CORNER_DIGEST
        assert _sha256(path) == CORNER_BINARY_SHA256

    def test_text_trace_bytes(self, tmp_path):
        path = str(tmp_path / "corner.trace")
        trace_to_file(CORNER_PROGRAM, path, module_name="corner", fmt="text")
        assert _sha256(path) == CORNER_TEXT_SHA256

    def test_in_memory_trace_encodes_to_the_pinned_digest(self,
                                                          corner_trace):
        assert len(corner_trace.records) == CORNER_RECORDS
        _, layout = encode_trace(corner_trace.module_name,
                                 corner_trace.globals, corner_trace.records)
        assert layout.content_digest == CORNER_DIGEST


CRASHING_PROGRAM = """\
int main() {
    int total = 0;
    for (int i = 0; i < 8; ++i) {
        total = total + i;
    }
    int zero = total - total;
    int bad = total / zero;
    print(bad);
    return 0;
}
"""


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_crashed_run_leaves_no_trace_file(tmp_path, fmt):
    path = str(tmp_path / f"crash.{fmt}")
    with pytest.raises(InterpreterError, match="line 7"):
        trace_to_file(CRASHING_PROGRAM, path, fmt=fmt)
    assert not os.path.exists(path)
    assert os.listdir(tmp_path) == []


def test_trace_file_is_published_whole(tmp_path):
    path = str(tmp_path / "ok.btrace")
    size, _ = trace_to_file(CORNER_PROGRAM, path, fmt="binary")
    assert os.listdir(tmp_path) == ["ok.btrace"]
    with open(path, "rb") as handle:
        data = handle.read()
    assert len(data) == size
    check_content_digest(Trace.from_binary(data, path))


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_execute_only_run_equals_traced_run(fleet, name):
    entry = fleet.apps[name]
    traced = entry.result
    untraced = compile_and_run(entry.module)
    assert untraced.output == traced.output
    assert untraced.steps == traced.steps
    assert untraced.return_value == traced.return_value
    assert untraced.memory.process_image_bytes \
        == traced.memory.process_image_bytes
