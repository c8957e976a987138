"""The columnar block decoder and the walk over it.

Three layers of evidence pin the columnar route down:

1. **Decode equivalence** — the columns (and lazily materialized records)
   of :class:`repro.trace.columnar.TraceColumnarReader` match the
   per-record :class:`repro.trace.binio.TraceBinaryReader` decoder exactly:
   property-tested on randomized round-tripped traces (hypothesis, reusing
   the binary-roundtrip strategies), and deterministically on traces large
   enough to exercise the numpy lockstep scan, the big-integer fallback
   and arbitrary ``start_record`` / ``end_record`` windows.
2. **Report equality, fleet-wide** — an in-memory trace (encoded into
   memory, then walked) and a prefiltered walk of the binary file both
   produce the committed golden report on every bundled app, and the
   prefilter skips the committed number of records on each.
3. **Every input form** — text files and version-1 binary files are
   encoded into memory and walked the same way: same report as the
   version-2 binary file.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import FLEET_NAMES
from test_golden_reports import GOLDEN
from test_property_based import _binary_record_strategy

from repro.core import AutoCheck
from repro.store.serialize import canonical_report_json, report_to_dict
from repro.trace.binio import (
    TraceBinaryReader,
    read_layout,
    write_trace_file_binary,
)
from repro.trace.columnar import TraceColumnarReader
from repro.trace.records import (
    GlobalSymbol,
    Trace,
    TraceOperand,
    TraceRecord,
)


# --------------------------------------------------------------------------- #
# Decode equivalence: columns == per-record reader
# --------------------------------------------------------------------------- #
def _assert_block_matches(block, records):
    """Every column of ``block`` agrees with the corresponding records."""
    strings = block.strings
    for row in range(block.count):
        reference = records[block.base_index + row]
        assert block.dyn_id[row] == reference.dyn_id
        assert block.opcode[row] == reference.opcode
        assert block.line[row] == reference.line
        assert strings[block.function_id[row]] == reference.function
        assert strings[block.callee_id[row]] == reference.callee
        assert bool(block.has_result[row]) == (reference.result is not None)
        slots = list(reference.operands)
        if reference.result is not None:
            slots.append(reference.result)
        lo = block.op_start[row]
        assert block.op_start[row + 1] - lo == len(slots)
        for offset, operand in enumerate(slots):
            assert bool(block.op_flags[lo + offset] & 1) == operand.is_register
            assert strings[block.op_name_id[lo + offset]] == operand.name
            assert block.op_address[lo + offset] == operand.address
        # lazy materialization returns the full record, field for field
        assert block.record(row) == reference


def _assert_columnar_equals_records(path, start=0, end=None,
                                    chunk_records=None):
    reader = TraceBinaryReader(path)
    records = list(reader.iter_records())
    stop = len(records) if end is None else min(end, len(records))
    with TraceColumnarReader(path) as columnar:
        kwargs = {}
        if chunk_records is not None:
            kwargs["chunk_records"] = chunk_records
        covered = start
        for block in columnar.iter_blocks(start_record=start, end_record=end,
                                          **kwargs):
            assert block.base_index == covered
            _assert_block_matches(block, records)
            covered += block.count
    assert covered == max(start, stop)


@given(st.lists(_binary_record_strategy, max_size=30))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_columnar_decode_equals_records_property(tmp_path_factory, records):
    """Columnar decode ≡ per-record decode on arbitrary round-tripped
    traces (multi-byte names, commas/newlines, >64-bit integers, floats,
    address-less operands — everything the binary encoding admits)."""
    trace = Trace(module_name="col,prop",
                  globals=[GlobalSymbol("g", 0x1000, 16, 64, True)],
                  records=records)
    path = str(tmp_path_factory.mktemp("col") / "prop.btrace")
    write_trace_file_binary(trace, path)
    _assert_columnar_equals_records(path)


def _synthetic_record(index, big_int_rows=()):
    """A varied record: opcode/operand mix cycles with ``index``."""
    operands = []
    for position in range((index % 4)):
        value = 2 ** 80 + index if index in big_int_rows else index * 3 + position
        operands.append(TraceOperand(
            index=str(position + 1), bits=64,
            value=value if position % 2 == 0 else float(position) / 2,
            is_register=position % 2 == 0,
            name=f"op{position}_{index % 7}",
            address=0x2000 + index * 8 if position == 0 else None))
    result = None
    if index % 3 == 0:
        result = TraceOperand(index="r", bits=64, value=index,
                              is_register=True, name=f"r{index % 5}")
    return TraceRecord(
        dyn_id=index + 1, opcode=26 + (index % 5),
        opcode_name=f"Op{index % 5}", function=f"fn{index % 3}",
        line=10 + (index % 20), column=index % 9, bb_label=index % 4,
        bb_id=f"{index % 4}:0", operands=operands, result=result,
        callee="callee" if index % 11 == 0 else "")


@pytest.fixture(scope="module")
def lockstep_trace(tmp_path_factory):
    """600 records: two full index blocks (numpy lockstep) + partial tail."""
    records = [_synthetic_record(index) for index in range(600)]
    path = str(tmp_path_factory.mktemp("col") / "lockstep.btrace")
    write_trace_file_binary(Trace(module_name="lockstep", records=records),
                            path)
    return path


def test_columnar_lockstep_scan_equals_records(lockstep_trace):
    _assert_columnar_equals_records(lockstep_trace)


def test_columnar_small_chunks_equal_records(lockstep_trace):
    """Chunking must not change the columns, only the block boundaries."""
    _assert_columnar_equals_records(lockstep_trace, chunk_records=256)


def test_columnar_bigint_fallback_equals_records(tmp_path_factory):
    """A >64-bit operand value aborts the lockstep chunk to the Python
    scan; the columns must come out identical anyway."""
    records = [_synthetic_record(index, big_int_rows={3, 300})
               for index in range(600)]
    path = str(tmp_path_factory.mktemp("col") / "bigint.btrace")
    write_trace_file_binary(Trace(module_name="bigint", records=records),
                            path)
    _assert_columnar_equals_records(path)


@given(st.integers(min_value=0, max_value=620),
       st.integers(min_value=0, max_value=620))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_columnar_window_equals_records_property(lockstep_trace, a, b):
    """Arbitrary [start, end) windows — leading/trailing partial index
    blocks and empty windows included — decode identically."""
    start, end = min(a, b), max(a, b)
    _assert_columnar_equals_records(lockstep_trace, start=start, end=end)


# --------------------------------------------------------------------------- #
# Report equality, fleet-wide
# --------------------------------------------------------------------------- #
def _report_sha256(report) -> str:
    return hashlib.sha256(canonical_report_json(report).encode()).hexdigest()


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_fused_columnar_report_identical_on_all_apps(fleet, name):
    """An in-memory trace takes the in-memory encode into the same
    columnar walk: its report is the golden one."""
    entry = fleet.apps[name]
    trace = TraceBinaryReader(entry.trace_path).read()
    report = AutoCheck(entry.config(), trace=trace,
                       module=entry.module).run()
    assert _report_sha256(report) == GOLDEN[name]["report_sha256"]


def _without_prefilter_stats(report) -> dict:
    data = report_to_dict(report)
    data.pop("timings", None)
    data.pop("prefilter", None)
    return data


#: Records the static prefilter skips on each app's default binary trace,
#: as counted by both the per-record walk and the columnar walk before the
#: per-record walk was removed (they agreed on every app).
PREFILTER_SKIPPED_RECORDS = {
    "amg": 696, "bigarray": 1160, "bt": 1311, "cg": 1460, "comd": 1193,
    "ep": 94, "example": 89, "ft": 1609, "hacc": 1068, "himeno": 1899,
    "hpccg": 878, "is": 742, "lu": 1929, "mg": 904, "miniamr": 457,
    "sp": 712,
}


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_prefilter_columnar_report_identical_on_all_apps(fleet, name):
    """With the static prefilter on, the columnar skip mask skips exactly
    the records the per-record skip decisions skipped, and leaves the
    report unchanged."""
    entry = fleet.apps[name]
    filtered = AutoCheck(entry.config(static_prefilter=True),
                         trace_path=entry.trace_path,
                         module=entry.module).run()
    assert filtered.prefilter_info is not None
    assert (filtered.prefilter_info.skipped_records
            == PREFILTER_SKIPPED_RECORDS[name])
    assert _without_prefilter_stats(filtered) == \
        _without_prefilter_stats(entry.report)


# --------------------------------------------------------------------------- #
# Every input form
# --------------------------------------------------------------------------- #
def test_text_trace_report_equals_binary_report(fleet, tmp_path):
    """A text trace is encoded into memory and walked: same report as the
    binary file of the same execution."""
    from repro.trace.textio import write_trace_file

    entry = fleet.apps["example"]
    path = str(tmp_path / "example.trace")
    write_trace_file(TraceBinaryReader(entry.trace_path).read(), path)
    report = AutoCheck(entry.config(), trace_path=path,
                       module=entry.module).run()
    assert _report_sha256(report) == GOLDEN["example"]["report_sha256"]


def test_version1_binary_trace_report_equals_version2_report(fleet,
                                                             tmp_path):
    """A version-1 file (no footer digest) is re-encoded into memory and
    walked: same report as the version-2 file."""
    entry = fleet.apps["example"]
    with open(entry.trace_path, "rb") as handle:
        data = bytearray(handle.read())
    data[4:6] = (1).to_bytes(2, "little")  # header version u16 -> 1
    path = str(tmp_path / "v1.btrace")
    with open(path, "wb") as handle:
        handle.write(data)
    assert read_layout(path).content_digest is None
    report = AutoCheck(entry.config(), trace_path=path,
                       module=entry.module).run()
    assert _report_sha256(report) == GOLDEN["example"]["report_sha256"]
