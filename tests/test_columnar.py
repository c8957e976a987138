"""The columnar block decoder and the walk over it.

Three layers of evidence pin the columnar route down:

1. **Decode equivalence** — the columns (and lazily materialized records)
   of :class:`repro.trace.columnar.TraceColumnarReader` match the
   per-record :func:`repro.trace.binio.decode_records` decoder exactly,
   and every block holds the same numpy columns with or without
   big-integer sizing: property-tested on randomized round-tripped
   traces (hypothesis, reusing the binary-roundtrip strategies), and
   deterministically on traces large enough to exercise the lockstep
   scan's full lanes, its big-integer rescan and the trailing partial
   index block as a chunk's short last lane.  An operand the decoder
   refuses is refused by the scan too, naming the file and the record.
2. **Report equality, fleet-wide** — an in-memory trace (encoded into
   memory, then walked) produces the committed golden report on every
   bundled app.
3. **Every input form** — text files and version-1 binary files are
   encoded into memory and walked the same way: same report as the
   version-2 binary file.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import FLEET_NAMES
from test_golden_reports import GOLDEN
from test_property_based import _binary_record_strategy

from repro.core import AutoCheck
from repro.store.serialize import canonical_report_json
from repro.trace.binio import (
    BinaryTraceError,
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
from repro.trace.textio import read_trace_file


# --------------------------------------------------------------------------- #
# Decode equivalence: columns == per-record reader
# --------------------------------------------------------------------------- #
#: column -> its dtype (None: either scan's own integer dtype)
_RECORD_COLUMNS = {"dyn_id": None, "callee_id": None, "rec_off": None,
                   "opcode": np.int64, "line": np.int64,
                   "function_id": np.int64, "has_result": np.uint8}
_OPERAND_COLUMNS = {"op_flags": np.uint8, "op_name_id": np.uint32,
                    "op_address": np.uint64}


def _assert_block_matches(block, records):
    """Every column of ``block`` agrees with the corresponding records,
    and the block has one shape whichever scan decoded it: every column
    is a numpy array of its row count and dtype, and none is a list."""
    slot_count = int(block.op_start[-1])
    for columns, length in ((_RECORD_COLUMNS, block.count),
                            (_OPERAND_COLUMNS, slot_count),
                            ({"op_start": np.int64}, block.count + 1)):
        for column, dtype in columns.items():
            values = getattr(block, column)
            assert isinstance(values, np.ndarray), column
            assert len(values) == length, column
            assert dtype is None or values.dtype == dtype, column
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
            address = (int(block.op_address[lo + offset])
                       if block.op_flags[lo + offset] & 2 else None)
            assert address == operand.address
        # lazy materialization returns the full record, field for field
        assert block.record(row) == reference


def _assert_columnar_equals_records(path, chunk_records=None):
    records = list(read_trace_file(path))
    with TraceColumnarReader(path) as columnar:
        kwargs = {}
        if chunk_records is not None:
            kwargs["chunk_records"] = chunk_records
        covered = 0
        for block in columnar.iter_blocks(**kwargs):
            assert block.base_index == covered
            _assert_block_matches(block, records)
            covered += block.count
    assert covered == len(records)


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


def test_decode_counter_counts_scope_record_materialization(
        example_trace, decode_counter):
    """A scope record materialized from a fresh block (the walk's
    ``ColumnarBlock.record``) is one more decoded record."""
    buffer, _ = example_trace.encoded()
    block = next(TraceColumnarReader(buffer=buffer).iter_blocks())
    before = decode_counter["records"]
    assert before == block.count
    block.record(0)
    assert decode_counter["records"] == before + 1
    block.record(0)  # cached: no second decode
    assert decode_counter["records"] == before + 1


def test_columnar_lockstep_scan_equals_records(lockstep_trace):
    _assert_columnar_equals_records(lockstep_trace)


def test_columnar_small_chunks_equal_records(lockstep_trace):
    """Chunking must not change the columns, only the block boundaries."""
    _assert_columnar_equals_records(lockstep_trace, chunk_records=256)


def test_columnar_bigint_fallback_equals_records(tmp_path_factory):
    """A >64-bit operand value makes the lockstep chunk scan again with
    big-integer sizing; the columns must come out identical anyway."""
    records = [_synthetic_record(index, big_int_rows={3, 300})
               for index in range(600)]
    path = str(tmp_path_factory.mktemp("col") / "bigint.btrace")
    write_trace_file_binary(Trace(module_name="bigint", records=records),
                            path)
    _assert_columnar_equals_records(path)


@pytest.mark.parametrize("row, chunk_records", [(590, None), (541, None),
                                               (250, 256)])
def test_columnar_bigint_in_a_last_lane_equals_records(tmp_path_factory,
                                                       row, chunk_records):
    """A big integer with an address in the trailing partial index block
    (row 590, the short last lane) or in a chunk's last full lane (row
    541 before the short lane; row 250 in the first of 256-record
    chunks): sized by the rescan, its columns equal the records."""
    records = [_synthetic_record(index, big_int_rows={row})
               for index in range(600)]
    assert records[row].operands[0].address is not None
    path = str(tmp_path_factory.mktemp("col") / "lanes.btrace")
    write_trace_file_binary(Trace(module_name="lanes", records=records),
                            path)
    _assert_columnar_equals_records(path, chunk_records)


#: undecodable operand -> (byte offset in a big-integer slot, the bytes
#: written there, the words its refusal must hold): the first digits past
#: the 13-byte head and the digit count, or the flags byte
_UNDECODABLE_OPERAND = {
    "digits": (17, b"1x", r"big-integer digits b'1x"),
    "value_tag": (0, b"\x30", r"unknown operand value tag 3"),
}


@pytest.mark.parametrize("case", sorted(_UNDECODABLE_OPERAND))
def test_columnar_refuses_an_undecodable_operand_naming_the_record(
        tmp_path, case):
    """Digits ``1x`` or a value tag of 3 in a record's big-integer slot:
    the scan refuses the block, and the record decoder the record, with
    a ``BinaryTraceError`` naming the file and the record (never an
    ``IndexError`` or a bare ``ValueError``)."""
    from repro.trace.binio import _decode_record

    records = [_synthetic_record(index, big_int_rows={301})
               for index in range(600)]
    trace = Trace(module_name="bad", records=records)
    data = bytearray(trace.encoded()[0])
    layout = trace.layout
    position = layout.block_offsets[301 // 64]
    for _ in range(301 % 64):
        position = _decode_record(data, position, layout.strings)[1]
    at, written, words = _UNDECODABLE_OPERAND[case]
    at += position + 42  # past the record's fixed header
    data[at:at + len(written)] = written
    path = str(tmp_path / "bad.btrace")
    with open(path, "wb") as handle:
        handle.write(data)
    refusal = rf"bad\.btrace'?: record 301 .*{words}"
    with (TraceColumnarReader(path) as reader,
          pytest.raises(BinaryTraceError, match=refusal)):
        list(reader.iter_blocks())
    with pytest.raises(BinaryTraceError, match=refusal):
        read_trace_file(path).records


# --------------------------------------------------------------------------- #
# Report equality, fleet-wide
# --------------------------------------------------------------------------- #
def _report_sha256(report) -> str:
    return hashlib.sha256(canonical_report_json(report).encode()).hexdigest()


@pytest.mark.parametrize("name", FLEET_NAMES)
def test_fused_columnar_report_identical_on_all_apps(fleet, name):
    """A trace read into memory is walked from its bytes through the same
    columnar walk: its report is the golden one."""
    entry = fleet.apps[name]
    trace = read_trace_file(entry.trace_path)
    report = AutoCheck(entry.config(), trace=trace,
                       module=entry.module).run()
    assert _report_sha256(report) == GOLDEN[name]["report_sha256"]


# --------------------------------------------------------------------------- #
# Every input form
# --------------------------------------------------------------------------- #
def test_text_trace_report_equals_binary_report(fleet, tmp_path):
    """A text trace is encoded once as it is read and walked: same report
    as the binary file of the same execution."""
    from repro.trace.textio import write_trace_file

    entry = fleet.apps["example"]
    path = str(tmp_path / "example.trace")
    write_trace_file(read_trace_file(entry.trace_path), path)
    report = AutoCheck(entry.config(), trace_path=path,
                       module=entry.module).run()
    assert _report_sha256(report) == GOLDEN["example"]["report_sha256"]


def test_stride_256_file_reports_as_the_stride_64_file(fleet, tmp_path,
                                                       monkeypatch):
    """A file written at the writer's former 256-record index stride
    still reads: the reader takes the stride from the footer.
    ``encode_trace`` writes through ``write_record``, which reads
    ``INDEX_STRIDE`` at each call (the interpreter's generated emitters
    bake it in, so patching the constant would not reach them)."""
    from repro.trace import binio

    entry = fleet.apps["example"]
    current = read_layout(entry.trace_path)
    assert current.index_stride == 64
    trace = read_trace_file(entry.trace_path)
    monkeypatch.setattr(binio, "INDEX_STRIDE", 256)
    data, _ = binio.encode_trace(trace.module_name, trace.globals,
                                 trace.records)
    monkeypatch.undo()
    path = str(tmp_path / "stride256.btrace")
    with open(path, "wb") as handle:
        handle.write(data)
    layout = read_layout(path)
    assert layout.index_stride == 256
    assert len(layout.block_offsets) == -(-layout.record_count // 256)
    assert len(layout.block_offsets) < len(current.block_offsets)
    assert layout.content_digest == current.content_digest
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
