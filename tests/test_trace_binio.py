"""Unit tests for the block-indexed binary trace format."""

import dataclasses
import functools
import hashlib
import os
import struct
from typing import Dict, Tuple

import pytest
from conftest import FLEET_NAMES

from repro.core import AutoCheck, AutoCheckConfig
from repro.ir.opcodes import Opcode
from repro.trace import (
    BinaryTraceError,
    GlobalSymbol,
    Trace,
    TraceBinaryWriter,
    TraceOperand,
    TraceRecord,
    read_trace_file,
    write_trace_file,
    write_trace_file_binary,
)
from repro.trace.binio import (
    INDEX_STRIDE,
    TraceDigestMismatch,
    check_content_digest,
    encode_trace,
    layout_from_buffer,
    read_layout,
)
from repro.trace.textio import TraceFormatError, trace_from_bytes


def make_record(dyn_id=1, opcode=Opcode.LOAD, function="main", name="x",
                value=3.5, address=0x1000):
    return TraceRecord(
        dyn_id=dyn_id,
        opcode=int(opcode),
        opcode_name=opcode.mnemonic,
        function=function,
        line=5,
        column=2,
        bb_label=1,
        bb_id="5:1",
        operands=[TraceOperand(index="1", bits=64, value=value,
                               is_register=False, name=name, address=address)],
        result=TraceOperand(index="r", bits=64, value=value, is_register=True,
                            name="8", address=None),
    )


@pytest.fixture(scope="module")
def binary_trace_file(example_trace, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("btraces") / "example.btrace")
    write_trace_file_binary(example_trace, path)
    return path


class TestRoundTrip:
    def test_file_roundtrip_full_equality(self, example_trace,
                                          binary_trace_file):
        loaded = read_trace_file(binary_trace_file)
        assert loaded.module_name == example_trace.module_name
        assert loaded.globals == example_trace.globals
        assert loaded.records == example_trace.records

    def test_text_and_binary_encodings_agree(self, example_trace, tmp_path):
        text_path = str(tmp_path / "t.trace")
        binary_path = str(tmp_path / "b.btrace")
        write_trace_file(example_trace, text_path)
        write_trace_file_binary(example_trace, binary_path)
        assert read_trace_file(text_path).records == \
            read_trace_file(binary_path).records

    def test_non_ascii_and_comma_identifiers(self, tmp_path):
        # Names the text format must reject round-trip exactly in binary.
        trace = Trace(module_name="mod,ule\nπ",
                      globals=[GlobalSymbol("glob,al", 0x10, 8, 64, False)],
                      records=[make_record(dyn_id=1, function="fün,c",
                                           name="va\nr")])
        path = str(tmp_path / "weird.btrace")
        write_trace_file_binary(trace, path)
        loaded = read_trace_file(path)
        assert loaded.module_name == "mod,ule\nπ"
        assert loaded.globals == trace.globals
        assert loaded.records == trace.records

    def test_value_kinds_roundtrip(self, tmp_path):
        values = [0, -1, 2**62, -(2**62), 2**80, -(2**80), 0.5, -1e300,
                  True, 3]
        records = [make_record(dyn_id=i + 1, value=v)
                   for i, v in enumerate(values)]
        trace = Trace(module_name="vals", records=records)
        path = str(tmp_path / "vals.btrace")
        write_trace_file_binary(trace, path)
        loaded = read_trace_file(path)
        for original, parsed in zip(values, loaded.records):
            got = parsed.operands[0].value
            # bools are canonicalised to ints (same as the text format)
            assert got == original
            assert isinstance(got, float) == isinstance(original, float)

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.btrace")
        write_trace_file_binary(Trace(module_name="void"), path)
        loaded = read_trace_file(path)
        assert loaded.module_name == "void"
        assert loaded.records == []

    def test_streaming_writer_is_a_trace_sink(self, tmp_path):
        path = str(tmp_path / "sink.btrace")
        with TraceBinaryWriter(path, module_name="m") as writer:
            writer.write_record(make_record(dyn_id=1))
            # globals may arrive at any time before close (footer encoding)
            writer.write_global(GlobalSymbol("g", 0x1000, 8, 64, False))
            writer.write_record(make_record(dyn_id=2))
            assert writer.record_count == 2
        loaded = read_trace_file(path)
        assert loaded.module_name == "m"
        assert [g.name for g in loaded.globals] == ["g"]


class TestIndexAndSeek:
    @pytest.fixture(scope="class")
    def big_file(self, tmp_path_factory):
        count = INDEX_STRIDE * 3 + 17
        trace = Trace(module_name="big",
                      records=[make_record(dyn_id=i + 1, value=i)
                               for i in range(count)])
        path = str(tmp_path_factory.mktemp("btraces") / "big.btrace")
        write_trace_file_binary(trace, path)
        return path, count

    def test_layout_counts(self, big_file):
        path, count = big_file
        layout = read_layout(path)
        assert layout.record_count == count
        assert len(layout.block_offsets) == 4  # ceil(count / stride)
        assert layout.block_offsets[0] == layout.records_start


class TestContentDigestCheck:
    """:func:`check_content_digest` re-folds the footer digest over a
    trace's record region and encoded globals, over the layout the trace
    keeps: it parses no footer and decodes no record."""

    @pytest.fixture()
    def encoded(self):
        trace = Trace(module_name="digest",
                      globals=[GlobalSymbol("g", 0x1000, 16, 64, True)],
                      records=[make_record(dyn_id=i + 1, value=i)
                               for i in range(INDEX_STRIDE + 3)])
        data, layout = encode_trace(trace.module_name, trace.globals,
                                    trace.records)
        return bytearray(data), layout.content_digest

    @staticmethod
    def _refused(data):
        trace = Trace.from_binary(bytes(data), "tampered.btrace")
        with pytest.raises(TraceDigestMismatch,
                           match=r"^'tampered\.btrace': content digest"):
            check_content_digest(trace)

    def test_genuine_trace_passes(self, encoded, monkeypatch):
        from repro.trace import binio

        data, digest = encoded
        trace = Trace.from_binary(bytes(data))
        assert trace.layout.content_digest == digest
        monkeypatch.setattr(binio, "_parse_footer", None)  # parses nothing
        check_content_digest(trace)

    def test_flipped_record_byte_fails(self, encoded):
        data, _ = encoded
        data[layout_from_buffer(bytes(data)).records_start + 3] ^= 1
        self._refused(data)

    def test_changed_global_fails(self, encoded):
        data, _ = encoded
        footer = layout_from_buffer(bytes(data)).records_end
        data[bytes(data).index(b"g", footer) + 1] ^= 1  # its base address
        self._refused(data)

    def test_version1_file_has_nothing_to_check(self, encoded):
        data, _ = encoded
        data[4:6] = (1).to_bytes(2, "little")
        check_content_digest(Trace.from_binary(bytes(data)))

    def test_garbage_is_rejected(self):
        with pytest.raises(BinaryTraceError):
            Trace.from_binary(b"ACTB garbage")



class TestSniffing:
    def test_sniff_formats(self, tmp_path, example_trace):
        """The front door keeps binary bytes as they are and parses any
        other bytes as text, encoding them once."""
        text_path = str(tmp_path / "a.trace")
        binary_path = str(tmp_path / "a.btrace")
        write_trace_file(example_trace, text_path)
        write_trace_file_binary(example_trace, binary_path)
        with open(binary_path, "rb") as handle:
            binary = handle.read()
        with open(text_path, "rb") as handle:
            text = handle.read()
        assert trace_from_bytes(binary, "b").encoded()[0] == binary
        assert trace_from_bytes(text, "t").encoded()[1] == \
            layout_from_buffer(binary).content_digest
        with pytest.raises(TraceFormatError,
                           match=r"^t:1: malformed .*tag 'ACTX'"):
            trace_from_bytes(b"ACTX,what\n", "t")

    def test_front_door_reads_both(self, tmp_path, example_trace):
        text_path = str(tmp_path / "a.trace")
        binary_path = str(tmp_path / "a.btrace")
        write_trace_file(example_trace, text_path)
        write_trace_file_binary(example_trace, binary_path)
        binary = read_trace_file(binary_path)
        text = read_trace_file(text_path)
        assert binary.module_name == text.module_name \
            == example_trace.module_name
        assert binary.globals == text.globals == example_trace.globals
        assert binary.records == text.records == example_trace.records
        assert (binary.source_path, text.source_path) == (binary_path,
                                                          text_path)


class TestErrors:
    def test_not_binary(self, tmp_path):
        path = str(tmp_path / "nope")
        with open(path, "w") as handle:
            handle.write("0,1,2\n")
        with pytest.raises(BinaryTraceError):
            read_layout(path)

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "trunc.btrace")
        write_trace_file_binary(
            Trace(module_name="m", records=[make_record()]), path)
        size = os.path.getsize(path)
        with open(path, "rb") as handle:
            data = handle.read(size - 7)
        with open(path, "wb") as handle:
            handle.write(data)
        with pytest.raises(BinaryTraceError):
            read_trace_file(path)

    def test_unknown_version(self, tmp_path):
        path = str(tmp_path / "vers.btrace")
        write_trace_file_binary(Trace(module_name="m"), path)
        with open(path, "r+b") as handle:
            handle.seek(4)
            handle.write(struct.pack("<H", 999))
        with pytest.raises(BinaryTraceError):
            read_trace_file(path)


# --------------------------------------------------------------------------- #
# Footers that lie about their record count or index stride
# --------------------------------------------------------------------------- #
#: Rewrites of a footer's ``u32 stride | u64 record count``, as functions of
#: the genuine pair.  On ``example``'s trace (2,363 records at stride 64,
#: 37 index entries) the footer checks refuse the first five; the last
#: three keep ``ceil(count / stride) == 37``, so only the walk's scan of
#: the trailing partial index block can tell.
FOOTER_LIES = {
    "count+1000": lambda stride, count: (stride, count + 1000),
    "count*2": lambda stride, count: (stride, count * 2),
    "stride=0": lambda stride, count: (0, count),
    "stride=1": lambda stride, count: (1, count),
    "count-300": lambda stride, count: (stride, count - 300),
    "count-1": lambda stride, count: (stride, count - 1),
    "count-10": lambda stride, count: (stride, count - 10),
    "count+1": lambda stride, count: (stride, count + 1),
}
#: the lies only the walk catches
WALK_REFUSED = ("count-1", "count-10", "count+1")


def lying_footer(data: bytes, lie: str) -> bytes:
    """A version-2 trace's bytes with ``FOOTER_LIES[lie]`` applied to its
    footer; the record bytes, and so the content digest, stay genuine."""
    layout = layout_from_buffer(data)
    # Back from the end: trailer (12), digest (1 + 32), index entries,
    # entry count (4), record count (8), stride (4).
    at = len(data) - 12 - 33 - 8 * len(layout.block_offsets) - 16
    assert struct.unpack_from("<IQ", data, at) == (layout.index_stride,
                                                   layout.record_count)
    out = bytearray(data)
    struct.pack_into("<IQ", out, at,
                     *FOOTER_LIES[lie](layout.index_stride,
                                       layout.record_count))
    return bytes(out)


@pytest.fixture(scope="module")
def example_btrace_bytes(example_module, tmp_path_factory):
    from repro.tracer.driver import trace_to_file

    path = str(tmp_path_factory.mktemp("lies") / "example.btrace")
    trace_to_file(example_module, path, module_name="example", fmt="binary")
    with open(path, "rb") as handle:
        return handle.read()


class TestLyingFooter:
    @pytest.mark.parametrize("lie", [lie for lie in FOOTER_LIES
                                     if lie not in WALK_REFUSED])
    def test_footer_checks_refuse(self, example_btrace_bytes, tmp_path, lie):
        data = lying_footer(example_btrace_bytes, lie)
        path = str(tmp_path / "lie.btrace")
        with open(path, "wb") as handle:
            handle.write(data)
        with pytest.raises(BinaryTraceError,
                           match=r"lie\.btrace.*corrupt binary trace footer"):
            read_layout(path)
        with pytest.raises(BinaryTraceError, match="corrupt binary trace"):
            Trace.from_binary(data)

    @pytest.mark.parametrize("lie", WALK_REFUSED)
    def test_walk_refuses_a_count_the_footer_checks_pass(
            self, example_btrace_bytes, tmp_path, lie):
        from repro.trace.columnar import TraceColumnarReader

        data = lying_footer(example_btrace_bytes, lie)
        path = str(tmp_path / "lie.btrace")
        with open(path, "wb") as handle:
            handle.write(data)
        check_content_digest(Trace.from_binary(data))
        with TraceColumnarReader(path) as reader:
            with pytest.raises(BinaryTraceError,
                               match=r"lie\.btrace.*their span in the "
                                     r"block index"):
                list(reader.iter_blocks())
        with pytest.raises(BinaryTraceError,
                           match=r"lie\.btrace.*but the footer counts"):
            read_trace_file(path).records

    @pytest.mark.parametrize("move", ["first", "repeat", "last"])
    def test_index_must_ascend_within_the_record_region(
            self, example_btrace_bytes, move):
        """The first entry off ``records_start``, an entry repeated, or
        the last one at the footer: refused."""
        layout = layout_from_buffer(example_btrace_bytes)
        offsets = list(layout.block_offsets)
        if move == "first":
            offsets[0] += 1
        elif move == "repeat":
            offsets[2] = offsets[1]
        else:
            offsets[-1] = layout.records_end
        at = len(example_btrace_bytes) - 12 - 33 - 8 * len(offsets)
        out = bytearray(example_btrace_bytes)
        struct.pack_into(f"<{len(offsets)}Q", out, at, *offsets)
        with pytest.raises(BinaryTraceError,
                           match=r"moved\.btrace.*block index does not "
                                 r"ascend"):
            layout_from_buffer(bytes(out), name="moved.btrace")


# --------------------------------------------------------------------------- #
# Record fields the decoder refuses
# --------------------------------------------------------------------------- #
#: Rewrites of one u32 string id in ``example``'s record blocks to 0xFFFFFF:
#: ``(opcode of the record, True for the first such record inside the main
#: loop or False for the trace's first record, byte offset of the id in
#: its record block)``.  42 + 9 is the first operand's name id; an ``Add``
#: is taken only when that operand is a register.  The in-loop ``Load`` is
#: a data row, which the walk reads from columns alone.
STRING_ID_PAST_THE_TABLE = {
    "alloca_function": (Opcode.ALLOCA, False, 28),
    "alloca_opcode_name": (Opcode.ALLOCA, False, 24),
    "add_operand_name": (Opcode.ADD, True, 42 + 9),
    "load_opcode_name": (Opcode.LOAD, True, 24),
    "load_basic_block": (Opcode.LOAD, True, 32),
    "load_operand_name": (Opcode.LOAD, True, 42 + 9),
    "gep_operand_name": (Opcode.GETELEMENTPTR, True, 42 + 9),
}
#: byte offset of a string id in its record block -> the errors' name for it
STRING_ID_FIELD = {24: "opcode-name", 28: "function", 32: "basic-block",
                   42 + 9: "operand-name"}

#: Rewrites of ``example``'s first in-loop record of an opcode that the
#: record decoder refuses for another field than a string id -> the words
#: its error must hold.  ``*_has_result``: the has-result byte set to 2,
#: with a second copy of the result slot after the record, so the block
#: index and the trailer agree with the bytes; ``load_value_tag``: the
#: first operand's value tag set to 3; ``load_big_integer_digits``: the
#: first operand's value made a big integer, whose digits then start
#: ``1x``.  The content digest of each is folded again.
UNDECODABLE_RECORD = {
    "add_has_result": r"has-result byte of 2, not 0 or 1",
    "bitcast_has_result": r"has-result byte of 2, not 0 or 1",
    "load_value_tag": r"unknown operand value tag 3",
    "load_big_integer_digits": r"big-integer digits b'1x",
}


def _first_record(data: bytes, opcode, inside: bool, spec):
    """``(index, byte offset, record)`` of the first record of ``data``
    or, with ``inside``, of the first ``opcode`` record inside the main
    loop ``spec`` locates (an ``Add`` only when its first operand is a
    register)."""
    from repro.trace.binio import _decode_record

    layout = layout_from_buffer(data)
    position = layout.records_start
    for index in range(layout.record_count):
        record, end = _decode_record(data, position, layout.strings)
        if (not inside or (record.opcode == opcode
                           and record.function == spec.function
                           and spec.contains_line(record.line)
                           and (opcode != Opcode.ADD
                                or record.operands[0].is_register))):
            assert record.opcode == opcode
            return index, position, record
        position = end
    raise AssertionError(f"no {opcode!r} record in the main loop")


def refolded(data: bytes) -> bytes:
    """A version-2 trace's bytes with the footer's content digest folded
    again over their record bytes, as a writer of those records would
    have written it: only the walk can refuse them."""
    from repro.trace.binio import _DigestFold, encode_globals

    layout = layout_from_buffer(data)
    fold = _DigestFold(layout.records_start)
    fold.add(layout.records_start,
             data[layout.records_start:layout.records_end])
    digest = fold.finish(encode_globals(layout.globals))
    return data[:-12 - len(digest)] + digest + data[-12:]


def string_id_past_the_table(data: bytes, case: str, spec) -> bytes:
    """A version-2 trace's bytes with ``STRING_ID_PAST_THE_TABLE[case]``
    applied (``spec`` locates the main loop)."""
    opcode, inside, at = STRING_ID_PAST_THE_TABLE[case]
    _, position, _ = _first_record(data, opcode, inside, spec)
    out = bytearray(data)
    struct.pack_into("<I", out, position + at, 0xFFFFFF)
    return bytes(out)


def _with_a_second_result(data: bytes, position: int, record) -> bytes:
    """``data`` with the record block at ``position`` given a has-result
    byte of 2 and a copy of its result slot after it; the later block
    index entries and the trailer's footer offset move with the bytes."""
    from repro.trace.binio import _OPERAND_TABLE

    layout = layout_from_buffer(data)
    slot = position + 42
    for _ in record.operands:
        slot += _OPERAND_TABLE[data[slot]][1]
    end = slot + _OPERAND_TABLE[data[slot]][1]
    grown = end - slot
    out = bytearray(data[:end] + data[slot:end] + data[end:])
    out[position + 41] = 2
    offsets = [offset + grown if offset > position else offset
               for offset in layout.block_offsets]
    struct.pack_into(f"<{len(offsets)}Q", out,
                     len(out) - 12 - 33 - 8 * len(offsets), *offsets)
    struct.pack_into("<Q", out, len(out) - 12, layout.records_end + grown)
    return bytes(out)


def undecodable_record(data: bytes, case: str, spec) -> bytes:
    """``example``'s version-2 trace bytes ``data`` with
    ``UNDECODABLE_RECORD[case]`` applied and the digest folded again."""
    opcode = {"add": Opcode.ADD, "bitcast": Opcode.BITCAST,
              "load": Opcode.LOAD}[case.split("_")[0]]
    index, position, record = _first_record(data, opcode, True, spec)
    if case.endswith("has_result"):
        return refolded(_with_a_second_result(data, position, record))
    if case == "load_big_integer_digits":
        trace = Trace.from_binary(data)
        records = list(trace.records)
        first = record.operands[0]
        records[index] = dataclasses.replace(record, operands=[
            dataclasses.replace(first, value=2 ** 80), *record.operands[1:]])
        data, _ = encode_trace(trace.module_name, trace.globals, records)
        _, position, _ = _first_record(data, opcode, True, spec)
    out = bytearray(data)
    slot = position + 42
    if case == "load_value_tag":
        out[slot] = 0x30 | (out[slot] & 0x0F)
    else:
        out[slot + 17:slot + 19] = b"1x"  # past the head and digit count
    return refolded(bytes(out))


def record_probe(data: bytes, case: str, spec) -> Tuple[bytes, str]:
    """A ``STRING_ID_PAST_THE_TABLE`` or ``UNDECODABLE_RECORD`` case applied
    to ``example``'s version-2 trace bytes ``data``, with the digest folded
    again, and the words its error must hold."""
    if case in UNDECODABLE_RECORD:
        return undecodable_record(data, case, spec), UNDECODABLE_RECORD[case]
    field = STRING_ID_FIELD[STRING_ID_PAST_THE_TABLE[case][2]]
    return (refolded(string_id_past_the_table(data, case, spec)),
            rf"has {field} id 16777215, past the \d+-entry string table")


#: every case of :func:`record_probe`
RECORD_PROBES = sorted(STRING_ID_PAST_THE_TABLE) + sorted(UNDECODABLE_RECORD)


class TestStringIdsPastTheTable:
    @pytest.mark.parametrize("case", sorted(STRING_ID_PAST_THE_TABLE))
    def test_walk_refuses_naming_the_file_and_record(
            self, example_btrace_bytes, example_spec, tmp_path, case):
        from repro.trace.columnar import TraceColumnarReader

        path = str(tmp_path / "ids.btrace")
        with open(path, "wb") as handle:
            handle.write(string_id_past_the_table(example_btrace_bytes, case,
                                                  example_spec))
        field = STRING_ID_FIELD[STRING_ID_PAST_THE_TABLE[case][2]]
        refusal = (rf"record \d+ has {field} id 16777215, past the "
                   rf"\d+-entry string table")
        config = AutoCheckConfig(main_loop=example_spec)
        with pytest.raises(BinaryTraceError, match=rf"ids\.btrace.*{refusal}"):
            AutoCheck(config, trace_path=path).run()
        with (TraceColumnarReader(path) as reader,
              pytest.raises(BinaryTraceError, match=refusal)):
            list(reader.iter_blocks())
        with pytest.raises(BinaryTraceError,
                           match=rf"ids\.btrace.*record \d+ \(the record "
                                 rf"block at byte \d+\) has {field} id "
                                 rf"16777215, past the 84-entry string "
                                 rf"table"):
            read_trace_file(path).records


class TestUndecodableRecords:
    @pytest.mark.parametrize("case", sorted(UNDECODABLE_RECORD))
    def test_walk_and_records_refuse_naming_the_field(
            self, example_btrace_bytes, example_spec, tmp_path, case):
        """Each rewrite passes the digest check, then is refused by the
        walk and by the record decoder, naming the file, the record and
        the field."""
        data = undecodable_record(example_btrace_bytes, case, example_spec)
        path = str(tmp_path / "record.btrace")
        with open(path, "wb") as handle:
            handle.write(data)
        check_content_digest(Trace.from_binary(data))
        refusal = rf"record\.btrace.*record \d+ .*{UNDECODABLE_RECORD[case]}"
        config = AutoCheckConfig(main_loop=example_spec)
        with pytest.raises(BinaryTraceError, match=refusal):
            AutoCheck(config, trace_path=path).run()
        with pytest.raises(BinaryTraceError, match=refusal):
            read_trace_file(path).records


# --------------------------------------------------------------------------- #
# Header and footer fields that do not decode
# --------------------------------------------------------------------------- #
#: Rewrites of a version-2 trace whose header, footer or trailer does not
#: decode -> the field the error must name.  ``global_name`` needs a trace
#: with globals (``is``); the others rewrite ``example``'s trace.
UNDECODABLE = {
    "module_name": r"the module name is not UTF-8",
    "global_name": r"the name of global 0 is not UTF-8",
    "string_main": r"string \d+ is not UTF-8",
    "footer_ends_early": r"corrupt binary trace footer: it ends early",
    "trailer_past_the_end": r"trailer: footer offset \d+ lies outside",
}


def undecodable(data: bytes, case: str) -> bytes:
    """A version-2 trace's bytes with ``case`` of :data:`UNDECODABLE`
    applied: the first byte of the module name, of global 0's name or of
    the string ``main`` overwritten with ``0xA2`` (a UTF-8 continuation
    byte), the file cut to its header, a footer of only its magic and a
    trailer pointing at it, or a trailer pointing past the file's end."""
    layout = layout_from_buffer(data)
    start = layout.records_start
    if case == "footer_ends_early":
        return data[:start] + b"ACTF" + struct.pack("<Q4s", start, b"ACTE")
    if case == "trailer_past_the_end":
        return data[:-12] + struct.pack("<Q4s", len(data) + 100, b"ACTE")
    if case == "module_name":
        at = 10  # past the header's magic, version, flags and name length
    else:
        at = layout.records_end + 8  # past the footer's magic and count
        if case == "global_name":
            at += 2
        else:
            for symbol in layout.globals:
                at += 2 + len(symbol.name.encode("utf-8")) + 21
            at += 4  # the string count
            for text in layout.strings[:layout.strings.index("main")]:
                at += 2 + len(text.encode("utf-8"))
            at += 2
    out = bytearray(data)
    out[at] = 0xA2
    return bytes(out)


@functools.lru_cache(maxsize=1)
def _traced_with_globals() -> bytes:
    from repro.apps import get_app
    from repro.codegen.lowering import compile_source
    from repro.tracer.driver import run_and_trace

    module = compile_source(get_app("is").source(), module_name="is")
    trace, _ = run_and_trace(module)
    assert trace.globals
    return trace.encoded()[0]


def undecodable_cases(example_data: bytes) -> Dict[str, bytes]:
    """Every case of :data:`UNDECODABLE` -> its :func:`undecodable` bytes,
    rewritten from ``example_data`` (``example``'s version-2 trace) or,
    for ``global_name``, from ``is``'s."""
    return {case: undecodable(_traced_with_globals()
                              if case == "global_name" else example_data,
                              case)
            for case in UNDECODABLE}


@pytest.fixture(scope="module")
def undecodable_bytes(example_btrace_bytes):
    return undecodable_cases(example_btrace_bytes)


class TestUndecodableFields:
    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    def test_layout_readers_name_the_file_and_field(
            self, undecodable_bytes, tmp_path, case):
        data = undecodable_bytes[case]
        path = str(tmp_path / "bad.btrace")
        with open(path, "wb") as handle:
            handle.write(data)
        with pytest.raises(BinaryTraceError,
                           match=rf"bad\.btrace.*{UNDECODABLE[case]}"):
            read_layout(path)
        with pytest.raises(BinaryTraceError,
                           match=rf"'<buffer>'.*{UNDECODABLE[case]}"):
            layout_from_buffer(data)
        with pytest.raises(BinaryTraceError, match=UNDECODABLE[case]):
            Trace.from_binary(data)



# --------------------------------------------------------------------------- #
# A Trace is its bytes
# --------------------------------------------------------------------------- #
class TestTraceViews:
    def test_run_and_trace_then_run_encodes_and_decodes_nothing(
            self, example_module, example_spec, monkeypatch,
            decode_counter):
        """The in-memory route walks the bytes the interpreter emitted:
        nothing is encoded, and nothing is decoded outside the walk."""
        import repro.trace.binio as binio_module
        from repro.store.serialize import canonical_report_json
        from repro.tracer.driver import run_and_trace

        from test_golden_reports import GOLDEN

        encodes = []
        real_encode = binio_module.encode_trace
        monkeypatch.setattr(
            binio_module, "encode_trace",
            lambda *args: encodes.append(args) or real_encode(*args))
        written = []
        monkeypatch.setattr(binio_module.TraceBinaryWriter, "write_record",
                            lambda self, record: written.append(record))
        trace, _ = run_and_trace(example_module, module_name="example")
        assert decode_counter["records"] == 0
        report = AutoCheck(AutoCheckConfig(main_loop=example_spec),
                           trace=trace, module=example_module).run()
        assert encodes == [] and written == []
        # The walk decodes every record once in bulk and materializes the
        # scope records that split their spans one at a time: each Ret,
        # and each Call that binds parameters or whose body follows.
        # Allocas register from columns.  Nothing else is decoded.
        walked = decode_counter["records"]
        records = trace.records
        splitting = sum(record.opcode == Opcode.RET for record in records)
        splitting += sum(
            record.opcode == Opcode.CALL
            and bool(record.parameter_operands()
                     or following.function == record.callee)
            for record, following in zip(records, records[1:]))
        assert splitting == 21  # foo's 10 Calls and 10 Rets, main's Ret
        assert walked == report.trace_stats.record_count + splitting
        canonical = canonical_report_json(report).encode()
        assert (hashlib.sha256(canonical).hexdigest()
                == GOLDEN["example"]["report_sha256"])

    @pytest.mark.parametrize("name", FLEET_NAMES)
    def test_emitted_bytes_are_the_binary_file(self, fleet, name):
        from repro.tracer.driver import run_and_trace

        entry = fleet.apps[name]
        trace, _ = run_and_trace(entry.module, module_name=name)
        with open(entry.trace_path, "rb") as handle:
            assert trace.encoded()[0] == handle.read()

    def test_each_view_comes_from_the_other(self, example_trace):
        data, digest = example_trace.encoded()
        assert digest == layout_from_buffer(data).content_digest
        rebuilt = Trace(example_trace.module_name, example_trace.globals,
                        example_trace.records)
        assert rebuilt.encoded() == (data, digest)
        assert list(Trace.from_binary(data)) == example_trace.records

    def test_version1_bytes_are_encoded_as_version2(self, example_trace):
        data, digest = example_trace.encoded()
        v1 = bytearray(data)
        v1[4:6] = (1).to_bytes(2, "little")  # header version u16 -> 1
        assert Trace.from_binary(bytes(v1)).encoded() == (data, digest)

    def test_trace_is_immutable(self, example_trace):
        for name in ("module_name", "globals", "records"):
            with pytest.raises(AttributeError):
                setattr(example_trace, name, None)
        assert not hasattr(example_trace, "append")
