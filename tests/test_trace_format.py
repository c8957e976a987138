"""Unit tests for trace records and the text trace format."""

import os

import pytest

from repro.ir.opcodes import Opcode
from repro.trace import (
    GlobalSymbol,
    Trace,
    TraceOperand,
    TraceRecord,
    parse_record_lines,
    read_trace_file,
    record_to_lines,
    write_trace_file,
)
from repro.trace.textio import TraceFormatError, TraceTextWriter


def make_record(dyn_id=1, opcode=Opcode.LOAD, function="main", line=5,
                name="x", address=0x1000, value=3.5):
    return TraceRecord(
        dyn_id=dyn_id,
        opcode=int(opcode),
        opcode_name=opcode.mnemonic,
        function=function,
        line=line,
        column=2,
        bb_label=1,
        bb_id="5:1",
        operands=[TraceOperand(index="1", bits=64, value=value,
                               is_register=False, name=name, address=address)],
        result=TraceOperand(index="r", bits=64, value=value, is_register=True,
                            name="8", address=None),
    )


class TestRecordPredicates:
    def test_load_predicates(self):
        record = make_record(opcode=Opcode.LOAD)
        assert record.is_load and not record.is_store
        assert record.memory_operand().name == "x"

    def test_store_memory_operand_is_second(self):
        record = TraceRecord(dyn_id=2, opcode=int(Opcode.STORE), opcode_name="Store",
                             function="main", line=6, column=1, bb_label=0,
                             bb_id="6:0",
                             operands=[
                                 TraceOperand("1", 64, 1.0, True, "9", None),
                                 TraceOperand("2", 64, 1.0, False, "y", 0x2000),
                             ])
        assert record.is_store
        assert record.memory_operand().name == "y"

    def test_alloca_memory_operand_is_result(self):
        record = TraceRecord(dyn_id=3, opcode=int(Opcode.ALLOCA), opcode_name="Alloca",
                             function="foo", line=2, column=1, bb_label=0,
                             bb_id="2:0",
                             operands=[TraceOperand("1", 32, 4, False, "count", None)],
                             result=TraceOperand("r", 32, 0, False, "buf", 0x3000))
        assert record.is_alloca
        assert record.memory_operand().name == "buf"

    def test_arithmetic_predicate(self):
        record = make_record(opcode=Opcode.FMUL)
        assert record.is_arithmetic

    def test_call_parameter_split(self):
        record = TraceRecord(dyn_id=4, opcode=int(Opcode.CALL), opcode_name="Call",
                             function="main", line=9, column=1, bb_label=0,
                             bb_id="9:0", callee="foo",
                             operands=[
                                 TraceOperand("1", 64, 0x10, True, "6", 0x10),
                                 TraceOperand("p1", 64, 0x10, False, "p", 0x10),
                             ])
        assert [op.name for op in record.argument_operands()] == ["6"]
        assert [op.name for op in record.parameter_operands()] == ["p"]

    def test_trace_container_helpers(self):
        trace = Trace(module_name="m",
                      records=[make_record(dyn_id=1, function="main"),
                               make_record(dyn_id=2, function="foo")])
        assert len(trace) == 2
        assert [record.function for record in trace] == ["main", "foo"]

    def test_global_symbol_contains(self):
        symbol = GlobalSymbol(name="u", address=0x100, size_bytes=80,
                              element_bits=64, is_array=True)
        assert symbol.contains(0x100)
        assert symbol.contains(0x14F)
        assert not symbol.contains(0x150)


class TestTextRoundTrip:
    def test_record_to_lines_structure(self):
        lines = record_to_lines(make_record())
        assert lines[0].startswith("0,")
        assert lines[1].startswith("op,")
        assert lines[2].startswith("res,")

    def test_parse_record_lines_roundtrip(self):
        record = make_record(value=2.5)
        parsed = parse_record_lines(record_to_lines(record))
        assert len(parsed) == 1
        out = parsed[0]
        assert out.dyn_id == record.dyn_id
        assert out.opcode == record.opcode
        assert out.function == record.function
        assert out.operands[0].name == "x"
        assert out.operands[0].address == 0x1000
        assert out.operands[0].value == 2.5
        assert out.result.is_register

    def test_parse_rejects_orphan_operand(self):
        with pytest.raises(TraceFormatError):
            parse_record_lines(["op,1,64,0,x,1,0x10"])

    def test_parse_rejects_unknown_tag(self):
        with pytest.raises(TraceFormatError):
            parse_record_lines(["zz,what"])

    def test_parse_rejects_malformed_header_field_count(self):
        # too few fields (7) and too many (11 — e.g. an unescaped comma in a
        # name written by a pre-validation writer)
        with pytest.raises(TraceFormatError, match="header has 7 fields"):
            parse_record_lines(["0,1,27,Load,main,5,2"])
        with pytest.raises(TraceFormatError, match="header has 11 fields"):
            parse_record_lines(["0,1,27,Load,ma,in,5,2,1,5:1,"])

    def test_parse_rejects_malformed_operand_field_count(self):
        record_header = "0,1,27,Load,main,5,2,1,5:1,"
        with pytest.raises(TraceFormatError, match="operand line has 8"):
            parse_record_lines([record_header, "op,1,64,0,x,y,1,0x10"])
        with pytest.raises(TraceFormatError, match="result line has 7"):
            parse_record_lines([record_header, "res,64,0,x,y,1,0x10"])

    def test_negative_and_int_values_roundtrip(self):
        record = make_record(value=-7)
        parsed = parse_record_lines(record_to_lines(record))[0]
        assert parsed.operands[0].value == -7
        assert isinstance(parsed.operands[0].value, int)

    def test_file_roundtrip(self, tmp_path):
        trace = Trace(module_name="demo",
                      globals=[GlobalSymbol("g", 0x1000, 32, 64, True)],
                      records=[make_record(dyn_id=i + 1) for i in range(5)])
        path = str(tmp_path / "demo.trace")
        size = write_trace_file(trace, path)
        assert size == os.path.getsize(path)
        loaded = read_trace_file(path)
        assert loaded.module_name == "demo"
        assert len(loaded.globals) == 1
        assert loaded.globals[0].name == "g"
        assert [r.dyn_id for r in loaded.records] == [1, 2, 3, 4, 5]

    def test_writer_rejects_comma_in_names(self, tmp_path):
        """The comma-separated format cannot escape commas; silently writing
        them used to corrupt every later field of the line."""
        path = str(tmp_path / "bad.trace")
        with TraceTextWriter(path, module_name="m") as writer:
            with pytest.raises(TraceFormatError, match="function name"):
                writer.write_record(make_record(function="ma,in"))
            with pytest.raises(TraceFormatError, match="operand name"):
                writer.write_record(make_record(name="x,y"))
            with pytest.raises(TraceFormatError, match="global name"):
                writer.write_global(GlobalSymbol("g,1", 0x10, 8, 64, False))

    def test_writer_rejects_newline_in_names(self, tmp_path):
        path = str(tmp_path / "bad2.trace")
        with TraceTextWriter(path, module_name="m") as writer:
            with pytest.raises(TraceFormatError):
                writer.write_record(make_record(function="ma\nin"))
            with pytest.raises(TraceFormatError):
                writer.write_record(make_record(name="x\ry"))

    def test_writer_rejects_bad_module_name(self, tmp_path):
        with pytest.raises(TraceFormatError, match="module name"):
            TraceTextWriter(str(tmp_path / "bad3.trace"), module_name="a,b")

    def test_streaming_writer_counts_records(self, tmp_path):
        path = str(tmp_path / "stream.trace")
        with TraceTextWriter(path, module_name="m") as writer:
            writer.write_global(GlobalSymbol("g", 0x1000, 8, 64, False))
            writer.write_record(make_record(dyn_id=1))
            writer.write_record(make_record(dyn_id=2))
            assert writer.record_count == 2
        loaded = read_trace_file(path)
        assert loaded.module_name == "m"
        assert [g.name for g in loaded.globals] == ["g"]

    def test_non_ascii_names_roundtrip(self, tmp_path):
        trace = Trace(module_name="módulo",
                      globals=[GlobalSymbol("søren", 0x2000, 16, 64, True)],
                      records=[make_record(name="π_var", function="fünc")])
        path = str(tmp_path / "nonascii.trace")
        write_trace_file(trace, path)
        loaded = read_trace_file(path)
        assert loaded.module_name == "módulo"
        assert loaded.globals == trace.globals
        assert loaded.records == trace.records

    def test_real_trace_roundtrip(self, example_trace, tmp_path):
        path = str(tmp_path / "example.trace")
        write_trace_file(example_trace, path)
        loaded = read_trace_file(path)
        assert len(loaded.records) == len(example_trace.records)
        for original, parsed in zip(example_trace.records[:200], loaded.records[:200]):
            assert original.dyn_id == parsed.dyn_id
            assert original.opcode == parsed.opcode
            assert original.function == parsed.function
            assert original.line == parsed.line
            assert len(original.operands) == len(parsed.operands)


# --------------------------------------------------------------------------- #
# Malformed text lines: a TraceFormatError naming path:line
# --------------------------------------------------------------------------- #
#: Edits of a text trace that make one line malformed: ``(tag of the first
#: line of its kind to edit, field index, new value)``; a field index of
#: ``None`` cuts the line to its first three fields.  The tag ``g``
#: inserts a globals line ``g,foo`` after the header instead, ``g+`` a
#: well-formed one after the first record's header, and ``op*`` repeats
#: the first operand line until its record has 256 operands.
MALFORMED_TEXT = {
    "dyn_id": ("0", 1, "abc"),
    "operand_value": ("op", 5, "zz"),
    "address": ("res", 5, "0xZZ"),
    "operand_fields": ("op", None, None),
    "globals_fields": ("g", None, None),
    "line_range": ("0", 5, str(2 ** 40)),
    "long_name": ("0", 4, "f" * 70000),
    "operand_count": ("op*", None, None),
    "late_global": ("g+", None, None),
}


def malformed_text(path: str, case: str) -> int:
    """Apply ``MALFORMED_TEXT[case]`` to the text trace at ``path`` in
    place; return the 1-based number of the malformed line."""
    tag, field, value = MALFORMED_TEXT[case]
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    if tag == "g":
        lines.insert(1, "g,foo\n")
        index = 1
    elif tag == "g+":
        index = next(number for number, line in enumerate(lines)
                     if line.startswith("0,")) + 1
        lines.insert(index, "g,late,0x100,8,64,0\n")
    elif tag == "op*":
        index = next(number for number, line in enumerate(lines)
                     if line.startswith("op,"))
        lines[index:index] = [lines[index]] * 255
        index += 255
    else:
        index = next(number for number, line in enumerate(lines)
                     if line.startswith(tag + ","))
        fields = lines[index].rstrip("\n").split(",")
        if field is None:
            fields = fields[:3]
        else:
            fields[field] = value
        lines[index] = ",".join(fields) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    return index + 1


class TestMalformedLines:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TEXT))
    def test_read_names_the_file_and_line(self, example_trace, tmp_path,
                                          case):
        path = str(tmp_path / "bad.trace")
        write_trace_file(example_trace, path)
        number = malformed_text(path, case)
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace_file(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}:{number}: malformed trace line")
        assert "\n" not in message

    def test_text_that_is_not_utf8_names_the_file(self, tmp_path):
        path = str(tmp_path / "noise.trace")
        with open(path, "wb") as handle:
            handle.write(b"\xff\xfe garbage\n")
        with pytest.raises(TraceFormatError,
                           match=r"noise\.trace: neither a binary trace "
                                 r"nor UTF-8 text"):
            read_trace_file(path)
