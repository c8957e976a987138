"""Unit tests for the block-indexed binary trace format."""

import os
import struct

import pytest

from repro.ir.opcodes import Opcode
from repro.trace import (
    BinaryTraceError,
    GlobalSymbol,
    Trace,
    TraceBinaryReader,
    TraceBinaryWriter,
    TraceOperand,
    TraceRecord,
    is_binary_trace_file,
    iter_trace_records,
    partition_offsets_binary,
    read_preamble,
    read_trace_file,
    read_trace_file_binary,
    read_trace_file_binary_parallel,
    sniff_trace_format,
    write_trace_file,
    write_trace_file_binary,
)
from repro.trace.binio import (
    INDEX_STRIDE,
    encode_trace,
    layout_from_buffer,
    read_layout,
    verify_content_digest,
)


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
        loaded = read_trace_file_binary(binary_trace_file)
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
        loaded = read_trace_file_binary(path)
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
        loaded = read_trace_file_binary(path)
        for original, parsed in zip(values, loaded.records):
            got = parsed.operands[0].value
            # bools are canonicalised to ints (same as the text format)
            assert got == original
            assert isinstance(got, float) == isinstance(original, float)

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.btrace")
        write_trace_file_binary(Trace(module_name="void"), path)
        loaded = read_trace_file_binary(path)
        assert loaded.module_name == "void"
        assert loaded.records == []
        assert read_trace_file_binary_parallel(path, num_workers=4).records == []

    def test_streaming_writer_is_a_trace_sink(self, tmp_path):
        path = str(tmp_path / "sink.btrace")
        with TraceBinaryWriter(path, module_name="m") as writer:
            writer.write_record(make_record(dyn_id=1))
            # globals may arrive at any time before close (footer encoding)
            writer.write_global(GlobalSymbol("g", 0x1000, 8, 64, False))
            writer.write_record(make_record(dyn_id=2))
            assert writer.record_count == 2
        module_name, globals_ = read_preamble(path)
        assert module_name == "m"
        assert [g.name for g in globals_] == ["g"]


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

    def test_iter_with_start_record_seeks_via_index(self, big_file):
        path, count = big_file
        full = read_trace_file_binary(path).records
        for start in (0, 1, INDEX_STRIDE - 1, INDEX_STRIDE,
                      2 * INDEX_STRIDE + 5, count - 1, count, count + 10):
            tail = list(iter_trace_records(path, start_record=start))
            assert tail == full[start:]

    def test_partition_offsets_cover_record_region(self, big_file):
        path, _ = big_file
        layout = read_layout(path)
        partitions = partition_offsets_binary(path, 5)
        assert partitions[0].start == layout.records_start
        assert partitions[-1].end == layout.records_end
        for previous, current in zip(partitions, partitions[1:]):
            assert previous.end == current.start
        # every boundary is a record start taken from the index
        interior = {p.start for p in partitions[1:]}
        assert interior <= set(layout.block_offsets) | {layout.records_end}

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_parallel_equals_serial(self, big_file, workers):
        path, _ = big_file
        serial = read_trace_file_binary(path)
        parallel = read_trace_file_binary_parallel(path, num_workers=workers)
        assert parallel.records == serial.records
        assert parallel.globals == serial.globals

    def test_parallel_with_processes(self, big_file):
        path, _ = big_file
        serial = read_trace_file_binary(path)
        parallel = read_trace_file_binary_parallel(path, num_workers=2,
                                                   use_processes=True)
        assert parallel.records == serial.records


class TestContentDigestCheck:
    """:func:`verify_content_digest` re-folds the footer digest over the
    record region and the encoded globals, decoding no record."""

    @pytest.fixture()
    def encoded(self):
        trace = Trace(module_name="digest",
                      globals=[GlobalSymbol("g", 0x1000, 16, 64, True)],
                      records=[make_record(dyn_id=i + 1, value=i)
                               for i in range(INDEX_STRIDE + 3)])
        data, digest = encode_trace(trace.module_name, trace.globals,
                                    trace.records)
        return bytearray(data), digest

    def test_genuine_trace_passes(self, encoded):
        data, digest = encoded
        assert layout_from_buffer(bytes(data)).content_digest == digest
        assert verify_content_digest(bytes(data))

    def test_flipped_record_byte_fails(self, encoded):
        data, _ = encoded
        data[layout_from_buffer(bytes(data)).records_start + 3] ^= 1
        assert not verify_content_digest(bytes(data))

    def test_changed_global_fails(self, encoded):
        data, _ = encoded
        footer = layout_from_buffer(bytes(data)).records_end
        data[bytes(data).index(b"g", footer) + 1] ^= 1  # its base address
        assert not verify_content_digest(bytes(data))

    def test_version1_file_has_nothing_to_check(self, encoded):
        data, _ = encoded
        data[4:6] = (1).to_bytes(2, "little")
        assert verify_content_digest(bytes(data))

    def test_garbage_is_rejected(self):
        with pytest.raises(BinaryTraceError):
            verify_content_digest(b"ACTB garbage")



class TestSniffing:
    def test_sniff_formats(self, tmp_path, example_trace):
        text_path = str(tmp_path / "a.trace")
        binary_path = str(tmp_path / "a.btrace")
        write_trace_file(example_trace, text_path)
        write_trace_file_binary(example_trace, binary_path)
        assert sniff_trace_format(text_path) == "text"
        assert sniff_trace_format(binary_path) == "binary"
        assert not is_binary_trace_file(text_path)
        assert is_binary_trace_file(binary_path)

    def test_front_door_reads_both(self, tmp_path, example_trace):
        text_path = str(tmp_path / "a.trace")
        binary_path = str(tmp_path / "a.btrace")
        write_trace_file(example_trace, text_path)
        write_trace_file_binary(example_trace, binary_path)
        assert read_trace_file(binary_path).records == \
            read_trace_file(text_path).records
        assert read_preamble(binary_path)[0] == read_preamble(text_path)[0]
        assert list(iter_trace_records(binary_path, start_record=3)) == \
            list(iter_trace_records(text_path, start_record=3))


class TestErrors:
    def test_not_binary(self, tmp_path):
        path = str(tmp_path / "nope")
        with open(path, "w") as handle:
            handle.write("0,1,2\n")
        with pytest.raises(BinaryTraceError):
            read_trace_file_binary(path)

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
            read_trace_file_binary(path)

    def test_unknown_version(self, tmp_path):
        path = str(tmp_path / "vers.btrace")
        write_trace_file_binary(Trace(module_name="m"), path)
        with open(path, "r+b") as handle:
            handle.seek(4)
            handle.write(struct.pack("<H", 999))
        with pytest.raises(BinaryTraceError):
            TraceBinaryReader(path)
