"""Unit tests for the parallel, block-preserving trace-file partitioning."""

import os

import pytest

from repro.ir.opcodes import Opcode
from repro.trace import (
    GlobalSymbol,
    Trace,
    TraceOperand,
    TraceRecord,
    partition_offsets,
    partition_offsets_binary,
    read_trace_file,
    read_trace_file_parallel,
    write_trace_file,
    write_trace_file_binary,
)


@pytest.fixture(scope="module")
def trace_file(example_trace, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("traces") / "example.trace")
    write_trace_file(example_trace, path)
    return path


class TestPartitioning:
    def test_partitions_cover_whole_file(self, trace_file):
        partitions = partition_offsets(trace_file, 4)
        assert partitions[0].start == 0
        assert partitions[-1].end == os.path.getsize(trace_file)
        for previous, current in zip(partitions, partitions[1:]):
            assert previous.end == current.start

    def test_partition_boundaries_fall_on_record_starts(self, trace_file):
        partitions = partition_offsets(trace_file, 5)
        # Offsets are *byte* offsets, so the check must read bytes.
        with open(trace_file, "rb") as handle:
            data = handle.read()
        for part in partitions[1:]:
            if part.start < len(data):
                assert data[part.start:part.start + 2] == b"0,", \
                    "partition must start at an instruction block boundary"

    def test_single_partition(self, trace_file):
        partitions = partition_offsets(trace_file, 1)
        assert len(partitions) == 1

    def test_more_partitions_than_records_is_safe(self, tmp_path, example_trace):
        tiny = Trace(module_name="tiny", globals=list(example_trace.globals),
                     records=example_trace.records[:3])
        path = str(tmp_path / "tiny.trace")
        write_trace_file(tiny, path)
        partitions = partition_offsets(path, 16)
        assert len(partitions) == 16
        parallel = read_trace_file_parallel(path, num_workers=16)
        assert len(parallel.records) == 3

    def test_invalid_partition_count(self, trace_file):
        with pytest.raises(ValueError):
            partition_offsets(trace_file, 0)


class TestPartitionEdgeCases:
    """Empty traces, single-block traces and more workers than blocks must
    yield well-formed (possibly empty) partitions without caller guards."""

    def _check_tiling(self, partitions, num_partitions, total):
        assert len(partitions) == num_partitions
        assert partitions[0].start == 0
        assert partitions[-1].end == total
        for previous, current in zip(partitions, partitions[1:]):
            assert previous.end == current.start
        for part in partitions:
            assert part.start <= part.end

    def test_empty_file_yields_all_empty_partitions(self, tmp_path):
        path = str(tmp_path / "empty.trace")
        open(path, "w").close()
        for workers in (1, 3, 8):
            partitions = partition_offsets(path, workers)
            self._check_tiling(partitions, workers, 0)

    def test_preamble_only_text_trace(self, tmp_path):
        """A trace with globals but zero records: the record partitions are
        empty and the parallel reader returns an empty record list."""
        trace = Trace(module_name="hollow",
                      globals=[GlobalSymbol("g", 0x1000, 8, 64, False)])
        path = str(tmp_path / "hollow.trace")
        write_trace_file(trace, path)
        partitions = partition_offsets(path, 4)
        self._check_tiling(partitions, 4, os.path.getsize(path))
        parallel = read_trace_file_parallel(path, num_workers=4)
        assert parallel.records == []
        assert parallel.globals == trace.globals

    def test_single_block_text_trace(self, tmp_path, example_trace):
        single = Trace(module_name="single",
                       globals=list(example_trace.globals),
                       records=example_trace.records[:1])
        path = str(tmp_path / "single.trace")
        write_trace_file(single, path)
        partitions = partition_offsets(path, 8)
        self._check_tiling(partitions, 8, os.path.getsize(path))
        parallel = read_trace_file_parallel(path, num_workers=8)
        assert parallel.records == single.records

    def test_binary_zero_record_trace(self, tmp_path):
        trace = Trace(module_name="hollow",
                      globals=[GlobalSymbol("g", 0x1000, 8, 64, False)])
        path = str(tmp_path / "hollow.btrace")
        write_trace_file_binary(trace, path)
        partitions = partition_offsets_binary(path, 4)
        assert len(partitions) == 4
        assert all(part.size == 0 for part in partitions)
        parallel = read_trace_file_parallel(path, num_workers=4)
        assert parallel.records == []
        assert parallel.globals == trace.globals

    def test_binary_more_partitions_than_blocks(self, tmp_path,
                                                example_trace):
        path = str(tmp_path / "few.btrace")
        write_trace_file_binary(
            Trace(module_name="few", globals=list(example_trace.globals),
                  records=example_trace.records[:5]), path)
        partitions = partition_offsets_binary(path, 16)
        assert len(partitions) == 16
        for previous, current in zip(partitions, partitions[1:]):
            assert previous.end == current.start
        parallel = read_trace_file_parallel(path, num_workers=16)
        assert parallel.records == example_trace.records[:5]


class TestParallelRead:
    def test_parallel_equals_serial_full_record_equality(self, trace_file):
        serial = read_trace_file(trace_file)
        parallel = read_trace_file_parallel(trace_file, num_workers=4)
        assert serial.records == parallel.records
        assert serial.globals == parallel.globals
        assert serial.module_name == parallel.module_name

    def test_parallel_operand_fidelity(self, trace_file):
        serial = read_trace_file(trace_file)
        parallel = read_trace_file_parallel(trace_file, num_workers=3)
        for s_record, p_record in zip(serial.records, parallel.records):
            assert s_record.operands == p_record.operands
            assert s_record.result == p_record.result

    def test_single_worker_path(self, trace_file):
        single = read_trace_file_parallel(trace_file, num_workers=1)
        serial = read_trace_file(trace_file)
        assert single.records == serial.records

    def test_analysis_identical_on_serial_and_parallel_read(self, trace_file,
                                                            example_spec):
        from repro.core import AutoCheck, AutoCheckConfig

        config = AutoCheckConfig(main_loop=example_spec)
        serial_report = AutoCheck(config, trace_path=trace_file).run()
        parallel_report = AutoCheck(
            config,
            trace=read_trace_file_parallel(trace_file, num_workers=4)).run()
        assert serial_report.dependency_string() == parallel_report.dependency_string()


def _non_ascii_record(dyn_id, name, function):
    return TraceRecord(
        dyn_id=dyn_id,
        opcode=int(Opcode.LOAD),
        opcode_name=Opcode.LOAD.mnemonic,
        function=function,
        line=5 + dyn_id % 7,
        column=2,
        bb_label=1,
        bb_id="5:1",
        operands=[TraceOperand(index="1", bits=64, value=float(dyn_id),
                               is_register=False, name=name,
                               address=0x1000 + 8 * dyn_id)],
        result=TraceOperand(index="r", bits=64, value=float(dyn_id),
                            is_register=True, name=str(dyn_id), address=None),
    )


class TestNonAsciiPartitioning:
    """Regression: byte/character confusion in the partitioned reader.

    The old implementation computed byte offsets from ``os.path.getsize``
    but seeked/read through *text-mode* handles, so any multi-byte character
    shifted every later partition boundary and records were silently dropped
    or duplicated.  These traces use multi-byte identifiers throughout, so
    they fail loudly on any regression.
    """

    #: identifiers whose UTF-8 encoding is 2-4 bytes per character
    NAMES = ["péché", "λ_var", "变量", "übergröße", "Δt", "ψ"]

    @pytest.fixture(scope="class")
    def non_ascii_trace(self):
        records = [
            _non_ascii_record(i + 1, self.NAMES[i % len(self.NAMES)],
                              function="计算" if i % 3 else "mäin")
            for i in range(400)
        ]
        return Trace(module_name="ünïcode",
                     globals=[GlobalSymbol("σ_global", 0x1000, 64, 64, True)],
                     records=records)

    @pytest.fixture(scope="class")
    def non_ascii_trace_file(self, non_ascii_trace, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("traces") / "unicode.trace")
        write_trace_file(non_ascii_trace, path)
        return path

    def test_partitions_are_byte_aligned_to_blocks(self, non_ascii_trace_file):
        partitions = partition_offsets(non_ascii_trace_file, 6)
        assert partitions[-1].end == os.path.getsize(non_ascii_trace_file)
        with open(non_ascii_trace_file, "rb") as handle:
            data = handle.read()
        for part in partitions[1:]:
            if part.start < len(data):
                assert data[part.start:part.start + 2] == b"0,"

    @pytest.mark.parametrize("workers", [2, 3, 5, 8])
    def test_parallel_read_equals_serial(self, non_ascii_trace_file,
                                         non_ascii_trace, workers):
        serial = read_trace_file(non_ascii_trace_file)
        parallel = read_trace_file_parallel(non_ascii_trace_file,
                                            num_workers=workers)
        assert serial.records == non_ascii_trace.records
        assert parallel.records == serial.records
        assert parallel.globals == serial.globals
        assert parallel.module_name == "ünïcode"

    def test_crlf_line_endings_do_not_shift_partitions(self, non_ascii_trace,
                                                       tmp_path):
        # Re-encode the trace with \r\n line endings (as a Windows tool
        # might) and check the byte-offset partitioner still aligns.
        path = str(tmp_path / "crlf.trace")
        write_trace_file(non_ascii_trace, path)
        with open(path, "rb") as handle:
            data = handle.read()
        crlf_path = str(tmp_path / "crlf2.trace")
        with open(crlf_path, "wb") as handle:
            handle.write(data.replace(b"\n", b"\r\n"))
        serial = read_trace_file(crlf_path)
        parallel = read_trace_file_parallel(crlf_path, num_workers=4)
        assert serial.records == non_ascii_trace.records
        assert parallel.records == serial.records
