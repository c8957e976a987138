"""Property-based tests (hypothesis) for core data structures and invariants.

Covered properties:

* lexer totality and token-position monotonicity over arbitrary identifier /
  number / operator soups;
* memory model read-after-write consistency under arbitrary operation
  sequences;
* trace text encoding round-trips arbitrary records exactly;
* the block-indexed binary encoding round-trips arbitrary traces exactly
  (including multi-byte identifiers, commas/newlines in names and >64-bit
  integer values the text format cannot represent);
* block-aligned parallel trace reading equals serial reading for arbitrary
  traces and worker counts, for both encodings;
* every input form becomes the same bytes for the walk: a text trace file
  streamed through the in-memory encoder decodes back to its records, and
  the in-memory encoding of a trace is byte for byte its binary file —
  with multi-byte identifiers in the mix so byte/character confusion
  cannot reappear;
* Algorithm-1 DDG contraction soundness on random graphs (contracted parents
  = MLI ancestors reachable through non-MLI chains), idempotence, and
  completion-within-deadline on dense multi-thousand-register webs (where
  the pre-BFS expansion loop used to time out);
* deterministic RNG stays within bounds and is reproducible.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.contraction import contract_ddg, contraction_is_sound
from repro.core.ddg import DDG, NodeKind
from repro.minicc.lexer import tokenize
from repro.minicc.tokens import TokenKind
from repro.trace.binio import (
    TraceBinaryReader,
    encode_trace,
    read_layout,
    read_trace_file_binary,
    read_trace_file_binary_parallel,
    write_trace_file_binary,
)
from repro.trace.partition import partition_offsets, read_trace_file_parallel
from repro.trace.records import GlobalSymbol, Trace, TraceOperand, TraceRecord
from repro.trace.textio import (
    iter_trace_records,
    parse_record_lines,
    read_preamble,
    read_trace_file,
    record_to_lines,
    write_trace_file,
)
from repro.tracer.memory import Memory
from repro.util.formatting import format_bytes
from repro.util.rng import DeterministicRNG

# --------------------------------------------------------------------------- #
# Lexer
# --------------------------------------------------------------------------- #
_identifier = st.text(alphabet=string.ascii_letters + "_", min_size=1, max_size=8)
_number = st.one_of(
    st.integers(min_value=0, max_value=10**9).map(str),
    st.floats(min_value=0, max_value=1e6, allow_nan=False,
              allow_infinity=False).map(lambda v: f"{v:.4f}"),
)
_operator = st.sampled_from(["+", "-", "*", "/", "%", "==", "<=", ">=", "&&",
                             "||", "=", "+=", ";", ",", "(", ")", "[", "]",
                             "{", "}", "<", ">"])


@given(st.lists(st.one_of(_identifier, _number, _operator), max_size=40))
@settings(max_examples=60, deadline=None)
def test_lexer_total_on_token_soup(pieces):
    source = " ".join(pieces)
    tokens = tokenize(source)
    assert tokens[-1].kind is TokenKind.EOF
    # positions never go backwards
    positions = [(t.line, t.column) for t in tokens[:-1]]
    assert positions == sorted(positions)


@given(st.lists(_identifier, min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_lexer_preserves_identifier_count(names):
    source = "\n".join(names)
    tokens = [t for t in tokenize(source) if t.kind is not TokenKind.EOF]
    assert len(tokens) == len(names)
    assert [t.text for t in tokens] == names


# --------------------------------------------------------------------------- #
# Memory model
# --------------------------------------------------------------------------- #
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                          st.one_of(st.integers(min_value=-1000, max_value=1000),
                                    st.floats(allow_nan=False, allow_infinity=False,
                                              width=32))),
                max_size=100))
@settings(max_examples=60, deadline=None)
def test_memory_last_write_wins(operations):
    memory = Memory()
    allocation = memory.allocate_global("v", 64, 64, True)
    expected = {}
    for offset, value in operations:
        address = allocation.address + offset * 8
        memory.store(address, value)
        expected[offset] = value
    block = memory.read_block(allocation)
    for offset, value in expected.items():
        assert block[offset] == value
    untouched = set(range(64)) - set(expected)
    for offset in untouched:
        assert block[offset] == 0


@given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_memory_stack_allocations_never_overlap_globals(sizes):
    memory = Memory()
    global_alloc = memory.allocate_global("g", 64, 32, True)
    allocations = [memory.allocate_stack(f"v{i}", 64, size, True, "main")
                   for i, size in enumerate(sizes)]
    intervals = [(a.address, a.end_address) for a in allocations]
    intervals.append((global_alloc.address, global_alloc.end_address))
    intervals.sort()
    for (_, end_a), (start_b, _) in zip(intervals, intervals[1:]):
        assert end_a <= start_b


# --------------------------------------------------------------------------- #
# Trace encoding round trip
# --------------------------------------------------------------------------- #
#: Trace identifiers deliberately include multi-byte characters so that any
#: byte/character confusion in the file readers surfaces as a property
#: failure (the old partitioner seeked text-mode handles with byte offsets).
_trace_name = st.text(alphabet=string.ascii_letters + "_éλπ变Δß",
                      max_size=6)

_operand_strategy = st.builds(
    TraceOperand,
    index=st.sampled_from(["1", "2", "3", "p1", "p2"]),
    bits=st.sampled_from([32, 64]),
    value=st.one_of(st.integers(min_value=-2**70, max_value=2**70),
                    st.floats(allow_nan=False, allow_infinity=False)),
    is_register=st.booleans(),
    name=_trace_name,
    address=st.one_of(st.none(), st.integers(min_value=0, max_value=2**40)),
)

_record_strategy = st.builds(
    TraceRecord,
    dyn_id=st.integers(min_value=1, max_value=10**6),
    opcode=st.sampled_from([8, 9, 12, 26, 27, 28, 29, 44, 46, 49]),
    opcode_name=st.sampled_from(["Add", "FAdd", "Mul", "Alloca", "Load",
                                 "Store", "GetElementPtr", "BitCast", "ICmp",
                                 "Call"]),
    function=_trace_name,
    line=st.integers(min_value=0, max_value=9999),
    column=st.integers(min_value=0, max_value=200),
    bb_label=st.integers(min_value=0, max_value=50),
    bb_id=st.sampled_from(["1:0", "12:3", "100:7"]),
    operands=st.lists(_operand_strategy, max_size=4),
    result=st.one_of(st.none(), _operand_strategy),
    callee=st.sampled_from(["", "foo", "sqrt", "print"]),
)

#: Names the text format rejects (commas/newlines) are fair game in binary.
_binary_name = st.text(
    alphabet=string.ascii_letters + "_éλπ变Δß,\n\r", max_size=6)

_binary_operand_strategy = st.builds(
    TraceOperand,
    index=st.sampled_from(["1", "2", "3", "p1", "r"]),
    bits=st.sampled_from([32, 64]),
    value=st.one_of(st.integers(min_value=-2**100, max_value=2**100),
                    st.floats(allow_nan=False)),
    is_register=st.booleans(),
    name=_binary_name,
    address=st.one_of(st.none(), st.integers(min_value=0, max_value=2**60)),
)

_binary_record_strategy = st.builds(
    TraceRecord,
    dyn_id=st.integers(min_value=1, max_value=10**9),
    opcode=st.integers(min_value=0, max_value=2**30),
    opcode_name=_binary_name,
    function=_binary_name,
    line=st.integers(min_value=0, max_value=10**6),
    column=st.integers(min_value=0, max_value=10**4),
    bb_label=st.integers(min_value=0, max_value=10**6),
    bb_id=_binary_name,
    operands=st.lists(_binary_operand_strategy, max_size=4),
    result=st.one_of(st.none(), _binary_operand_strategy),
    callee=_binary_name,
)


@given(_record_strategy)
@settings(max_examples=80, deadline=None)
def test_trace_record_text_roundtrip(record):
    parsed = parse_record_lines(record_to_lines(record))
    assert len(parsed) == 1
    out = parsed[0]
    assert out.dyn_id == record.dyn_id
    assert out.opcode == record.opcode
    assert out.function == record.function
    assert out.line == record.line
    assert out.callee == record.callee
    assert len(out.operands) == len(record.operands)
    for left, right in zip(record.operands, out.operands):
        assert left.name == right.name
        assert left.address == right.address
        assert left.is_register == right.is_register
        assert left.value == pytest.approx(right.value, nan_ok=True)
    assert (out.result is None) == (record.result is None)


@given(st.lists(_record_strategy, min_size=1, max_size=30),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_parallel_trace_read_equals_serial(tmp_path_factory, records, workers):
    # renumber dynamic ids so ordering is well defined, and canonicalise the
    # result index (the text encoding does not store it — it is always "r")
    for index, record in enumerate(records):
        record.dyn_id = index + 1
        if record.result is not None:
            record.result.index = "r"
    trace = Trace(module_name="prop",
                  globals=[GlobalSymbol("g", 0x1000, 16, 64, True)],
                  records=records)
    path = str(tmp_path_factory.mktemp("prop") / "prop.trace")
    write_trace_file(trace, path)

    serial = read_trace_file(path)
    parallel = read_trace_file_parallel(path, num_workers=workers)
    # full record equality, not just dyn_id/opcode projections
    assert serial.records == trace.records
    assert parallel.records == serial.records

    partitions = partition_offsets(path, workers)
    assert partitions[0].start == 0
    assert sum(p.size for p in partitions) == partitions[-1].end


@given(st.lists(_record_strategy, min_size=1, max_size=30))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_text_trace_file_encodes_for_the_walk(tmp_path_factory, records):
    # renumber dynamic ids so ordering is well defined, and canonicalise the
    # result index (the text encoding does not store it — it is always "r")
    for index, record in enumerate(records):
        record.dyn_id = index + 1
        if record.result is not None:
            record.result.index = "r"
    trace = Trace(module_name="prop",
                  globals=[GlobalSymbol("g", 0x1000, 16, 64, True)],
                  records=records)
    path = str(tmp_path_factory.mktemp("prop") / "prop.trace")
    write_trace_file(trace, path)

    serial = read_trace_file(path)
    # full record equality, not just dyn_id/opcode projections
    assert serial.records == trace.records
    # the route a text input takes to the walk: streamed into the encoder
    module_name, globals_ = read_preamble(path)
    buffer, _ = encode_trace(module_name, globals_, iter_trace_records(path))
    encoded = TraceBinaryReader(buffer=buffer).read()
    assert encoded.globals == trace.globals
    assert encoded.records == trace.records


@given(st.lists(_binary_record_strategy, max_size=30))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_trace_binary_roundtrip(tmp_path_factory, records):
    trace = Trace(module_name="binäry,prop",
                  globals=[GlobalSymbol("号g", 0x1000, 16, 64, True)],
                  records=records)
    path = str(tmp_path_factory.mktemp("prop") / "prop.btrace")
    write_trace_file_binary(trace, path)
    loaded = read_trace_file_binary(path)
    assert loaded.module_name == trace.module_name
    assert loaded.globals == trace.globals
    assert len(loaded.records) == len(trace.records)
    for left, right in zip(trace.records, loaded.records):
        assert left == right
        # value types survive exactly (int stays int, float stays float)
        for l_op, r_op in zip(left.operands, right.operands):
            assert type(l_op.value) is type(r_op.value) or (
                isinstance(l_op.value, bool) and r_op.value == int(l_op.value))


@given(st.lists(_binary_record_strategy, min_size=1, max_size=30),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_binary_parallel_read_equals_serial(tmp_path_factory, records, workers):
    trace = Trace(module_name="prop", records=records)
    path = str(tmp_path_factory.mktemp("prop") / "prop.btrace")
    write_trace_file_binary(trace, path)
    serial = read_trace_file_binary(path)
    parallel = read_trace_file_binary_parallel(path, num_workers=workers)
    assert serial.records == trace.records
    assert parallel.records == serial.records


@given(st.lists(_binary_record_strategy, min_size=1, max_size=30))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_in_memory_encoding_equals_binary_file(tmp_path_factory, records):
    """The in-memory encode an in-memory trace takes to the walk is byte
    for byte its binary file, so both forms share digests and store keys."""
    trace = Trace(module_name="prop",
                  globals=[GlobalSymbol("号g", 0x1000, 16, 64, True)],
                  records=records)
    path = str(tmp_path_factory.mktemp("prop") / "prop.btrace")
    write_trace_file_binary(trace, path)
    buffer, digest = encode_trace(trace.module_name, trace.globals,
                                  trace.records)
    with open(path, "rb") as handle:
        assert handle.read() == buffer
    assert digest == read_layout(path).content_digest


# --------------------------------------------------------------------------- #
# DDG contraction
# --------------------------------------------------------------------------- #
@st.composite
def random_ddg(draw):
    n_mli = draw(st.integers(min_value=1, max_value=5))
    n_other = draw(st.integers(min_value=0, max_value=8))
    ddg = DDG()
    mli_keys = [f"v{i}" for i in range(n_mli)]
    other_keys = [f"t{i}" for i in range(n_other)]
    for key in mli_keys:
        ddg.add_node(key, NodeKind.MLI, key)
    for index, key in enumerate(other_keys):
        kind = NodeKind.REGISTER if index % 2 == 0 else NodeKind.LOCAL
        ddg.add_node(key, kind, key)
    all_keys = mli_keys + other_keys
    max_edges = len(all_keys) * 2
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    for _ in range(n_edges):
        parent = draw(st.sampled_from(all_keys))
        child = draw(st.sampled_from(all_keys))
        ddg.add_edge(parent, child)
    return ddg, set(mli_keys)


@given(random_ddg())
@settings(max_examples=80, deadline=None)
def test_contraction_keeps_only_mli_and_is_sound(data):
    ddg, mli_keys = data
    contracted = contract_ddg(ddg, mli_keys)
    assert set(contracted.node_keys()) <= mli_keys
    assert contraction_is_sound(ddg, contracted, mli_keys)


@given(random_ddg())
@settings(max_examples=40, deadline=None)
def test_contraction_is_idempotent(data):
    ddg, mli_keys = data
    once = contract_ddg(ddg, mli_keys)
    twice = contract_ddg(once, mli_keys)
    assert set(once.node_keys()) == set(twice.node_keys())
    assert set(once.edges()) == set(twice.edges())


@given(random_ddg())
@settings(max_examples=40, deadline=None)
def test_contraction_does_not_mutate_input(data):
    ddg, mli_keys = data
    nodes_before = set(ddg.node_keys())
    edges_before = set(ddg.edges())
    contract_ddg(ddg, mli_keys)
    assert set(ddg.node_keys()) == nodes_before
    assert set(ddg.edges()) == edges_before


@st.composite
def dense_register_web(draw):
    """A large web of temporary registers all feeding every MLI vertex, with
    a chained non-MLI ancestry — the shape real traces produce for register
    soups inside hot loops.  The old expansion-loop contraction re-copied
    parent sets on every substitution here and blew hypothesis's deadline at
    a few thousand registers; the reverse-BFS contraction stays linear in
    the edge count."""
    n_mli = draw(st.integers(min_value=2, max_value=8))
    n_other = draw(st.integers(min_value=1_000, max_value=4_000))
    fan = draw(st.integers(min_value=1, max_value=3))
    ddg = DDG()
    mli_keys = [f"v{i}" for i in range(n_mli)]
    other_keys = [f"t{i}" for i in range(n_other)]
    for key in mli_keys:
        ddg.add_node(key, NodeKind.MLI, key)
    for key in other_keys:
        ddg.add_node(key, NodeKind.REGISTER, key)
    for i in range(n_other):
        for mli in mli_keys:
            ddg.add_edge(other_keys[i], mli)
        for j in range(i + 1, min(i + 1 + fan, n_other)):
            ddg.add_edge(other_keys[j], other_keys[i])
        # every register chain bottoms out in some MLI variable, so the
        # contracted graph is the complete MLI digraph (minus self loops)
        ddg.add_edge(mli_keys[i % n_mli], other_keys[i])
    return ddg, set(mli_keys)


@given(dense_register_web())
@settings(max_examples=5, deadline=2_000)
def test_contraction_sound_on_dense_register_webs(data):
    """Previously timed out: the per-parent remove/re-add expansion loop was
    4-8x slower with heavy set-copy churn on graphs of this size; the BFS
    formulation completes well inside the deadline."""
    ddg, mli_keys = data
    contracted = contract_ddg(ddg, mli_keys)
    assert set(contracted.node_keys()) <= mli_keys
    assert contraction_is_sound(ddg, contracted, mli_keys)
    # every MLI vertex keeps its full non-MLI ancestry compressed away:
    # each is parented by every *other* MLI vertex reachable through the web
    for child in mli_keys:
        assert contracted.parents_of(child) == mli_keys - {child}


# --------------------------------------------------------------------------- #
# RNG / formatting
# --------------------------------------------------------------------------- #
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1,
                                                              max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_rng_bounds_and_reproducibility(seed, bound):
    first = DeterministicRNG(seed)
    second = DeterministicRNG(seed)
    values_first = [first.next_int(bound) for _ in range(20)]
    values_second = [second.next_int(bound) for _ in range(20)]
    assert values_first == values_second
    assert all(0 <= value < bound for value in values_first)


@given(st.integers(min_value=0, max_value=2**50))
@settings(max_examples=60, deadline=None)
def test_format_bytes_always_parseable(value):
    text = format_bytes(value)
    number, unit = text.split()
    assert float(number) >= 0
    assert unit in {"B", "KB", "MB", "GB", "TB"}
