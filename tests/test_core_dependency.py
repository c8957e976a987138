"""Unit tests for complete-DDG construction, R/W extraction and classification."""

import pytest
from conftest import make_alloca_record, make_operand as _operand, \
    make_record as _rec

from repro.core import AutoCheck, AutoCheckConfig, MainLoopSpec
from repro.core.classify import classify_variables
from repro.core.ddg import NodeKind
from repro.core.report import DependencyType
from repro.core.rwdeps import AccessKind
from repro.core.varmap import VariableInfo
from repro.ir.opcodes import Opcode
from repro.trace.records import Trace


def _walk(trace, spec):
    return AutoCheck(AutoCheckConfig(main_loop=spec), trace=trace).walk()


@pytest.fixture(scope="module")
def example_dependency(example_walk):
    return example_walk.dependency.result()


@pytest.fixture(scope="module")
def example_rw(example_walk, example_preprocessing):
    mli_names = {var.key: var.name
                 for var in example_preprocessing.mli_variables}
    return example_walk.rw.build(set(example_preprocessing.mli_keys()),
                                 mli_names)


class TestDependencyAnalysis:
    def test_complete_ddg_contains_all_node_kinds(self, example_dependency):
        kinds = {node.kind for node in example_dependency.complete_ddg.nodes()}
        assert NodeKind.MLI in kinds
        assert NodeKind.REGISTER in kinds
        assert NodeKind.LOCAL in kinds

    def test_mli_nodes_present(self, example_dependency, example_preprocessing):
        labels = {node.label for node in example_dependency.complete_ddg.mli_nodes()}
        assert labels == set(example_preprocessing.mli_names())

    def test_reg_var_map_populated(self, example_dependency):
        assert len(example_dependency.reg_var_map) > 0

    def test_reg_reg_map_populated(self, example_dependency):
        assert len(example_dependency.reg_reg_map) > 0

    def test_param_binding_links_argument_to_parameter(self, example_dependency):
        # foo(a, b): parameter p of foo must be bound to the caller's `a`
        # (reg-var triplet correlation of paper Fig. 6b).
        bindings = example_dependency.param_bindings
        assert ("foo", "p") in bindings
        assert bindings[("foo", "p")].startswith("a@")
        assert bindings[("foo", "q")].startswith("b@")

    def test_selective_iteration_skips_control_flow(self, example_dependency,
                                                    example_walk):
        inspected = example_dependency.inspected_records
        total_inside = example_walk.walk.inside_count
        assert 0 < inspected < total_inside

    def test_dependency_paths_from_r_to_a_to_sum(self, example_dependency,
                                                 example_preprocessing):
        ddg = example_dependency.complete_ddg
        keys = {var.name: var.key for var in example_preprocessing.mli_variables}
        assert keys["r"] in ddg.ancestors_of(keys["a"])
        assert keys["a"] in ddg.ancestors_of(keys["sum"])
        # sum never feeds anything
        assert ddg.children_of(keys["sum"]) == set()


class TestRWExtraction:
    def test_example_sequence_prefix_matches_figure5e(self, example_rw):
        rw = example_rw
        prefix = [str(event) for event in rw.loop_events[:6]]
        # Paper Fig. 5(e): s-Write; s-Read; r-Read; a-Write; a-Read; b-Write
        assert prefix == ["s-Write", "s-Read", "r-Read", "a-Write", "a-Read",
                          "b-Write"]

    def test_events_sorted_by_dynamic_id(self, example_rw):
        ids = [event.dyn_id for event in example_rw.loop_events]
        assert ids == sorted(ids)

    def test_post_loop_read_of_sum(self, example_rw, example_preprocessing):
        rw = example_rw
        sum_key = example_preprocessing.find("sum").key
        post = rw.post_events_for(sum_key)
        assert post and post[0].kind is AccessKind.READ

    def test_element_offsets_recorded_for_arrays(self, example_rw,
                                                 example_preprocessing):
        rw = example_rw
        a_key = example_preprocessing.find("a").key
        offsets = {event.element_offset for event in rw.events_for(a_key)}
        assert len(offsets) == 10  # a[0] .. a[9] all touched over the run

    def test_sequence_string_format(self, example_rw):
        text = example_rw.sequence_string(limit=3)
        assert text.startswith("1: s-Write; 2: s-Read; 3: r-Read")


class TestClassification:
    def test_example_classification(self, example_report):
        got = {v.name: v.dependency for v in example_report.critical_variables}
        assert got == {
            "r": DependencyType.WAR,
            "a": DependencyType.RAPO,
            "sum": DependencyType.OUTCOME,
            "it": DependencyType.INDEX,
        }

    def test_read_only_and_write_first_variables_not_critical(self, example_report):
        assert example_report.find("s") is None
        assert example_report.find("b") is None

    def test_induction_excluded_from_war(self, example_report):
        it = example_report.find("it")
        assert it.dependency is DependencyType.INDEX

    def test_classification_without_induction(self, example_preprocessing,
                                              example_rw):
        critical = classify_variables(example_preprocessing, example_rw,
                                      induction=None)
        names = {v.name for v in critical}
        assert "it" not in names
        assert {"r", "a", "sum"} <= names

    def test_induction_info_used_for_size(self, example_preprocessing,
                                          example_rw):
        rw = example_rw
        info = VariableInfo(name="it", base_address=0x42, size_bytes=4,
                            element_bits=32, is_array=False, is_global=False)
        critical = classify_variables(example_preprocessing, rw,
                                      induction="it", induction_info=info)
        index_var = [v for v in critical if v.dependency is DependencyType.INDEX][0]
        assert index_var.size_bytes == 4
        assert index_var.base_address == 0x42

    def test_critical_variable_sizes_positive(self, example_report):
        for variable in example_report.critical_variables:
            assert variable.size_bytes > 0

    def test_checkpoint_bytes_is_sum_of_sizes(self, example_report):
        assert example_report.checkpoint_bytes() == sum(
            v.size_bytes for v in example_report.critical_variables)


class TestRecursiveParamBindings:
    """Regression: recursive (or repeated) calls to the same callee must not
    clobber the outer activation's (callee, parameter) binding — the analysis
    keeps a per-callee binding stack pushed on ``Call``, popped on ``Ret``."""

    A, B = 0x1000, 0x1010
    OUTER_SLOT, INNER_SLOT = 0x7000, 0x7100
    SPEC = MainLoopSpec(function="main", start_line=10, end_line=20)

    def _trace(self):
        mk, op = _rec, _operand
        def alloca(i, fn, ln, name, addr):
            return make_alloca_record(name, addr, bits=64, function=fn,
                                      dyn_id=i, line=ln)
        records = [
            # main's locals, touched before the loop
            alloca(1, "main", 2, "a", self.A),
            alloca(2, "main", 3, "b", self.B),
            mk(3, Opcode.STORE, "main", 4,
               operands=[op("1", ""), op("2", "a", address=self.A)]),
            mk(4, Opcode.STORE, "main", 5,
               operands=[op("1", ""), op("2", "b", address=self.B)]),
            # loop extent opens; outer call binds p -> a
            mk(5, Opcode.CALL, "main", 10,
               operands=[op("1", "10", address=self.A, is_register=True),
                         op("p1", "p", address=self.A)],
               callee="rec"),
            alloca(6, "rec", 30, "pslot", self.OUTER_SLOT),
            # recursive call binds p -> b (must shadow, not clobber)
            mk(7, Opcode.CALL, "rec", 31,
               operands=[op("1", "3", address=self.B, is_register=True),
                         op("p1", "p", address=self.B)],
               callee="rec"),
            alloca(8, "rec", 30, "pslot", self.INNER_SLOT),
            # inner activation spills its parameter: p -> b
            mk(9, Opcode.STORE, "rec", 30,
               operands=[op("1", "p", address=self.B),
                         op("2", "pslot", address=self.INNER_SLOT)]),
            mk(10, Opcode.RET, "rec", 32),
            # OUTER activation spills after the inner call returned: the
            # binding must still be p -> a (the flat last-wins dict said b)
            mk(11, Opcode.STORE, "rec", 33,
               operands=[op("1", "p", address=self.A),
                         op("2", "pslot", address=self.OUTER_SLOT)]),
            mk(12, Opcode.RET, "rec", 34),
            # loop extent closes
            mk(13, Opcode.STORE, "main", 20,
               operands=[op("1", ""), op("2", "a", address=self.A)]),
        ]
        return Trace(module_name="recursion", records=records)

    @pytest.fixture()
    def recursion_dependency(self):
        return _walk(self._trace(), self.SPEC).dependency.result()

    def test_outer_spill_binds_to_outer_argument(self, recursion_dependency):
        ddg = recursion_dependency.complete_ddg
        a_key, b_key = f"a@{self.A:#x}", f"b@{self.B:#x}"
        outer_slot = f"pslot@{self.OUTER_SLOT:#x}"
        inner_slot = f"pslot@{self.INNER_SLOT:#x}"
        assert ddg.parents_of(outer_slot) == {a_key}
        assert ddg.parents_of(inner_slot) == {b_key}

    def test_binding_frames_are_popped_on_return(self, recursion_dependency):
        # after both activations returned the flat reporting view keeps the
        # last observed binding, but no live frame remains
        assert recursion_dependency.param_bindings[("rec", "p")].startswith("b@")
        analysis_map = recursion_dependency.variable_map
        assert analysis_map.open_scope_count == 0
        # both activations' slots were retired from address resolution
        assert analysis_map.resolve(self.OUTER_SLOT) is None
        assert analysis_map.resolve(self.INNER_SLOT) is None


class TestUnboundParameterDoesNotLeak:
    """Regression: an activation whose argument is a constant (non-register)
    leaves the parameter explicitly *unbound*; the spill inside that
    activation must not fall back to a previous activation's binding."""

    A = 0x1000
    SLOT1, SLOT2 = 0x7000, 0x7100
    SPEC = MainLoopSpec(function="main", start_line=10, end_line=20)

    def _trace(self):
        mk, op = _rec, _operand
        def alloca(i, fn, ln, name, addr):
            return make_alloca_record(name, addr, bits=64, function=fn,
                                      dyn_id=i, line=ln)
        records = [
            alloca(1, "main", 2, "a", self.A),
            mk(2, Opcode.STORE, "main", 3,
               operands=[op("1", ""), op("2", "a", address=self.A)]),
            # first call binds p -> a (register argument carrying a's address)
            mk(3, Opcode.CALL, "main", 10,
               operands=[op("1", "10", address=self.A, is_register=True),
                         op("p1", "p", address=self.A)],
               callee="helper"),
            alloca(4, "helper", 30, "pslot", self.SLOT1),
            mk(5, Opcode.STORE, "helper", 30,
               operands=[op("1", "p", address=self.A),
                         op("2", "pslot", address=self.SLOT1)]),
            mk(6, Opcode.RET, "helper", 31),
            # second call passes a constant: p is unbound for this activation
            mk(7, Opcode.CALL, "main", 11,
               operands=[op("1", "", value=5), op("p1", "p")],
               callee="helper"),
            alloca(8, "helper", 30, "pslot", self.SLOT2),
            mk(9, Opcode.STORE, "helper", 30,
               operands=[op("1", "p", value=5),
                         op("2", "pslot", address=self.SLOT2)]),
            mk(10, Opcode.RET, "helper", 31),
            mk(11, Opcode.STORE, "main", 20,
               operands=[op("1", ""), op("2", "a", address=self.A)]),
        ]
        return Trace(module_name="unbound", records=records)

    def test_constant_argument_activation_gets_no_stale_edge(self):
        dependency = _walk(self._trace(), self.SPEC).dependency.result()
        ddg = dependency.complete_ddg
        a_key = f"a@{self.A:#x}"
        # first activation: spill connects a to its slot
        assert ddg.parents_of(f"pslot@{self.SLOT1:#x}") == {a_key}
        # second activation: p is explicitly unbound — no leaked edge from a
        assert ddg.parents_of(f"pslot@{self.SLOT2:#x}") == set()
